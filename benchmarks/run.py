"""Benchmark of the gustuq reproduction: one process, one workload, closed loop.

Run from the root of a checkout (the sources are taken from ./src):

    python3 benchmarks/run.py --workload protocol --seed 0 --trace 0

Passes of the workload run back to back until ``--seconds`` is spent
(by default BENCHMARK.json's ``run_seconds``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A results file with the full record (environment, pass
times, checks and, when traced, every span) is written under
``.bench_out/``.  The exit code is non-zero if any check fails.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: a single-threaded baseline, below nproc, and steadier
# on a shared host.  Set before numpy is imported, inherited by children.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SPEC_FILE = HERE.parent / "BENCHMARK.json"
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 3
HOST_NOTE = ("shared host: load from other tenants is not controlled; "
             "no cgroup, CPU-frequency or file-cache control")


def parse_args(argv):
    run_seconds = json.loads(SPEC_FILE.read_text())["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="protocol, fits or mc-direct; 'all' runs each in turn, one process each")
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs and exit (used to time set-up in a fresh process)")
    p.add_argument("--write-reference", action="store_true",
                   help=f"store one pass's outputs as the seed-{REFERENCE_SEED} reference")
    return p.parse_args(argv)


def environment(root: Path) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
        "git_commit": commit, "host": HOST_NOTE,
    }


def measure_setup(args, repeats: int) -> list[float]:
    """Wall time of fresh processes from spawn until they report their inputs ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                ready = proc.stdout.readline()  # blocks until the child prints it
                times.append(time.perf_counter() - start)
                proc.wait(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return times


def load_reference(workload) -> dict | None:
    if not REFERENCE_FILE.is_file():
        return None
    entry = json.loads(REFERENCE_FILE.read_text()).get(workload.name)
    if entry is None or entry["params"] != workload.params():
        return None
    return entry["values"]


def write_reference(workload, inputs, output) -> None:
    doc = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    doc[workload.name] = {"seed": REFERENCE_SEED, "params": workload.params(),
                          "values": workload.values(inputs, output)}
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


class Run:
    """State of one benchmark run: passes, outputs, checks and operation counts."""

    def __init__(self, workload, args, workdir: Path):
        import spans
        import workloads
        self.spans, self.wl = spans, workloads
        self.workload, self.args, self.workdir = workload, args, workdir
        self.walls, self.outputs = [], []
        self.traced = []  # (wall, output, inputs, tracer)
        self.attribution = None  # tracer of the per-method attribution stage
        self.checks = []
        self.attempted = self.failed = 0
        self.error = None

    def _dir(self, label: str) -> Path:
        path = self.workdir / f"{label}{len(self.walls) + len(self.traced)}"
        path.mkdir()
        return path

    def plain_pass(self, inputs) -> None:
        out = self._dir("pass")
        start = time.perf_counter()
        output = self.workload.run(inputs, out)
        self.walls.append(time.perf_counter() - start)
        self.outputs.append(output)
        self._count(inputs, output)

    def traced_pass(self) -> None:
        out = self._dir("traced")
        tracer = self.spans.Tracer()
        undo = self.spans.install(tracer)
        try:
            with tracer.stage("setup"):
                inputs = self.workload.setup(self.args.seed, out)
            with tracer.stage("run") as span:
                output = self.workload.run(inputs, out)
        finally:
            self.spans.remove(undo)
        self.traced.append((span.duration, output, inputs, tracer))
        self._count(inputs, output)

    def _count(self, inputs, output) -> None:
        attempted, failed = self.workload.operations(inputs, output)
        self.attempted += attempted
        self.failed += failed

    def loop(self, inputs, seconds: float) -> None:
        """Passes back to back; stop before a further round would pass ``seconds``."""
        start = time.perf_counter()
        while True:
            self.plain_pass(inputs)
            if self.args.trace:
                self.traced_pass()
            round_s = statistics.median(self.walls) + (
                statistics.median(w for w, *_ in self.traced) if self.traced else 0.0)
            if time.perf_counter() - start + round_s > seconds:
                return

    def check(self, inputs, reference) -> None:
        wl, workload = self.wl, self.workload
        first = workload.fingerprint(inputs, self.outputs[0])
        outputs = self.outputs + [output for _, output, *_ in self.traced]
        wl.add_check(self.checks, "outputs.identical_across_passes",
                  all(workload.fingerprint(inputs, o) == first for o in outputs[1:]),
                  f"{len(self.outputs)} plain and {len(self.traced)} traced passes")
        self.checks += workload.checks(inputs, self.outputs, reference)
        if self.args.seed == REFERENCE_SEED and reference is not None:
            self.checks += wl.compare_reference(reference,
                                                workload.values(inputs, self.outputs[0]))
        for _, output, traced_inputs, tracer in self.traced:
            names = {s.name for s in tracer.spans}
            idle = [layer for layer in workload.required_layers if layer not in names]
            wl.add_check(self.checks, "traced.layers_exercised", not idle,
                      f"no calls recorded for {idle}")
            want = workload.expected_oracle_cost(traced_inputs, output)
            got = self.spans.oracle_cost(tracer.spans)
            wl.add_check(self.checks, "traced.oracle_count", got == want,
                      f"traced oracle work {got}, expected {want}")

    def layer_metrics(self, names) -> dict:
        per_pass = [{**self.spans.layer_metrics(tracer.spans),
                     **self.workload.output_metrics(inputs, output)}
                    for _, output, inputs, tracer in self.traced]
        metrics = {name: statistics.median(m.get(name, 0) for m in per_pass) for name in names}
        _, output, inputs, _ = self.traced[0]
        self.attribution = self.spans.Tracer()
        undo = self.spans.install(self.attribution)
        try:
            extra, checks = self.workload.attribute(inputs, output, self.attribution)
        finally:
            self.spans.remove(undo)
        self.checks += checks
        metrics.update(extra)
        # Passes alternate plain and traced, so per-round differences cancel slow drift.
        metrics["trace.overhead_s"] = statistics.median(
            traced - plain for plain, (traced, *_) in zip(self.walls, self.traced))
        missing = set(metrics) - set(names)
        if missing:
            raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(missing)}")
        return metrics


def _span_record(span) -> list:
    return [span.name, span.parent, span.start, span.end, span.attrs]


def main(argv=None, workloads=None, setup_repeats: int = SETUP_REPEATS) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "gustuq" / "__init__.py").is_file():
        print(f"benchmark: no gustuq sources under {root / 'src'}; "
              "run it from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl
    spec = json.loads(SPEC_FILE.read_text())
    registry = workloads or wl.WORKLOADS
    if args.workload == "all" and workloads is None:
        return run_all(args)
    if args.workload not in registry:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(registry)} or all", file=sys.stderr)
        return 2
    workload = registry[args.workload]
    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root))
    try:
        if args.setup_only:
            workload.setup(args.seed, workdir)
            print("ready", flush=True)
            return 0
        if args.write_reference:
            if args.seed != REFERENCE_SEED:
                print(f"benchmark: the reference is for seed {REFERENCE_SEED}", file=sys.stderr)
                return 2
            inputs = workload.setup(args.seed, workdir)
            write_reference(workload, inputs, workload.run(inputs, workdir))
            print(f"wrote {REFERENCE_FILE}")
            return 0
        return measure(args, workload, spec, root, out_root, workdir, setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; non-zero if any fails."""
    import workloads as wl
    code = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
    return code


def measure(args, workload, spec, root, out_root, workdir, setup_repeats) -> int:
    setup_times = measure_setup(args, setup_repeats)
    inputs = workload.setup(args.seed, workdir)
    run = Run(workload, args, workdir)
    reference = load_reference(workload)
    metrics = {}
    try:
        run.loop(inputs, args.seconds)
        run.check(inputs, reference)
        if args.trace:
            metrics = run.layer_metrics([m["name"] for m in spec["per_layer"]])
    except Exception:  # noqa: BLE001 - the run's boundary: report, do not crash
        run.error = traceback.format_exc()
        run.attempted += 1
        run.failed += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace and run.walls:
        metrics = {"wall_s": statistics.median(run.walls),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": peak_rss_mb}
    failed_checks = [c for c in run.checks if not c["ok"]]
    attempted = run.attempted + len(run.checks)
    failed = run.failed + len(failed_checks)
    correct = failed == 0 and run.error is None

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = environment(root)
    print(f"workload {workload.name}, seed {args.seed} (program seed {inputs.config.seed}), "
          f"trace {args.trace}: "
          f"{len(run.walls)} untraced and {len(run.traced)} traced passes, "
          f"{time.perf_counter() - PROCESS_START:.1f} s in all")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  {'(wall_s: median of passes)':40s} n = {len(run.walls)}")
        print(f"  {'(setup_s: median of fresh processes)':40s} n = {len(setup_times)}")
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")
    for c in failed_checks:
        print(f"  FAILED {c['name']}: {c['detail']}")
    if run.error:
        print(run.error, file=sys.stderr)
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    results = {"workload": workload.name, "params": workload.params(), "seed": args.seed,
               "program_seed": inputs.config.seed,
               "seconds": args.seconds, "trace": args.trace, "environment": env,
               "metrics": metrics, "pass_walls_s": run.walls,
               "traced_walls_s": [w for w, *_ in run.traced], "setup_s": setup_times,
               "peak_rss_mb": peak_rss_mb, "attempted": attempted, "failed": failed,
               "checks": run.checks, "error": run.error}
    if args.trace:
        results["spans"] = [[_span_record(s) for s in tracer.spans] for tracer in
                            [t for *_, t in run.traced] + [run.attribution] if tracer is not None]
    results_dir = out_root / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1, default=str))
    print(f"  results: {path}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
