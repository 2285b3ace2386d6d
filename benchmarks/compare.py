"""Parent-vs-change comparison with identical benchmark code.

    python3 benchmarks/compare.py --parent ../parent --change . --workload fits

Runs this directory's run.py from the root of each checkout in turn, so
both sides' ./src are measured by the same benchmark code and settings.
Pairs alternate which side goes first; each pair uses a new seed.  For
every end-to-end metric it prints both sides' medians and quartiles, the
share of pairs the change wins (ties count for neither) and a verdict:

- ``gain``: the change wins at least 9 in 10 pairs and the medians differ
  by more than the parent's own interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- ``unresolved``: the parent's spread is wider than the bound, and the
  change does not beat the parent on every pair;
- ``no regression`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PAIRS = 10
FIRST_SEED = 100


def run_side(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"{root}: seed {seed} failed (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if wins >= 0.9 * len(parent) and sign * (med_p - med_c) > q3 - q1:
        return "gain"
    if sign * (med_c - med_p) > bound * abs(med_p):
        return "regression"
    if (q3 - q1) > bound * abs(med_p) and wins < len(parent):
        return "unresolved"
    return "no regression"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    p.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    p.add_argument("--workload", required=True)
    args = p.parse_args(argv)

    parent_runs, change_runs = [], []
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        sides = [("parent", args.parent), ("change", args.change)]
        for label, root in (sides if i % 2 == 0 else sides[::-1]):
            metrics = run_side(root.resolve(), args.workload, seed)
            (parent_runs if label == "parent" else change_runs).append(metrics)
            print(f"pair {i + 1} seed {seed} {label}: "
                  + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)

    print(f"\n{args.workload}: {PAIRS} pairs")
    for m in SPEC["end_to_end"]:
        name = m["name"]
        parent = [r[name] for r in parent_runs]
        change = [r[name] for r in change_runs]
        qp, qc = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
        print(f"  {name:12s} parent {qp[1]:.4g} [{qp[0]:.4g}, {qp[2]:.4g}]  "
              f"change {qc[1]:.4g} [{qc[0]:.4g}, {qc[2]:.4g}] {m['unit']}  "
              f"change wins {wins}/{len(parent)}  "
              f"{verdict(parent, change, m['better'], m['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
