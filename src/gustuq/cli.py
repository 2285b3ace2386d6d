"""Command-line harness: truth, converge, pdf, and simulate subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .core import QOI_NAMES
from .gust import qois
from .harness import (StudyConfig, TruthCheckError, build_oracle, export_pdf_data,
                      run_convergence, run_ground_truth,
                      write_convergence_csv, write_convergence_json,
                      write_pdf_csv)


def _load_config(args):
    """(config, oracle) for the subcommand; a config it cannot use is a usage error."""
    try:
        config = StudyConfig.from_json_file(args.config) if args.config else StudyConfig()
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if getattr(args, "methods", None):
            overrides["methods"] = tuple(args.methods.split(","))
        if overrides:
            config = dataclasses.replace(config, **overrides)
        return config, build_oracle(config)
    except (ValueError, OSError) as exc:  # bad key or value, malformed JSON, missing file
        args.usage_error(f"invalid configuration: {exc}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_truth(truth, out: Path) -> None:
    (out / "truth.json").write_text(truth.to_json())
    surrogates = {name: json.loads(model.to_json())
                  for name, model in zip(QOI_NAMES, truth.models)}
    (out / "truth_surrogate.json").write_text(json.dumps(surrogates))


def cmd_truth(args) -> int:
    config, oracle = _load_config(args)
    out = _out_dir(args)
    truth = run_ground_truth(config, oracle)
    _write_truth(truth, out)
    for name, risk in zip(QOI_NAMES, truth.risk):
        print(f"{name}: mean={risk.mean:.6g} std={risk.std_dev:.6g} p95={risk.p95:.6g}")
    print(f"wrote {out / 'truth.json'}")
    return 0


def cmd_converge(args) -> int:
    config, oracle = _load_config(args)
    out = _out_dir(args)
    truth = run_ground_truth(config, oracle)
    _write_truth(truth, out)
    records = run_convergence(config, truth, oracle)
    if args.format == "json":
        path = out / "convergence.json"
        write_convergence_json(records, path)
    else:
        path = out / "convergence.csv"
        write_convergence_csv(records, path)
    failed = sum(1 for r in records if r.status != "ok")
    print(f"wrote {path} ({len(records)} records, {failed} failed)")
    return 0


def cmd_pdf(args) -> int:
    config, oracle = _load_config(args)
    out = _out_dir(args)
    truth = run_ground_truth(config, oracle)
    _write_truth(truth, out)
    for name, model in zip(QOI_NAMES, truth.models):
        centers, densities = export_pdf_data(
            model, n_samples=config.truth_surrogate_samples,
            bins=config.bins, seed=config.seed)
        path = out / f"pdf_{name}.csv"
        write_pdf_csv(centers, densities, path)
        print(f"wrote {path}")
    return 0


def cmd_simulate(args) -> int:
    config, oracle = _load_config(args)
    out = _out_dir(args)
    point = config.space.midpoint if args.point is None else args.point
    try:
        history = oracle.simulate(point)
    except ValueError as exc:  # a point outside the oracle's domain
        args.usage_error(f"argument --point: {exc}")
    path = out / "timehistory.csv"
    history.to_csv(path)
    rec = qois(history)
    print(f"point {point.tolist()}: max_tip_displacement={rec.max_tip_displacement:.6g} m, "
          f"avg_strain_energy={rec.avg_strain_energy:.6g} J")
    print(f"wrote {path}")
    return 0


def _point(text: str) -> np.ndarray:
    """``--point`` value: three comma-separated numbers V_inf,l_g,V_p."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if len(values) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers V_inf,l_g,V_p, got {text!r}")
    return np.array(values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gustuq",
        description="Gust-response UQ benchmark: ground truth, convergence "
                    "sweeps, PDF export, and single-point simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON study configuration file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default="results", help="output directory")
        p.set_defaults(usage_error=p.error)

    p_truth = sub.add_parser("truth", help="compute the kriging ground truth")
    common(p_truth)
    p_truth.set_defaults(func=cmd_truth)

    p_conv = sub.add_parser("converge", help="run the convergence study")
    common(p_conv)
    p_conv.add_argument("--methods", help="comma-separated subset of methods")
    p_conv.add_argument("--format", choices=("csv", "json"), default="csv")
    p_conv.set_defaults(func=cmd_converge)

    p_pdf = sub.add_parser("pdf", help="export QoI histogram data")
    common(p_pdf)
    p_pdf.set_defaults(func=cmd_pdf)

    p_sim = sub.add_parser("simulate", help="dump one time history")
    common(p_sim)
    p_sim.add_argument("--point", type=_point,
                       help="comma-separated physical point V_inf,l_g,V_p, "
                            "default = input-space midpoint")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TruthCheckError as exc:  # the study's data, not its usage, is at fault
        print(f"gustuq {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
