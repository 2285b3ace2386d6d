"""Run the full benchmark protocol: ground truth, sweep, and PDF export.

This is the library-API equivalent of

    gustuq converge --out results/
    gustuq pdf --out results/

but with a reduced budget grid and sample counts, so it finishes in
seconds (about 5 s on a 2-core machine). Outputs land in demo_results/
under the current directory: truth.json, convergence.csv, and one
density histogram per quantity of interest.

Run:  python3 demos/convergence_study.py
"""

from pathlib import Path

import numpy as np

from gustuq.core import QOI_NAMES
from gustuq.harness import (StudyConfig, export_pdf_data, run_convergence,
                            run_ground_truth, write_convergence_csv,
                            write_pdf_csv)

out = Path("demo_results")
out.mkdir(exist_ok=True)

config = StudyConfig(budgets=(8, 16, 32, 64), truth_train=200,
                     truth_surrogate_samples=2 * 10**5,
                     truth_check_samples=5 * 10**4,
                     surrogate_samples=2 * 10**5)

truth = run_ground_truth(config)
(out / "truth.json").write_text(truth.to_json())
print("ground truth (kriging on 200 points, cross-checked against direct MC):")
for name, risk in zip(QOI_NAMES, truth.risk):
    print(f"  {name}: mean={risk.mean:.4g} std={risk.std_dev:.4g} "
          f"p95={risk.p95:.4g}")

records = run_convergence(config, truth)
write_convergence_csv(records, out / "convergence.csv")

print("\nrelative error of the mean vs evaluation budget:")
print(f"  {'method':9s}" + "".join(f"{b:>10d}" for b in config.budgets))
for qoi in QOI_NAMES:
    print(f"  -- {qoi}")
    for method in config.methods:
        cells = [r for r in records
                 if r.method == method and r.qoi == qoi and r.measure == "mean"]
        line = "".join(f"{r.rel_error:>10.1e}" if r.status == "ok"
                       else f"{'fail':>10s}" for r in cells)
        print(f"  {method:9s}{line}")

for name, model in zip(QOI_NAMES, truth.models):
    centers, densities = export_pdf_data(model, n_samples=2 * 10**5,
                                         bins=config.bins, seed=config.seed)
    write_pdf_csv(centers, densities, out / f"pdf_{name}.csv")
    mode = centers[np.argmax(densities)]
    print(f"\n{name}: density peaks near {mode:.4g}, "
          f"histogram written to {out / f'pdf_{name}.csv'}")
