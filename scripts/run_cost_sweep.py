#!/usr/bin/env python3
"""Three-way decision experiment: sweep the abstention penalty at fixed
routing penalty and compare the full predict/route/abstain policy against
its two-way restrictions on true costs."""

import argparse
from pathlib import Path

import numpy as np

from hocroute.calibrator import calibrate
from hocroute.cli import parse_grid, parse_loss
from hocroute.evaluation import PREDICT_ABSTAIN, PREDICT_ROUTE, THREE_WAY, cost_sweep
from hocroute.partition import fit
from hocroute.storage import write_manifest, write_sweep_csv
from hocroute.synthetic import KINDS, generate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=KINDS, default="sinusoidal")
    parser.add_argument("--train", type=int, default=10_000)
    parser.add_argument("--cal", type=int, default=5_000)
    parser.add_argument("--test", type=int, default=100_000)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--weak-bins", type=int, default=25)
    parser.add_argument("--loss", default="brier")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--beta", default="0.1:0.8:0.05", help="grid lo:hi:step")
    parser.add_argument("--out-dir", default="results/sweep")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    data = generate(
        args.kind,
        sizes=(args.train, args.cal, args.test),
        k=args.k,
        seed=args.seed,
        weak_bins=args.weak_bins,
    )
    model = calibrate(fit("topclass", data.calibration, buckets=10), data.calibration, recalibrate=True)
    sweep = cost_sweep(
        model, data.test, parse_loss(args.loss), alpha=args.alpha, betas=parse_grid(args.beta)
    )
    path = out_dir / "sweep.csv"
    write_sweep_csv(path, sweep)

    costs = sweep.mean_costs
    worst = float(np.max(costs[THREE_WAY] - np.minimum(costs[PREDICT_ROUTE], costs[PREDICT_ABSTAIN])))
    print(f"wrote {path}; worst three-way excess over the two-way floor: {worst:+.6f}")
    print(f"estimated-cost dominance gap (must be <= 0): {sweep.max_estimated_gap:.2e}")
    write_manifest(
        out_dir / "manifest.json",
        command="run_cost_sweep",
        args=vars(args),
        outputs=[path],
        seed=args.seed,
    )


if __name__ == "__main__":
    main()
