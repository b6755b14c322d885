#!/usr/bin/env python3
"""Two-way routing-curve experiment on a synthetic target.

Generates a seeded dataset, calibrates the router on k-snapshot data, and
writes routing curves for the calibrated router against the baselines
(total uncertainty, bucket-optimal, pointwise-optimal, random) for one or
more losses. CSV output renders directly with any plotting tool.
"""

import argparse
from pathlib import Path

from hocroute.baselines import RANDOM
from hocroute.calibrator import aggregate_wasserstein, calibrate
from hocroute.cli import parse_loss
from hocroute.evaluation import CURVE_POLICIES, routing_curves
from hocroute.partition import fit, partition_quality
from hocroute.storage import write_curves_csv, write_manifest
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
    parser.add_argument("--buckets", type=int, default=10)
    parser.add_argument("--no-recalibrate", action="store_true")
    parser.add_argument("--losses", default="brier,crossentropy")
    parser.add_argument("--out-dir", default="results/synthetic")
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
    spec = fit("topclass", data.calibration, buckets=args.buckets)
    model = calibrate(spec, data.calibration, recalibrate=not args.no_recalibrate)

    outputs = []
    for loss_flag in args.losses.split(","):
        loss = parse_loss(loss_flag.strip())
        curves = routing_curves(model, data.test, loss, CURVE_POLICIES + (RANDOM,), seed=args.seed)
        path = out_dir / f"curves_{loss.kind}.csv"
        write_curves_csv(path, curves)
        outputs.append(path)
        endpoints = curves[0].mean_losses
        print(f"{loss.name}: weak {endpoints[0]:.4f} -> oracle {endpoints[-1]:.4f} ({path})")

    quality = partition_quality(spec, data.calibration, parse_loss(args.losses.split(",")[0]))
    print(f"partition quality (aggregate excess-cost bound): {quality.aggregate:.5f}")
    print(f"higher-order calibration proxy (weighted W1): {aggregate_wasserstein(model, data.test):.5f}")
    write_manifest(
        out_dir / "manifest.json",
        command="run_synthetic_experiment",
        args=vars(args),
        outputs=outputs,
        seed=args.seed,
    )


if __name__ == "__main__":
    main()
