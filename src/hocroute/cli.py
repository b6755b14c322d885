"""Command-line surface tying calibrate -> route -> evaluate together."""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack
from dataclasses import replace
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import baselines, evaluation, storage
from .calibrator import aggregate_wasserstein, calibrate, wasserstein_error
from .core import InvalidInputError, RoutingConfig, UnsupportedDiagnosticError, UnsupportedLossError
from .diagnostics import check_entropy_lipschitz, check_loss_lipschitz, run_lemma_checks
from .losses import CROSS_ENTROPY, KINDS, LossSpec
from .partition import assign_rows, fit, partition_quality
from .router import OracleSpec, Router
from .synthetic import KINDS as SYNTH_KINDS
from .synthetic import generate

# Query lines that ``route`` reads, validates, assigns and writes together.
# Input from a terminal goes one line at a time, so each query is answered
# as it is typed.
ROUTE_CHUNK_LINES = 2048


def _parameter(convert, value: str, flag: str, text: str):
    """``convert(value)`` for a parameter in the text of ``flag``; a value it
    refuses fails with ``InvalidInputError`` naming the flag and its text."""
    try:
        return convert(value)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise InvalidInputError(f"{flag} {text!r}: {value!r} is not {kind}") from None


def parse_loss(text: str) -> LossSpec:
    """``brier`` | ``crossentropy[:eps]`` | ``weighted_fp_fn:CFP:CFN`` |
    ``asymmetric_class:GAMMA`` | ``classification`` | ``three_part``"""
    parts = text.split(":")
    kind = parts[0]
    if kind not in KINDS:
        raise InvalidInputError(f"unknown loss {kind!r}; choose from {KINDS}")
    if kind == CROSS_ENTROPY and len(parts) == 2:
        return LossSpec(kind, epsilon=_parameter(float, parts[1], "--loss", text))
    if kind == "weighted_fp_fn" and len(parts) == 3:
        c_fp, c_fn = (_parameter(float, v, "--loss", text) for v in parts[1:])
        return LossSpec(kind, c_fp=c_fp, c_fn=c_fn)
    if kind == "asymmetric_class" and len(parts) == 2:
        return LossSpec(kind, gamma=_parameter(float, parts[1], "--loss", text))
    if len(parts) > 1:
        raise InvalidInputError(f"unexpected parameters for loss {kind!r}: {text!r}")
    return LossSpec(kind)


def parse_partition(text: str):
    """``topclass:BUCKETS`` | ``feature:BUCKETS[:INDEX]`` | ``levelset``"""
    parts = text.split(":")
    kind = parts[0]
    if len(parts) > {"levelset": 1, "topclass": 2, "feature": 3}.get(kind, len(parts)):
        raise InvalidInputError(f"unexpected parameters for partition {kind!r}: {text!r}")
    if kind == "levelset":
        return {"kind": kind}
    if kind in ("topclass", "feature") and len(parts) >= 2:
        spec = {"kind": kind, "buckets": _parameter(int, parts[1], "--partition", text)}
        if kind == "feature":
            spec["feature_index"] = _parameter(int, parts[2], "--partition", text) if len(parts) > 2 else 0
        return spec
    raise InvalidInputError(f"bad partition spec {text!r}")


def parse_beta(text: str) -> float:
    return _parameter(float, text, "--beta", text)


def parse_oracle(text: str) -> OracleSpec:
    """``bayes`` | ``aggregated:ANNOTATORS:mean|majority``"""
    parts = text.split(":")
    if parts[0] == "bayes" and len(parts) == 1:
        return OracleSpec(kind="bayes")
    if parts[0] == "aggregated" and len(parts) == 3:
        annotators = _parameter(int, parts[1], "--oracle", text)
        return OracleSpec(kind="aggregated", num_annotators=annotators, aggregation=parts[2])
    raise InvalidInputError(f"bad oracle spec {text!r}")


MAX_GRID_POINTS = 100_000


def parse_grid(text: str) -> list[float]:
    """Inclusive ``lo:hi:step`` grid (endpoints within half a step) of at
    most ``MAX_GRID_POINTS`` values, repeats dropped: a step lost to rounding
    against ``lo`` adds no value."""
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise InvalidInputError(f"bad grid {text!r}, expected lo:hi:step") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise InvalidInputError(f"--beta {text!r}: lo, hi and step must be finite")
    if step <= 0 or hi < lo:
        raise InvalidInputError(f"bad grid {text!r}: need step > 0 and hi >= lo")
    points = (hi - lo) / step + 1
    if points > MAX_GRID_POINTS:
        raise InvalidInputError(f"--beta {text!r}: {points:,.0f} points, more than {MAX_GRID_POINTS:,}")
    return list(dict.fromkeys(lo + i * step for i in range(math.floor(points + 0.5))))


def _write_manifest(args: argparse.Namespace, inputs=(), outputs=(), fallback: str | Path | None = None) -> None:
    """Record the run at ``--manifest``, else ``<--out>.manifest.json``, else
    ``fallback``, else ``<command>.manifest.json``; paths that are None are left out."""
    out = getattr(args, "out", None)
    storage.write_manifest(
        args.manifest or (out and f"{out}.manifest.json") or fallback or f"{args.command}.manifest.json",
        command=args.command,
        args={k: v for k, v in vars(args).items() if k != "func"},
        inputs=[p for p in inputs if p],
        outputs=[p for p in outputs if p],
        seed=getattr(args, "seed", None),
    )


def _require_non_negative(**values: int) -> None:
    """Refuse a negative value of the integer flags named by the keywords."""
    for name, value in values.items():
        if value < 0:
            raise InvalidInputError(f"--{name} {value}: must be >= 0")


def _require_files(*paths: str) -> None:
    missing = [p for p in paths if p and not Path(p).exists()]
    if missing:
        raise InvalidInputError(f"input file(s) not found: {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_generate_synthetic(args: argparse.Namespace) -> int:
    _require_non_negative(seed=args.seed)
    data = generate(
        args.kind,
        sizes=(args.train, args.cal, args.test),
        k=args.k,
        seed=args.seed,
        weak_bins=args.weak_bins,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cal_path = out_dir / "calibration.jsonl"
    test_path = out_dir / "test.jsonl"
    storage.write_dataset(cal_path, data.calibration)
    storage.write_dataset(test_path, data.test)
    _write_manifest(args, outputs=(cal_path, test_path), fallback=out_dir / "manifest.json")
    print(f"wrote {cal_path} ({len(data.calibration)} records) and {test_path} ({len(data.test)} records)")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    _require_files(args.input)
    examples = storage.ingest(args.input)
    part = parse_partition(args.partition)
    spec = fit(
        part["kind"],
        examples,
        buckets=part.get("buckets", 1),
        feature_index=part.get("feature_index", 0),
    )
    model = calibrate(spec, examples, recalibrate=args.recalibrate)
    storage.save_model(args.out, model)
    _write_manifest(args, inputs=(args.input,), outputs=(args.out,))
    print(f"calibrated {len(examples)} examples into {len(model.mixtures)} bins -> {args.out}")
    return 0


def _decision_suffix(bin_id: str, decision) -> str:
    """A decision line after its id: ``json.dumps`` of the whole record,
    whose key order puts ``id`` first, ends with exactly this text. An action
    whose estimated cost is infinite (switched off) can never win and is left
    out of ``est_costs``, so the line is strict JSON."""
    costs = {action: cost for action, cost in decision.est_costs.items() if not math.isinf(cost)}
    fields = json.dumps({"bin": bin_id, "action": decision.action, "est_costs": costs}, allow_nan=False)
    return ", " + fields[1:] + "\n"


def cmd_route(args: argparse.Namespace) -> int:
    _require_files(args.model, args.input or "")
    model = storage.load_model(args.model)
    config = RoutingConfig(
        loss=parse_loss(args.loss),
        route_penalties=tuple(args.alpha),
        abstain_penalty=parse_beta(args.beta),
    )
    oracles = [parse_oracle(o) for o in args.oracle] if args.oracle else None
    router = Router(model, config, oracles)
    suffixes: dict[str, str] = {}  # bin id -> serialized decision, made at the bin's first query

    def route_lines(lines: list[str], first_lineno: int) -> None:
        try:
            "".join(lines).encode()
        except UnicodeEncodeError:
            raise InvalidInputError(f"{args.input or '<stdin>'}: line {first_lineno}: not UTF-8 text") from None
        batch = storage.parse_queries(lines, model.num_classes, first_lineno, model.partition.features_needed)
        if not batch.ids:
            return
        bins, index = assign_rows(model.partition, batch.probs, batch.features)
        for b in bins:
            if b not in suffixes:
                suffixes[b] = _decision_suffix(b, router.decide_bin(b))
        row_suffixes = [suffixes[b] for b in bins]
        # encode_basestring_ascii is what json.dumps does with a str
        out_stream.write(
            "".join(
                [
                    '{"id": ' + encode_basestring_ascii(qid) + row_suffixes[i]
                    for qid, i in zip(batch.ids, index.tolist())
                ]
            )
        )

    with ExitStack() as opened:  # an --out that cannot be opened still closes --in
        # A byte that is not UTF-8 is read as a lone surrogate, so it fails on its
        # own line below, after the decisions of the lines before it are written.
        in_stream = sys.stdin
        if args.input:
            in_stream = opened.enter_context(open(args.input, encoding="utf-8", errors="surrogateescape"))
        elif hasattr(in_stream, "reconfigure"):
            in_stream.reconfigure(errors="surrogateescape")
        out_stream = opened.enter_context(open(args.out, "w", encoding="utf-8")) if args.out else sys.stdout
        chunk_lines = 1 if in_stream.isatty() else ROUTE_CHUNK_LINES
        lineno = 1
        while lines := list(islice(in_stream, chunk_lines)):
            try:
                route_lines(lines, lineno)
            except InvalidInputError:
                # Write the decisions of the lines before the bad one, then fail on it.
                for offset, line in enumerate(lines):
                    route_lines([line], lineno + offset)
                raise
            lineno += len(lines)
    _write_manifest(args, inputs=(args.model, args.input), outputs=(args.out,))
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    _require_non_negative(seed=args.seed)
    _require_files(args.model, args.test)
    model = storage.load_model(args.model)
    if args.raw_predictions:  # serve the raw weak predictions; the estimates still read the mixtures
        model = replace(model, recalibrated=False)
    test = storage.ingest(args.test)
    loss = parse_loss(args.loss)
    external: dict[str, dict[str, float]] = {}
    for label_path in args.scores:
        name, _, path = label_path.partition("=")
        if not name or not path:
            raise InvalidInputError("external scores need NAME=PATH")
        if name in external:
            raise InvalidInputError(f"curve name {name!r} given twice")
        _require_files(path)
        external[name] = storage.read_scores_csv(path)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    curves = evaluation.routing_curves(model, test, loss, policies, external, args.seed)
    storage.write_curves_csv(args.out, curves)
    _write_manifest(args, inputs=(args.model, args.test), outputs=(args.out,))
    print(f"wrote {len(curves)} curves -> {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _require_files(args.model, args.test)
    loss, betas = parse_loss(args.loss), parse_grid(args.beta)
    model = storage.load_model(args.model)
    if args.raw_predictions:  # serve the raw weak predictions; the estimates still read the mixtures
        model = replace(model, recalibrated=False)
    test = storage.ingest(args.test)
    sweep = evaluation.cost_sweep(model, test, loss, alpha=args.alpha, betas=betas)
    storage.write_sweep_csv(args.out, sweep)
    _write_manifest(args, inputs=(args.model, args.test), outputs=(args.out,))
    print(f"wrote {sweep.betas.size * len(sweep.mean_costs)} sweep rows -> {args.out}")
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    _require_non_negative(seed=args.seed, trials=args.trials)
    for given, missing in (("model", "test"), ("test", "model")):
        if getattr(args, given) and not getattr(args, missing):
            raise InvalidInputError(f"diagnose --{given} needs --{missing}")
    _require_files(args.model, args.test)
    report: dict = {}
    failed = False
    if args.self_test:
        results = [r.to_record() for r in run_lemma_checks(seed=args.seed, trials=args.trials)]
        failed = any(not r["passed"] for r in results)
        report["self_test"] = results
    if args.model:
        model = storage.load_model(args.model)
        test = storage.ingest(args.test)
        baselines.check_split(test, model)
        loss = parse_loss(args.loss)
        quality = partition_quality(model.partition, test, loss)
        report["partition_quality"] = {
            "per_bin": quality.per_bin,
            "aggregate": quality.aggregate,
            "empty_bins": quality.empty_bins,
        }
        try:
            report["wasserstein"] = {
                "per_bin": wasserstein_error(model, test),
                "weighted_mean": aggregate_wasserstein(model, test),
            }
        except UnsupportedDiagnosticError as err:
            report["wasserstein"] = {"skipped": str(err)}
        rng = np.random.default_rng(args.seed)
        spots = [
            check_loss_lipschitz(loss, model.num_classes, 5000, rng),
            check_entropy_lipschitz(loss, model.num_classes, 5000, rng),
        ]
        report["lipschitz_spot_check"] = [r.to_record() for r in spots]
        failed = failed or any(not r.passed for r in spots)
    elif not args.self_test:
        raise InvalidInputError("diagnose needs --self-test and/or --model with --test")
    print(json.dumps(storage.json_value(report), indent=2, sort_keys=True, allow_nan=False))
    _write_manifest(args, inputs=(args.model, args.test))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hocroute",
        description="Uncertainty-aware predict/route/abstain decisions from snapshot-calibrated predictors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-synthetic", help="write a synthetic snapshot dataset")
    p.add_argument("--kind", choices=SYNTH_KINDS, default="sinusoidal")
    p.add_argument("--train", type=int, default=10_000)
    p.add_argument("--cal", type=int, default=5_000)
    p.add_argument("--test", type=int, default=100_000)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weak-bins", type=int, default=50)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_generate_synthetic)

    p = sub.add_parser("calibrate", help="fit a partition and store per-bin mixtures")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--partition", default="topclass:10")
    p.add_argument("--recalibrate", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("route", help="stream decisions for JSONL queries")
    p.add_argument("--model", required=True)
    p.add_argument("--loss", default="brier")
    p.add_argument("--alpha", type=float, nargs="+", default=[0.05])
    p.add_argument("--beta", default="inf")
    p.add_argument("--oracle", action="append", default=[], metavar="SPEC",
                   help="one per --alpha value: bayes | aggregated:K:mean|majority")
    p.add_argument("--in", dest="input")
    p.add_argument("--out")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("curve", help="write routing curves as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--loss", default="brier")
    p.add_argument("--policies", default=",".join(evaluation.CURVE_POLICIES))
    p.add_argument("--scores", action="append", default=[], metavar="NAME=PATH")
    p.add_argument("--raw-predictions", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("sweep", help="three-way vs two-way cost sweep over abstention penalties")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--loss", default="brier")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--beta", required=True, help=f"grid lo:hi:step of at most {MAX_GRID_POINTS:,} points")
    p.add_argument("--raw-predictions", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="calibration diagnostics and the self-test suite")
    p.add_argument("--model")
    p.add_argument("--test")
    p.add_argument("--loss", default="brier")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--trials", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_diagnose)

    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidInputError, UnsupportedLossError, UnsupportedDiagnosticError, OSError) as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}, allow_nan=False), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
