"""hocroute benchmark: one workload per run, in a fresh single-threaded process.

    python3 bench/run.py --workload route_stream --seed 1 --seconds 20 --trace 0

Runs the program from ``src/`` of the checkout this file sits in. With
``--trace 0`` it times the workload and reports the end-to-end metrics;
with ``--trace 1`` it records spans around calls into the program's
modules and reports per-layer metrics instead. Outputs are checked on
every pass. The full report goes to stdout as one JSON line; the last line
is the result summary. See bench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one caller, no helper threads

import argparse
import contextlib
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer, clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Never used while the benchmark or a change was tuned; rerun a claim on it.
HELD_OUT_SEED = 917_203

# Set-ups timed before each untraced pass; setup_s is the median over
# them, each read over the passes as the workload's calls are.
SETUP_REPS = 3

# With many short calls per pass, call_p50_ms is the lowest median over
# windows of this many consecutive calls.
P50_WINDOW = 1000

END_TO_END = {
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Spans: metric prefix -> (module, attribute or Class.method).
TRACED = {
    "cli.generate": ("cli", "cmd_generate_synthetic"),
    "cli.calibrate": ("cli", "cmd_calibrate"),
    "cli.route": ("cli", "cmd_route"),
    "cli.curve": ("cli", "cmd_curve"),
    "cli.sweep": ("cli", "cmd_sweep"),
    "cli.serialize": ("cli", "json.dumps"),
    "storage.ingest": ("storage", "ingest"),
    "storage.parse_query": ("storage", "parse_query"),
    "storage.write_dataset": ("storage", "write_dataset"),
    "storage.load_model": ("storage", "load_model"),
    "storage.save_model": ("storage", "save_model"),
    "storage.write_curves_csv": ("storage", "write_curves_csv"),
    "storage.write_sweep_csv": ("storage", "write_sweep_csv"),
    "storage.write_manifest": ("storage", "write_manifest"),
    "synthetic.generate": ("synthetic", "generate"),
    "partition.fit": ("partition", "fit"),
    "partition.assign": ("partition", "assign"),
    "partition.assign_many": ("partition", "assign_many"),
    "calibrator.calibrate": ("calibrator", "calibrate"),
    "calibrator.estimate_decomposition": ("calibrator", "estimate_decomposition"),
    "router.Router.decide": ("router", "Router.decide"),
    "router.decide": ("router", "decide"),
    "router.oracle_cost": ("router", "OracleSpec.mean_cost"),
    "baselines.total_uncertainty": ("baselines", "total_uncertainty_scores"),
    "baselines.bucket_optimal": ("baselines", "bucket_optimal_scores"),
    "baselines.pointwise_optimal": ("baselines", "pointwise_optimal_scores"),
    "evaluation.router_scores": ("evaluation", "router_scores"),
    "evaluation.routing_curve": ("evaluation", "routing_curve"),
    "evaluation.cost_sweep": ("evaluation", "cost_sweep"),
}
MODULES = ("cli", "storage", "synthetic", "partition", "calibrator", "router", "baselines", "evaluation")

# Per-layer metric -> unit; seconds are per traced pass unless noted.
PER_LAYER = {
    "storage.json_decode_s": "s",
    "storage.parse_query_s": "s",
    "storage.ingest_s": "s",
    "storage.write_dataset_s": "s",
    "storage.write_csv_s": "s",
    "storage.load_model_s": "s",
    "storage.model_bytes": "B",
    "cli.serialize_s": "s",
    "cli.route_s": "s",
    "cli.generate_s": "s",
    "cli.calibrate_s": "s",
    "cli.curve_s": "s",
    "cli.sweep_s": "s",
    "synthetic.generate_s": "s",
    "partition.assign_s": "s",
    "partition.fit_s": "s",
    "partition.assign_many_s": "s",
    "partition.bins_hit": "count",
    "partition.fallback_queries": "count",
    "calibrator.calibrate_s": "s",
    "calibrator.estimate_decomposition_s": "s",
    "router.decide_cold_s": "s",
    "router.decide_warm_s": "s",
    "router.oracle_cost_s": "s",
    "router.decisions_computed": "count",
    "router.queries_attempted": "count",
    "router.queries_served": "count",
    "router.actions.predict": "count",
    "router.actions.route": "count",
    "router.actions.abstain": "count",
    "losses.expected_loss_batch_s": "s",
    "losses.expected_loss_batch_rows": "count",
    "losses.entropy_batch_s": "s",
    "losses.entropy_batch_rows": "count",
    "baselines.total_uncertainty_s": "s",
    "baselines.bucket_optimal_s": "s",
    "baselines.pointwise_optimal_s": "s",
    "evaluation.router_scores_s": "s",
    "evaluation.routing_curve_s": "s",
    "evaluation.cost_sweep_s": "s",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _load_program() -> None:
    """Import ``hocroute`` from this checkout's ``src``, or exit non-zero."""
    if not (SRC / "hocroute" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'hocroute'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hocroute

    if Path(hocroute.__file__).resolve().parent != (SRC / "hocroute").resolve():
        sys.exit(f"bench: imported hocroute from {hocroute.__file__}, not from {SRC}")


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(numpy_version: str) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "hocroute").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it. With 20 samples or fewer that percentile
    would not lie above the median, so the tail is the slowest sample."""
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 11 if n > 20 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


def _traced_functions() -> dict:
    """TRACED resolved to ``name -> (owner, attribute)`` for ``Tracer.instrument``."""
    out = {}
    for name, (module, attr) in TRACED.items():
        owner = importlib.import_module(f"hocroute.{module}")
        head, _, rest = attr.partition(".")
        if rest and isinstance(getattr(owner, head), type):  # Class.method
            owner, attr = getattr(owner, head), rest
        out[name] = (owner, attr)
    return out


def _layer_metrics(tracer: Tracer, lo: int, hi: int, workload) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of the traced pass made of spans ``[lo, hi)``,
    and its span table."""
    spans = tracer.summary(lo, hi)

    def total(*names: str) -> float:
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    values = {f"{name}_s": total(name) for name in TRACED if f"{name}_s" in PER_LAYER}
    values["storage.write_csv_s"] = total("storage.write_curves_csv", "storage.write_sweep_csv")
    values["router.decide_cold_s"], values["router.decide_warm_s"] = tracer.with_child(
        "router.Router.decide", "router.decide", lo, hi
    )
    values["router.decisions_computed"] = spans.get("router.decide", {}).get("calls", 0)
    for module in MODULES:
        values[f"{module}.self_s"] = sum(s["self_s"] for n, s in spans.items() if n.split(".")[0] == module)
    values["trace.spans"] = hi - lo
    values.update(workload.counts)
    return values, spans


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run passes until ``seconds`` of measured CPU time; check each pass.

    The end-to-end times are read per call over the passes (set-ups at
    their fastest); see bench/README.md.

    In a traced run the first pass is untraced and serves as the baseline
    for the tracing overhead; the per-layer figures are means over the
    traced passes that follow it.
    """
    setups: list[list[float]] = []
    attempted = failed = 0
    pass_calls: list[list[float]] = []
    cpus: list[float] = []
    walls: list[float] = []
    digests: list[dict] = []
    layer_passes: list[dict] = []
    tracer = Tracer() if trace else None
    functions = _traced_functions() if trace else {}
    while sum(cpus) < seconds or (trace and not layer_passes):
        traced = trace and bool(cpus)
        if not trace:
            setups.append([workload.set_up() for _ in range(SETUP_REPS)])
        lo = len(tracer) if traced else 0
        c0, w0 = clock(), perf_counter()
        with tracer.instrument(functions) if traced else contextlib.nullcontext():
            calls, done = workload.run_pass()
        cpus.append(clock() - c0)
        walls.append(perf_counter() - w0)
        pass_attempted, pass_failed = workload.check_pass()
        attempted += pass_attempted
        failed += pass_failed
        digests.append(workload.digests)
        if traced:
            values, table = _layer_metrics(tracer, lo, len(tracer), workload)
            values["storage.json_decode_s"] = workload.decode_lines()
            values["trace.overhead_s"] = cpus[-1] - cpus[0]
            layer_passes.append(values)
        else:
            pass_calls.append(calls)
            done_per_pass = done
    report = {
        "passes": len(cpus),
        "pass_cpu_s": cpus,
        "pass_wall_s": walls,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": dict(workload.problems),
        "setup_samples_s": setups,
        "counts": workload.counts,
        "digests": digests[0],
        "digests_same_every_pass": all(d == digests[0] for d in digests),
    }
    if trace:
        layers = {k: statistics.fmean(p[k] for p in layer_passes) for k in layer_passes[0]}
        layers.update(getattr(workload, "loss_kernels", dict)())
        report["spans"] = table
        report["metrics"] = {name: layers.get(name, 0) for name in PER_LAYER}
    else:
        # Every pass makes the same calls in the same order; each call's
        # cost is read from its times over the passes as the workload says.
        # A shared host can slow the benchmark's vCPU by up to 1.8 times in
        # spells of a tenth of a second to several seconds. A call far
        # shorter than a spell runs wholly at one speed, and its fastest
        # time is its cost on an undisturbed CPU; a call that spans many
        # spells averages them, and its mean over the passes is steadier.
        samples = np.array(pass_calls)
        fastest = workload.call_cost == "fastest"
        cost = samples.min(axis=0) if fastest else samples.mean(axis=0)
        if len(cost) >= 10 * P50_WINDOW:
            # A median over calls far shorter than a spell, fastest or mean,
            # flips with the share of the run the fast spells covered; read
            # it in the least disturbed stretch instead.
            p50 = min(
                np.median(calls[k : k + P50_WINDOW])
                for calls in pass_calls
                for k in range(0, len(calls) - P50_WINDOW + 1, P50_WINDOW)
            )
        else:
            p50 = np.median(cost)
        tail_value, tail_pct, tail_beyond = tail(cost.tolist())
        report["tail"] = {"percentile": tail_pct, "samples_beyond": tail_beyond, "samples": len(cost)}
        report["pass_ops_per_s"] = [done_per_pass / sum(calls) for calls in pass_calls]
        report["metrics"] = {
            "ops_per_s": done_per_pass / float(cost.sum()),
            "call_p50_ms": float(p50) * 1e3,
            "call_tail_ms": tail_value * 1e3,
            "setup_s": float(np.median(np.min(setups, axis=0) if fastest else np.mean(setups, axis=0))),
            "peak_rss_mb": _peak_rss_mb(),
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        sizes = workload.prepare(work, np.random.default_rng(args.seed))
        report = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = END_TO_END if not args.trace else PER_LAYER
    report.update(
        workload=args.workload,
        seed=args.seed,
        held_out_seed=HELD_OUT_SEED,
        seconds=args.seconds,
        trace=args.trace,
        sizes=sizes,
        environment=_environment(np.__version__),
    )
    print(json.dumps(report))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report.pop("metrics").items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
