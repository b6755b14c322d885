"""The three benchmark workloads.

Each drives the program only from outside: through ``hocroute.cli.cli_dispatch``
and the public functions of its modules, looked up on the module at call
time so the tracer can wrap them. A workload is run as repeated *passes*;
one pass is the unit a user repeats (a stream routed, a router served
from load to last query, one run of the README pipeline). Every call into
the program inside a pass is one latency sample.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import inputs
from spans import clock
from hocroute import cli, router, storage
from hocroute.core import RoutingConfig


def run_cli(argv: list[str]) -> int:
    """``hocroute ARGV`` in-process; the commands' progress lines are dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.cli_dispatch([str(a) for a in argv])


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


class _RoutingWorkload:
    """Shared parts of the two routing workloads: a model calibrated from
    seeded snapshot data, a fixed routing configuration, and per-query
    checks against a numpy recomputation of the bins."""

    # How a call's cost is read from its times over the passes, "fastest"
    # or "mean"; see run.measure and bench/README.md.
    call_cost = "fastest"
    classes: int
    loss: str
    alphas: tuple[float, ...]
    beta: float
    oracles: tuple[str, ...]

    def _configure(self, model_path: Path, probs: np.ndarray) -> None:
        self.model_path = model_path
        self.config = RoutingConfig(loss=cli.parse_loss(self.loss), route_penalties=self.alphas, abstain_penalty=self.beta)
        self.oracle_specs = [cli.parse_oracle(o) for o in self.oracles]
        payload = json.loads(model_path.read_text())
        self.bins_with_data = {b for b, m in payload["bins"].items() if m["preds"]}
        reference_model = storage.load_model(model_path)
        self.checker = checks.DecisionCheck(
            ids=[f"q-{i:06d}" for i in range(probs.shape[0])],
            bins=checks.expected_bins(probs, payload["partition"]["class_edges"]),
            reference=lambda b: router.simulated_costs(reference_model, b, self.config, self.oracle_specs),
        )

    def cli_args(self) -> list[str]:
        args = ["--loss", self.loss, "--alpha", *map(repr, self.alphas), "--beta", repr(self.beta)]
        for spec in self.oracles:
            args += ["--oracle", spec]
        return args

    def set_up(self) -> float:
        """Seconds to load the model and build a router from it."""
        t0 = clock()
        model = storage.load_model(self.model_path)
        router.Router(model, self.config, self.oracle_specs)
        return clock() - t0

    @property
    def problems(self) -> Counter:
        """Failed checks so far, by reason."""
        return self.checker.problems

    def _check(self, decisions) -> tuple[int, int]:
        """(attempted, failed) for one pass; fills ``self.counts``, named
        as the per-layer metrics they become."""
        actions: Counter = Counter()
        bin_hits: Counter = Counter()

        def tallied():
            for record in decisions:
                actions[record[2].split(":")[0]] += 1
                bin_hits[record[1]] += 1
                yield record

        failed = self.checker.check(tallied())
        attempted = len(self.checker.ids)
        self.counts = {
            "router.queries_attempted": attempted,
            "router.queries_served": sum(actions.values()),
            "partition.bins_hit": len(bin_hits),
            "partition.fallback_queries": sum(n for b, n in bin_hits.items() if b not in self.bins_with_data),
            **{f"router.actions.{a}": actions.get(a, 0) for a in ("predict", "route", "abstain")},
            "storage.model_bytes": self.model_path.stat().st_size,
        }
        return attempted, failed


class RouteStream(_RoutingWorkload):
    """``hocroute route --in/--out`` over a seeded binary query stream.

    Per-query overhead of the CLI path: parse, validate, assign, cached
    decision, serialize. Twenty bins, so nearly every query is a cache hit.
    """

    name = "route_stream"
    call_cost = "mean"  # commands of 0.3 s and more, each spanning many spells
    classes = 2
    loss = "brier"
    alphas = (0.05,)
    beta = 0.3
    oracles = ("bayes",)
    CAL_ROWS, LABELS, BUCKETS = 5_000, 100, 10
    QUERIES, CHUNK = 100_000, 10_000

    def prepare(self, work: Path, rng: np.random.Generator) -> dict:
        cal, model = work / "cal.jsonl", work / "model.json"
        inputs.binary_dataset(cal, rng, self.CAL_ROWS, self.LABELS, "cal", p_star=False)
        if run_cli(["calibrate", "--in", cal, "--partition", f"topclass:{self.BUCKETS}", "--recalibrate", "--out", model]):
            raise RuntimeError("calibrate failed while preparing the route_stream model")
        lines, probs = inputs.query_lines(rng, self.QUERIES, self.classes)
        self.chunks = []
        for start in range(0, self.QUERIES, self.CHUNK):
            path = work / f"queries-{start // self.CHUNK:02d}.jsonl"
            path.write_text("".join(lines[start : start + self.CHUNK]))
            self.chunks.append(path)
        self.outputs = [work / f"decisions-{i:02d}.jsonl" for i in range(len(self.chunks))]
        self._configure(model, probs)
        return {
            "calibration_rows": self.CAL_ROWS,
            "labels_per_row": self.LABELS,
            "partition": f"topclass:{self.BUCKETS}",
            "queries_per_pass": self.QUERIES,
            "queries_per_command": self.CHUNK,
        }

    def run_pass(self) -> tuple[list[float], int]:
        latencies = []
        args = ["route", "--model", self.model_path, *self.cli_args()]
        for chunk, out in zip(self.chunks, self.outputs):
            t0 = clock()
            run_cli([*args, "--in", chunk, "--out", out])
            latencies.append(clock() - t0)
        return latencies, self.QUERIES

    def check_pass(self) -> tuple[int, int]:
        existing = [p for p in self.outputs if p.exists()]
        result = self._check(checks.decision_lines(existing))
        self.digests = {"decisions": sha256_files(existing), "model": sha256_files([self.model_path])}
        for path in existing:
            path.unlink()
        return result

    def decode_lines(self) -> float:
        """Seconds of ``json.loads`` over one pass's query lines."""
        lines = [line for path in self.chunks for line in path.read_text().splitlines()]
        t0 = clock()
        for line in lines:
            json.loads(line)
        return clock() - t0


class RoutePool(_RoutingWorkload):
    """The embedded library path with an oracle pool.

    Each query is ``storage.parse_query`` then ``Router.decide``, timed one
    call at a time. About 200 bins per 50k queries: the Monte Carlo oracle
    makes each bin's first (cold) decision far slower than a cached one,
    so the median is a warm call and the tail a cold one.
    """

    name = "route_pool"
    classes = 10
    loss = "crossentropy"
    alphas = (0.3, 0.1)
    beta = 1.5
    oracles = ("bayes", "aggregated:5:majority")
    CAL_ROWS, LABELS, BUCKETS = 10_000, 5, 20
    QUERIES = 50_000

    def prepare(self, work: Path, rng: np.random.Generator) -> dict:
        cal, model = work / "cal.jsonl", work / "model.json"
        inputs.multiclass_dataset(cal, rng, self.CAL_ROWS, self.classes, self.LABELS)
        if run_cli(["calibrate", "--in", cal, "--partition", f"topclass:{self.BUCKETS}", "--out", model]):
            raise RuntimeError("calibrate failed while preparing the route_pool model")
        self.lines, probs = inputs.query_lines(rng, self.QUERIES, self.classes)
        self._configure(model, probs)
        self.decisions: list = []
        return {
            "classes": self.classes,
            "calibration_rows": self.CAL_ROWS,
            "labels_per_row": self.LABELS,
            "partition": f"topclass:{self.BUCKETS}",
            "bins_fitted": len(self.bins_with_data),
            "queries_per_pass": self.QUERIES,
        }

    def run_pass(self) -> tuple[list[float], int]:
        model = storage.load_model(self.model_path)
        served = router.Router(model, self.config, self.oracle_specs)
        latencies = []
        decisions = []
        for lineno, line in enumerate(self.lines, start=1):
            t0 = clock()
            try:
                query = storage.parse_query(line, self.classes, lineno)
                bin_id, decision = served.decide(query)
            except ValueError:  # the program's input and loss errors
                latencies.append(clock() - t0)
                decisions.append(None)
                continue
            latencies.append(clock() - t0)
            decisions.append((query.id, bin_id, decision))
        self.decisions = decisions
        return latencies, self.QUERIES

    def check_pass(self) -> tuple[int, int]:
        records = [("", "", "", {}) if r is None else (r[0], r[1], r[2].action, r[2].est_costs) for r in self.decisions]
        self.decisions = []
        stream = hashlib.sha256()
        for qid, b, action, costs in records:
            stream.update((json.dumps({"id": qid, "bin": b, "action": action, "est_costs": costs}) + "\n").encode())
        self.digests = {"decisions": stream.hexdigest(), "model": sha256_files([self.model_path])}
        return self._check(records)

    def decode_lines(self) -> float:
        t0 = clock()
        for line in self.lines:
            json.loads(line)
        return clock() - t0


class PipelineCli:
    """The README walkthrough, in-process: generate-synthetic -> calibrate
    -> curve -> sweep. Calibrate, curve and sweep read the benchmark's own
    binary files; generate-synthetic writes to a throwaway directory."""

    name = "pipeline_cli"
    call_cost = "mean"  # four different commands, each spanning many spells
    CAL_ROWS, TEST_ROWS, LABELS = 2_000, 5_000, 100
    GENERATE = {"train": 2_000, "cal": 1_000, "test": 2_000, "k": 100}
    COMMANDS = ("generate-synthetic", "calibrate", "curve", "sweep")
    PARTITION = "topclass:10"
    POLICIES = ("hoc_router", "total_uncertainty", "bucket_optimal", "pointwise_optimal")
    GRID_POINTS = 101
    BETAS = "0.1:0.8:0.05"
    SWEEP_ROWS = 3 * 15  # three policies at each of the 15 betas

    def prepare(self, work: Path, rng: np.random.Generator) -> dict:
        self.seed = int(rng.integers(2**31))
        self.cal, self.test = work / "cal.jsonl", work / "test.jsonl"
        inputs.binary_dataset(self.cal, rng, self.CAL_ROWS, self.LABELS, "cal", p_star=False)
        inputs.binary_dataset(self.test, rng, self.TEST_ROWS, self.LABELS, "test", p_star=True)
        self.model = work / "model.json"
        self.curves, self.sweep, self.generated = work / "curves.csv", work / "sweep.csv", work / "generated"
        if self._calibrate():
            raise RuntimeError("calibrate failed while preparing the pipeline_cli model")
        # Each pass's check removes the model it made; set-ups load this copy.
        self.setup_model = shutil.copyfile(self.model, work / "setup-model.json")
        self.problems: Counter = Counter()
        return {
            "calibration_rows": self.CAL_ROWS,
            "test_rows": self.TEST_ROWS,
            "labels_per_row": self.LABELS,
            "generate_synthetic": self.GENERATE,
            "partition": self.PARTITION,
            "curve_policies": len(self.POLICIES),
            "sweep_betas": self.BETAS,
        }

    def _calibrate(self) -> int:
        return run_cli(["calibrate", "--in", self.cal, "--partition", self.PARTITION, "--recalibrate", "--out", self.model])

    def set_up(self) -> float:
        """Seconds to load the model, as curve and sweep each do first."""
        t0 = clock()
        storage.load_model(self.setup_model)
        return clock() - t0

    def run_pass(self) -> tuple[list[float], int]:
        gen = self.GENERATE
        commands = [
            lambda: run_cli([
                "generate-synthetic", "--kind", "sinusoidal", "--out-dir", self.generated,
                "--train", gen["train"], "--cal", gen["cal"], "--test", gen["test"], "--k", gen["k"],
                "--seed", self.seed,
            ]),
            self._calibrate,
            lambda: run_cli(["curve", "--model", self.model, "--test", self.test, "--loss", "brier", "--out", self.curves]),
            lambda: run_cli([
                "sweep", "--model", self.model, "--test", self.test, "--loss", "brier",
                "--alpha", "0.05", "--beta", self.BETAS, "--out", self.sweep,
            ]),
        ]
        latencies = []
        self.return_codes = []
        for command in commands:
            t0 = clock()
            self.return_codes.append(command())
            latencies.append(clock() - t0)
        return latencies, self.TEST_ROWS

    def check_pass(self) -> tuple[int, int]:
        """(commands attempted, commands failed) for the last pass."""
        problems = {c: [f"exit code {rc}"] if rc else [] for c, rc in zip(self.COMMANDS, self.return_codes)}
        for name, split in (("calibration.jsonl", "cal"), ("test.jsonl", "test")):
            path = self.generated / name
            if not path.exists() or checks.count_lines(path) != self.GENERATE[split]:
                problems["generate-synthetic"].append(f"{name} row count")
        if not self.model.exists():
            problems["calibrate"].append("no model file")
        problems["curve"] += (
            checks.check_curves(self.curves, self.POLICIES, self.GRID_POINTS) if self.curves.exists() else ["no file"]
        )
        problems["sweep"] += checks.check_sweep(self.sweep, self.SWEEP_ROWS) if self.sweep.exists() else ["no file"]
        self.problems.update(f"{c}: {p}" for c, ps in problems.items() for p in ps)
        outputs = {"model": self.model, "curves": self.curves, "sweep": self.sweep}
        outputs = {k: p for k, p in outputs.items() if p.exists()}
        self.digests = {k: sha256_files([p]) for k, p in outputs.items()}
        self.counts = {"storage.model_bytes": self.model.stat().st_size if self.model.exists() else 0}
        for path in outputs.values():
            path.unlink()  # a failed command must not leave an old output that passes
        return len(problems), sum(1 for ps in problems.values() if ps)

    def decode_lines(self) -> float:
        """Seconds of ``json.loads`` over the dataset lines one pass ingests:
        the calibration file once (calibrate), the test file twice (curve,
        sweep)."""
        lines = self.cal.read_text().splitlines() + 2 * self.test.read_text().splitlines()
        t0 = clock()
        for line in lines:
            json.loads(line)
        return clock() - t0

    def loss_kernels(self) -> dict[str, float]:
        """Direct calls of the loss kernels on the pipeline's truth and
        deployed arrays (brier): median seconds of five calls, and rows."""
        from hocroute import losses

        self._calibrate()  # each pass's check removes the model it made
        test = storage.ingest(self.test)
        model = storage.load_model(self.model)
        truth = np.stack([e.p_star.probs for e in test])
        deployed = model.deployed_matrix(test)
        loss = cli.parse_loss("brier")

        def timed(fn, *args) -> float:
            samples = []
            for _ in range(5):
                t0 = clock()
                fn(loss, *args)
                samples.append(clock() - t0)
            return float(np.median(samples))

        return {
            "losses.expected_loss_batch_s": timed(losses.expected_loss_batch, truth, deployed),
            "losses.entropy_batch_s": timed(losses.entropy_batch, truth),
            "losses.expected_loss_batch_rows": truth.shape[0],
            "losses.entropy_batch_rows": truth.shape[0],
        }


WORKLOADS = {w.name: w for w in (RouteStream, RoutePool, PipelineCli)}
