"""The benchmark's own checks catch wrong outputs.

    python -m pytest bench/test_checks.py
"""

import json

import numpy as np
import pytest

import checks
import inputs
import run
import workloads
from hocroute import cli, router, storage
from hocroute.core import RoutingConfig

QUERIES = 300


@pytest.fixture(scope="module")
def routed(tmp_path_factory):
    """Decision lines from ``hocroute route`` and a factory of fresh checkers."""
    work = tmp_path_factory.mktemp("route")
    rng = np.random.default_rng(5)
    cal, model, queries, out = work / "cal.jsonl", work / "model.json", work / "q.jsonl", work / "d.jsonl"
    inputs.binary_dataset(cal, rng, 400, 20, "cal", p_star=False)
    assert cli.cli_dispatch(["calibrate", "--in", str(cal), "--partition", "topclass:4", "--recalibrate", "--out", str(model)]) == 0
    lines, probs = inputs.query_lines(rng, QUERIES, 2)
    queries.write_text("".join(lines))
    assert cli.cli_dispatch([
        "route", "--model", str(model), "--loss", "brier", "--alpha", "0.05", "--beta", "0.3",
        "--in", str(queries), "--out", str(out),
    ]) == 0
    class_edges = json.loads(model.read_text())["partition"]["class_edges"]
    loaded = storage.load_model(model)
    config = RoutingConfig(loss=cli.parse_loss("brier"), route_penalties=(0.05,), abstain_penalty=0.3)

    def checker():
        return checks.DecisionCheck(
            ids=[f"q-{i:06d}" for i in range(QUERIES)],
            bins=checks.expected_bins(probs, class_edges),
            reference=lambda b: router.simulated_costs(loaded, b, config),
        )

    return out.read_text().splitlines(keepends=True), checker, work


def _failed(lines, checker, work) -> tuple[int, dict]:
    path = work / "corrupted.jsonl"
    path.write_text("".join(lines))
    check = checker()
    return check.check(checks.decision_lines([path])), dict(check.problems)


def test_clean_decisions_pass(routed):
    lines, checker, work = routed
    assert _failed(lines, checker, work) == (0, {})


def _other_action(record):
    record["action"] = "predict" if record["action"] != "predict" else "abstain"


def _nudged_cost(record):
    record["est_costs"]["predict"] += 1e-12


def _other_bin(record):
    record["bin"] = "c0:b0" if record["bin"] != "c0:b0" else "c1:b0"


def _other_id(record):
    record["id"] = "q-999999"


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (_other_action, "argmin"),
        (_nudged_cost, "est_costs"),
        (_other_bin, "bin"),
        (_other_id, "id_order"),
    ],
)
def test_corrupted_decision_line_is_caught(routed, corrupt, reason):
    lines, checker, work = routed
    record = json.loads(lines[-1])
    corrupt(record)
    failed, problems = _failed(lines[:-1] + [json.dumps(record) + "\n"], checker, work)
    assert failed == 1
    assert reason in problems


def test_truncated_and_missing_lines_are_caught(routed):
    lines, checker, work = routed
    assert _failed(lines[:-1] + [lines[-1][:20] + "\n"], checker, work)[0] == 1
    failed, problems = _failed(lines[:-1], checker, work)
    assert failed == 1 and problems == {"missing_decision": 1}


def test_argmin_ties_follow_action_priority():
    assert checks.argmin_action({"predict": 0.1, "route:0": 0.1, "abstain": 0.1}) == "predict"
    assert checks.argmin_action({"abstain": 0.1, "route:1": 0.1, "route:0": 0.1}) == "route:0"
    assert checks.argmin_action({"predict": 0.2, "route:0": 0.3, "abstain": 0.1}) == "abstain"


def test_pipeline_csv_checks(tmp_path):
    curves = tmp_path / "curves.csv"
    rows = ["policy,loss,fraction,mean_loss"]
    for policy, first in (("a", 0.25), ("b", 0.25)):
        rows += [f"{policy},brier,0.0,{first}", f"{policy},brier,0.5,0.2", f"{policy},brier,1.0,0.1"]
    curves.write_text("\n".join(rows) + "\n")
    assert checks.check_curves(curves, ("a", "b"), 3) == []
    curves.write_text("\n".join(rows).replace("b,brier,0.0,0.25", "b,brier,0.0,0.26") + "\n")
    assert checks.check_curves(curves, ("a", "b"), 3)
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("alpha,beta,policy,mean_cost\n0.05,0.1,three_way,nan\n")
    assert checks.check_sweep(sweep, 1) == ["sweep has non-finite costs"]
    assert checks.check_sweep(sweep, 2)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([float(i) for i in range(20)]) == (19.0, 100.0, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
