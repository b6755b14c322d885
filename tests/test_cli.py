import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hocroute import cli
from hocroute.baselines import random_scores, total_uncertainty_scores
from hocroute.calibrator import calibrate
from hocroute.cli import MAX_GRID_POINTS, cli_dispatch, parse_grid, parse_loss, parse_partition
from hocroute.core import InvalidInputError, RoutingConfig, SnapshotBatch
from hocroute.baselines import BUCKET_OPTIMAL, RankedPolicy, pointwise_optimal_scores
from hocroute.evaluation import HOC_ROUTER, CostSweep, router_scores, routing_curve
from hocroute.partition import fit
from hocroute.router import OracleSpec, Router
from hocroute.storage import (
    header_path,
    ingest,
    load_model,
    parse_queries,
    parse_query,
    save_model,
    sha256_file,
    write_curves_csv,
    write_dataset,
    write_sweep_csv,
)

from conftest import make_example, simplex_arrays, three_classes, write_version_1
from test_grouping_reference import ref_bucket_optimal_scores, ref_router_scores
from test_sweep_reference import ref_cost_sweep


class TestArgumentParsing:
    def test_loss_syntax(self):
        assert parse_loss("brier").kind == "brier"
        assert parse_loss("crossentropy:1e-4").epsilon == 1e-4
        spec = parse_loss("weighted_fp_fn:2.0:0.5")
        assert (spec.c_fp, spec.c_fn) == (2.0, 0.5)
        assert parse_loss("asymmetric_class:3").gamma == 3.0
        with pytest.raises(InvalidInputError):
            parse_loss("hinge")
        with pytest.raises(InvalidInputError):
            parse_loss("brier:1.0")

    def test_partition_syntax(self):
        assert parse_partition("topclass:10") == {"kind": "topclass", "buckets": 10}
        assert parse_partition("feature:8:1") == {"kind": "feature", "buckets": 8, "feature_index": 1}
        assert parse_partition("levelset") == {"kind": "levelset"}
        with pytest.raises(InvalidInputError):
            parse_partition("topclass")
        for text in ("topclass:10:3", "feature:4:0:9", "levelset:7"):
            with pytest.raises(InvalidInputError, match=rf"^unexpected parameters for partition .*: {text!r}$"):
                parse_partition(text)

    def test_grid_arithmetic(self):
        grid = parse_grid("0.1:0.8:0.05")
        assert len(grid) == 15
        assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(0.8)
        assert grid == [0.1 + i * 0.05 for i in range(15)]
        assert parse_grid("0.5:0.5:0.1") == [0.5]
        with pytest.raises(InvalidInputError):
            parse_grid("1:0:0.1")
        with pytest.raises(InvalidInputError):
            parse_grid("nonsense")

    def test_grid_point_cap(self):
        assert len(parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS
        for text in (f"0:{MAX_GRID_POINTS}:1", "0:1:1e-12", "0:1:5e-324"):
            with pytest.raises(InvalidInputError, match=r"^--beta .*points, more than 100,000$"):
                parse_grid(text)

    @given(st.floats(-100, 100), st.floats(1e-3, 1), st.integers(0, 499), st.floats(-0.49, 0.49))
    def test_grid_equals_the_stepping_loop(self, lo, step, points, offset):
        """On grids whose values are distinct, the grid is the values the old
        loop stepped through, endpoints within half a step."""
        hi = lo + (points + offset) * step
        assume(hi >= lo)
        text = f"{lo!r}:{hi!r}:{step!r}"
        expected = ref_grid(text)
        assume(len(set(expected)) == len(expected))
        assert parse_grid(text) == expected

    def test_grid_whose_step_is_lost_to_rounding(self):
        assert parse_grid("1e20:1e20:1") == [1e20]
        assert parse_grid("1e300:1e300:1") == [1e300]
        # 1e16 + 1 rounds to 1e16 and 1e16 + 3 to 1e16 + 4: five steps, three values
        assert parse_grid("1e16:1.0000000000000004e16:1") == [1e16, 1e16 + 2, 1e16 + 4]


def ref_grid(text: str) -> list[float]:
    """The grid loop as it was: step from ``lo`` until past ``hi`` by more than
    half a step (which never ends when the step is lost to rounding)."""
    lo, hi, step = (float(v) for v in text.split(":"))
    values = []
    i = 0
    while True:
        v = lo + i * step
        if v > hi + step / 2.0:
            break
        values.append(v)
        i += 1
    return values


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """generate-synthetic -> calibrate, shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    rc = cli_dispatch(
        [
            "generate-synthetic", "--kind", "sinusoidal", "--train", "2000", "--cal", "1000",
            "--test", "1500", "--k", "20", "--seed", "4", "--out-dir", str(data_dir),
        ]
    )
    assert rc == 0
    model_path = root / "model.json"
    rc = cli_dispatch(
        [
            "calibrate", "--in", str(data_dir / "calibration.jsonl"), "--partition", "topclass:10",
            "--recalibrate", "--out", str(model_path),
        ]
    )
    assert rc == 0
    return root, data_dir, model_path


class TestPipeline:
    def test_generate_writes_dataset_and_manifest(self, workspace):
        _, data_dir, _ = workspace
        assert (data_dir / "calibration.jsonl").exists()
        assert (data_dir / "calibration.jsonl.header.json").exists()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        assert manifest["command"] == "generate-synthetic"
        assert manifest["seed"] == 4

    def test_calibrate_manifest_hashes_input(self, workspace):
        root, data_dir, model_path = workspace
        manifest = json.loads((model_path.parent / "model.json.manifest.json").read_text())
        assert manifest["inputs"][str(data_dir / "calibration.jsonl")] == sha256_file(
            data_dir / "calibration.jsonl"
        )

    def test_calibrate_has_no_loss_flag_and_is_reproducible(self, workspace, tmp_path):
        # the stored statistics are configuration-independent by construction
        root, data_dir, model_path = workspace
        from hocroute.cli import build_parser

        calibrate_parser = next(
            a for a in build_parser()._subparsers._group_actions[0].choices.items() if a[0] == "calibrate"
        )[1]
        flags = [o for action in calibrate_parser._actions for o in action.option_strings]
        assert "--loss" not in flags and "--alpha" not in flags and "--beta" not in flags
        again = tmp_path / "model_again.json"
        rc = cli_dispatch(
            [
                "calibrate", "--in", str(data_dir / "calibration.jsonl"), "--partition", "topclass:10",
                "--recalibrate", "--out", str(again),
            ]
        )
        assert rc == 0
        assert again.read_bytes() == model_path.read_bytes()

    def test_version_1_copies_give_the_same_model_curves_and_sweep(self, workspace, tmp_path):
        root, data_dir, model_path = workspace
        assert json.loads(header_path(data_dir / "test.jsonl").read_text())["version"] == 2
        for name in ("calibration.jsonl", "test.jsonl"):
            write_version_1(data_dir / name, tmp_path / name)
        model_v1 = tmp_path / "model.json"
        rc = cli_dispatch(
            [
                "calibrate", "--in", str(tmp_path / "calibration.jsonl"), "--partition", "topclass:10",
                "--recalibrate", "--out", str(model_v1),
            ]
        )
        assert rc == 0
        assert model_v1.read_bytes() == model_path.read_bytes()
        outputs = []
        curves, sweep = tmp_path / "curves.csv", tmp_path / "sweep.csv"
        for test in (data_dir / "test.jsonl", tmp_path / "test.jsonl"):
            assert cli_dispatch(["curve", "--model", str(model_path), "--test", str(test), "--out", str(curves)]) == 0
            rc = cli_dispatch(
                ["sweep", "--model", str(model_path), "--test", str(test), "--beta", "0.1:0.8:0.05", "--out", str(sweep)]
            )
            assert rc == 0
            outputs.append((curves.read_bytes(), sweep.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_route_streams_decisions(self, workspace, tmp_path, capsys, monkeypatch):
        root, data_dir, model_path = workspace
        stream = "\n".join(
            json.dumps({"id": f"q{i}", "weak_probs": [0.4 + 0.01 * i, 0.6 - 0.01 * i]}) for i in range(5)
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(stream + "\n"))
        monkeypatch.chdir(tmp_path)
        rc = cli_dispatch(
            ["route", "--model", str(model_path), "--loss", "crossentropy", "--alpha", "0.05", "--beta", "0.3"]
        )
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        assert len(lines) == 5
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"id", "bin", "action", "est_costs"}
            assert record["action"] in record["est_costs"]
        assert (tmp_path / "route.manifest.json").exists()

    def test_route_to_file_with_disabled_abstention(self, workspace, tmp_path):
        root, data_dir, model_path = workspace
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"id": "q0", "weak_probs": [0.5, 0.5]}) + "\n")
        out = tmp_path / "decisions.jsonl"
        rc = cli_dispatch(
            [
                "route", "--model", str(model_path), "--loss", "brier", "--alpha", "0.05",
                "--beta", "inf", "--in", str(queries), "--out", str(out),
            ]
        )
        assert rc == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert "abstain" not in record["est_costs"]
        assert record["action"] != "abstain"

    def test_route_among_multiple_oracles(self, workspace, tmp_path):
        # a cheap noisy crowd oracle next to the exact one: four-way argmin
        root, data_dir, model_path = workspace
        queries = tmp_path / "mq.jsonl"
        queries.write_text(json.dumps({"id": "q0", "weak_probs": [0.5, 0.5]}) + "\n")
        out = tmp_path / "mq_out.jsonl"
        rc = cli_dispatch(
            ["route", "--model", str(model_path), "--alpha", "0.3", "0.01",
             "--oracle", "bayes", "--oracle", "aggregated:3:majority",
             "--beta", "0.5", "--in", str(queries), "--out", str(out)]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        assert set(record["est_costs"]) == {"predict", "route:0", "route:1", "abstain"}

    def test_route_with_feature_partition(self, workspace, tmp_path):
        # queries carry features; labels are never needed at routing time
        root, data_dir, _ = workspace
        model_path = tmp_path / "feature_model.json"
        assert cli_dispatch(
            ["calibrate", "--in", str(data_dir / "calibration.jsonl"), "--partition", "feature:6",
             "--out", str(model_path)]
        ) == 0
        queries = tmp_path / "fq.jsonl"
        queries.write_text(
            json.dumps({"id": "q0", "weak_probs": [0.6, 0.4], "features": [0.2]}) + "\n"
        )
        out = tmp_path / "fq_out.jsonl"
        rc = cli_dispatch(
            ["route", "--model", str(model_path), "--alpha", "0.05", "--beta", "0.4",
             "--in", str(queries), "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["bin"].startswith("f:b")

    def test_curve_csv(self, workspace, tmp_path):
        root, data_dir, model_path = workspace
        out = tmp_path / "curves.csv"
        rc = cli_dispatch(
            [
                "curve", "--model", str(model_path), "--test", str(data_dir / "test.jsonl"),
                "--loss", "brier", "--policies", "hoc_router,total_uncertainty,random",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "policy,loss,fraction,mean_loss"
        assert len(rows) == 1 + 3 * 101
        # byte-equal to the curves drawn one policy at a time
        model, test, brier = load_model(model_path), ingest(data_dir / "test.jsonl"), parse_loss("brier")
        policies = [
            router_scores(model, test, brier),
            total_uncertainty_scores(test, brier, model),
            random_scores(test, seed=0),
        ]
        write_curves_csv(tmp_path / "reference.csv", [routing_curve(p, test, brier, model) for p in policies])
        assert out.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_curve_with_external_scores(self, workspace, tmp_path):
        root, data_dir, model_path = workspace
        from hocroute.storage import ingest

        test = ingest(data_dir / "test.jsonl")
        scores = tmp_path / "scores.csv"
        scores.write_text("id,score\n" + "\n".join(f"{e.id},{i}" for i, e in enumerate(test)))
        out = tmp_path / "curves_ext.csv"
        rc = cli_dispatch(
            [
                "curve", "--model", str(model_path), "--test", str(data_dir / "test.jsonl"),
                "--policies", "hoc_router", "--scores", f"xgb={scores}", "--out", str(out),
            ]
        )
        assert rc == 0
        assert any(line.startswith("xgb,") for line in out.read_text().splitlines())

    def test_curve_refuses_a_score_that_is_not_a_number(self, workspace, tmp_path, capsys):
        root, data_dir, model_path = workspace
        scores = tmp_path / "scores.csv"
        scores.write_text("a,notanumber\n")
        rc = cli_dispatch(
            [
                "curve", "--model", str(model_path), "--test", str(data_dir / "test.jsonl"),
                "--policies", "hoc_router", "--scores", f"x={scores}", "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "InvalidInputError", "message": f"{scores}: line 1: score rows need (id, finite score)"}

    def test_raw_predictions_serve_the_weak_predictions(self, workspace, tmp_path):
        """``--raw-predictions`` evaluates the recalibrated model as if it served
        the raw weak predictions: its curves and sweep equal the frozen
        references with raw deployment and differ from the default outputs."""
        root, data_dir, model_path = workspace
        model, test, brier = load_model(model_path), ingest(data_dir / "test.jsonl"), parse_loss("brier")
        calibration = ingest(data_dir / "calibration.jsonl")
        assert model.recalibrated
        inputs = ["--model", str(model_path), "--test", str(data_dir / "test.jsonl")]
        outputs = {}
        for raw in (False, True):
            flags = [*inputs, *(["--raw-predictions"] if raw else []), "--out"]
            curves, sweep = tmp_path / f"curves_{raw}.csv", tmp_path / f"sweep_{raw}.csv"
            assert cli_dispatch(["curve", *flags, str(curves)]) == 0
            assert cli_dispatch(["sweep", "--beta", "0.1:0.8:0.05", *flags, str(sweep)]) == 0
            outputs[raw] = (curves.read_bytes(), sweep.read_bytes())
        assert outputs[True][0] != outputs[False][0] and outputs[True][1] != outputs[False][1]
        # without a model, the library deploys the raw weak predictions
        policies = [
            RankedPolicy(HOC_ROUTER, ref_router_scores(model, test, brier)),
            total_uncertainty_scores(test, brier),
            RankedPolicy(BUCKET_OPTIMAL, ref_bucket_optimal_scores(test, brier, model)),
            pointwise_optimal_scores(test, brier),
        ]
        write_curves_csv(tmp_path / "reference.csv", [routing_curve(p, test, brier) for p in policies])
        assert outputs[True][0] == (tmp_path / "reference.csv").read_bytes()
        betas = parse_grid("0.1:0.8:0.05")
        for raw in (False, True):
            rows, gap = ref_cost_sweep(model, test, brier, 0.05, betas, [OracleSpec()], None if raw else calibration)
            costs = {}  # the reference's (alpha, beta, policy, cost) rows, betas outermost, as columns
            for _, _, policy, cost in rows:
                costs.setdefault(policy, []).append(cost)
            reference = CostSweep(0.05, np.array(betas), {policy: np.array(c) for policy, c in costs.items()}, gap)
            write_sweep_csv(tmp_path / "reference.csv", reference)
            assert outputs[raw][1] == (tmp_path / "reference.csv").read_bytes()

    def test_sweep_row_count(self, workspace, tmp_path):
        root, data_dir, model_path = workspace
        out = tmp_path / "sweep.csv"
        rc = cli_dispatch(
            [
                "sweep", "--model", str(model_path), "--test", str(data_dir / "test.jsonl"),
                "--loss", "brier", "--alpha", "0.05", "--beta", "0.1:0.8:0.05", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        # ceil((0.8 - 0.1) / 0.05) + 1 = 15 betas for each of the three policies
        assert len(rows) == 15 * 3
        assert sum(1 for r in rows if ",three_way," in r) == 15

    def test_diagnose_report(self, workspace, tmp_path, capsys, monkeypatch):
        root, data_dir, model_path = workspace
        monkeypatch.chdir(tmp_path)
        rc = cli_dispatch(
            ["diagnose", "--model", str(model_path), "--test", str(data_dir / "test.jsonl")]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "partition_quality" in report and "wasserstein" in report
        assert report["partition_quality"]["aggregate"] >= 0.0
        assert all(entry["passed"] for entry in report["lipschitz_spot_check"])

    def test_diagnose_self_test(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli_dispatch(["diagnose", "--self-test", "--trials", "2000", "--seed", "1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert all(entry["passed"] for entry in report["self_test"])

    @pytest.mark.parametrize(
        "given,missing", [("model", "test"), ("test", "model"), ("model", None), ("test", None)]
    )
    def test_diagnose_refuses_a_lone_or_missing_input_before_the_self_test(
        self, given, missing, workspace, tmp_path, capsys, monkeypatch
    ):
        root, data_dir, model_path = workspace
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_lemma_checks", mock.Mock(side_effect=AssertionError("self-test ran")))
        paths = {"model": str(model_path), "test": str(data_dir / "test.jsonl")}
        if missing is None:  # both given, one of them not on disk
            paths[given] = str(tmp_path / "absent.json")
            message = f"input file(s) not found: {paths[given]}"
        else:
            del paths[missing]
            message = f"diagnose --{given} needs --{missing}"
        argv = ["diagnose", "--self-test", *(arg for flag, path in paths.items() for arg in (f"--{flag}", path))]
        assert cli_dispatch(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "InvalidInputError", "message": message}

    def test_diagnose_self_test_without_trials_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_dispatch(["diagnose", "--self-test", "--trials", "0"]) == 1
        report = json.loads(capsys.readouterr().out)["self_test"]
        empty = [entry for entry in report if entry["trials"] == 0]
        assert len(empty) == len(report) - 1  # the simulated-cost check does not take --trials
        assert not any(entry["passed"] for entry in empty)


def _curve_error(workspace, tmp_path, capsys, *flags, test=None, model=None) -> dict:
    """The one JSON error line of a ``curve`` run that must exit 1 and write nothing."""
    root, data_dir, model_path = workspace
    test, model = test or data_dir / "test.jsonl", model or model_path
    out = tmp_path / "refused.csv"
    assert cli_dispatch(["curve", "--model", str(model), "--test", str(test), "--out", str(out), *flags]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and not out.exists()
    return json.loads(err_lines[0])


@pytest.fixture(scope="module")
def scores_csv(workspace):
    root, data_dir, _ = workspace
    path = root / "scores.csv"
    path.write_text("".join(f"{eid},{i % 7}\n" for i, eid in enumerate(ingest(data_dir / "test.jsonl").ids)))
    return path


class TestCurveRequests:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--policies", "hoc_router,hoc_router"],
            ["--policies", "hoc_router", "--scores", "hoc_router={scores}"],
            ["--policies", "random", "--scores", "x={scores}", "--scores", "x={scores}"],
            ["--policies", "hoc_router,hoc_router", "--scores", "hoc_router={scores}", "--scores", "hoc_router={scores}"],
            ["--policies", "hoc_router", "--scores", "={scores}"],
        ],
        ids=["policy-twice", "policy-and-scores", "scores-twice", "both-twice", "empty-name"],
    )
    def test_a_curve_name_given_twice_is_refused(self, flags, workspace, scores_csv, tmp_path, capsys):
        name = "x" if "x={scores}" in flags else "hoc_router"
        message = "external scores need NAME=PATH" if "={scores}" in flags else f"curve name {name!r} given twice"
        error = _curve_error(workspace, tmp_path, capsys, *(f.format(scores=scores_csv) for f in flags))
        assert error == {"error": "InvalidInputError", "message": message}

    def test_no_curves_is_refused(self, workspace, tmp_path, capsys):
        error = _curve_error(workspace, tmp_path, capsys, "--policies", "")
        assert error == {"error": "InvalidInputError", "message": "no curves requested"}

    def test_an_unknown_policy_is_refused(self, workspace, tmp_path, capsys):
        error = _curve_error(workspace, tmp_path, capsys, "--policies", "hoc_router,nope")
        assert error == {"error": "InvalidInputError", "message": "unknown policy 'nope'"}

    def test_a_binary_only_loss_on_three_classes_is_refused(self, workspace, tmp_path, capsys):
        data = SnapshotBatch.from_examples(
            [make_example(f"e{i}", [0.2, 0.3, 0.5], [i % 3, (i + 1) % 3]) for i in range(30)]
        )
        write_dataset(tmp_path / "three.jsonl", data)
        save_model(tmp_path / "three.model.json", calibrate(fit("topclass", data, buckets=2), data))
        three = {"test": tmp_path / "three.jsonl", "model": tmp_path / "three.model.json"}
        error = _curve_error(workspace, tmp_path, capsys, "--loss", "three_part", **three)
        assert error["error"] == "UnsupportedLossError" and "three_part" in error["message"]


class TestErrorHandling:
    def test_unknown_flag_exits_2(self, capsys):
        assert cli_dispatch(["calibrate", "--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        assert cli_dispatch(["transmogrify"]) == 2

    def test_validation_failure_emits_single_json_line(self, workspace, capsys):
        root, data_dir, model_path = workspace
        rc = cli_dispatch(
            ["curve", "--model", str(model_path), "--test", "missing.jsonl", "--out", "x.csv"]
        )
        assert rc == 1
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert payload["error"] == "InvalidInputError"
        assert "missing.jsonl" in payload["message"]

    def test_bad_loss_spec_fails_fast(self, workspace, capsys):
        root, data_dir, model_path = workspace
        rc = cli_dispatch(
            [
                "route", "--model", str(model_path), "--loss", "nonsense", "--in",
                str(data_dir / "test.jsonl"),
            ]
        )
        assert rc == 1
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "InvalidInputError"

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--beta", "abc"),
            ("--loss", "crossentropy:abc"),
            ("--loss", "weighted_fp_fn:1:x"),
            ("--oracle", "aggregated:x:mean"),
            ("--partition", "topclass:x"),
        ],
    )
    def test_bad_flag_parameter_names_the_flag(self, workspace, tmp_path, capsys, flag, text):
        root, data_dir, model_path = workspace
        if flag == "--partition":
            argv = ["calibrate", "--in", str(data_dir / "calibration.jsonl"), "--out", str(tmp_path / "m.json")]
        else:
            argv = ["route", "--model", str(model_path), "--in", str(data_dir / "test.jsonl")]
        assert cli_dispatch([*argv, flag, text]) == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        error = json.loads(err_lines[0])
        assert error["error"] == "InvalidInputError" and error["message"].startswith(f"{flag} {text!r}: ")

    def test_sweep_refuses_a_grid_above_the_point_cap(self, workspace, tmp_path, capsys):
        root, data_dir, model_path = workspace
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--model", model_path, "--test", data_dir / "test.jsonl", "--beta", "0:1:1e-12", "--out", out]
        assert cli_dispatch([str(a) for a in argv]) == 1
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert error["error"] == "InvalidInputError" and error["message"].startswith("--beta '0:1:1e-12': ")
        assert not out.exists()


# Malformed query/dataset lines and the field each must be reported under.
MALFORMED = [
    ("5", "-"),
    ("{not json", "-"),
    ("[" * 100_000, "-"),
    ({"weak_probs": [0.5, 0.5]}, "id"),
    ({"id": None, "weak_probs": [0.5, 0.5]}, "id"),
    ({"id": True, "weak_probs": [0.5, 0.5]}, "id"),
    ({"id": 1.5, "weak_probs": [0.5, 0.5]}, "id"),
    ({"id": {}, "weak_probs": [0.5, 0.5]}, "id"),
    ({"id": "x"}, "weak_probs"),
    ({"id": "x", "weak_probs": "ab"}, "weak_probs"),
    ({"id": "x", "weak_probs": [0.5, [0.5]]}, "weak_probs"),
    ({"id": "x", "weak_probs": [0.5, 0.5, 0.0]}, "weak_probs"),
    ({"id": "x", "weak_probs": [0.7, 0.2]}, "weak_probs"),
    ({"id": "x", "weak_probs": [math.nan, 0.5]}, "weak_probs"),
    ({"id": "x", "weak_probs": [1.5, -0.5]}, "weak_probs"),
    ({"id": "x", "weak_probs": ["0.25", "0.75"]}, "weak_probs"),
    ({"id": "x", "weak_probs": [True, 0]}, "weak_probs"),
    ({"id": "x", "weak_probs": [0.5, 0.5], "features": "x"}, "features"),
    ({"id": "x", "weak_probs": [0.5, 0.5], "features": [[1.0], [2.0, 3.0]]}, "features"),
    ({"id": "x", "weak_probs": [0.5, 0.5], "features": [math.inf]}, "features"),
    ({"id": "x", "weak_probs": [0.5, 0.5], "features": ["3"]}, "features"),
    ({"id": "x", "weak_probs": [0.5, 0.5], "features": [False]}, "features"),
]
GOOD = [{"id": f"ok{i}", "weak_probs": [0.3 + 0.1 * i, 0.7 - 0.1 * i]} for i in range(3)]


def _line(case, **extra) -> str:
    return case if isinstance(case, str) else json.dumps({**case, **extra})


@pytest.mark.parametrize("case, field", MALFORMED)
class TestMalformedLines:
    def test_parse_query(self, case, field):
        with pytest.raises(InvalidInputError, match=rf"^line 4: field '{re.escape(field)}': "):
            parse_query(_line(case), 2, 4)

    @pytest.mark.parametrize(
        "version, labels",
        [pytest.param(1, {"labels": [0]}, id="v1"), pytest.param(2, {"label_counts": [1, 0]}, id="v2")],
    )
    def test_ingest(self, case, field, version, labels, tmp_path):
        path = tmp_path / "bad.jsonl"
        header_path(path).write_text(json.dumps({"format": "snapshot-dataset", "version": version, "num_classes": 2}))
        lines = [_line(g, **labels) for g in GOOD[:2]] + [_line(case, **labels)]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInputError, match=rf"^line 3: field '{re.escape(field)}': "):
            ingest(path)

    @pytest.mark.parametrize("chunk", [1, 2, cli.ROUTE_CHUNK_LINES])
    def test_route_writes_earlier_decisions_then_fails(
        self, case, field, chunk, workspace, tmp_path, capsys, monkeypatch
    ):
        root, data_dir, model_path = workspace
        monkeypatch.setattr(cli, "ROUTE_CHUNK_LINES", chunk)
        queries, out = tmp_path / "q.jsonl", tmp_path / "d.jsonl"
        queries.write_text("\n".join([_line(GOOD[0]), "", _line(GOOD[1]), _line(case), _line(GOOD[2])]) + "\n")
        rc = cli_dispatch(["route", "--model", str(model_path), "--in", str(queries), "--out", str(out)])
        assert rc == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert payload["error"] == "InvalidInputError"
        assert payload["message"].startswith(f"line 4: field '{field}': ")
        assert [json.loads(l)["id"] for l in out.read_text().splitlines()] == ["ok0", "ok1"]


@pytest.mark.parametrize("recalibrate", [[], ["--recalibrate"]], ids=["raw", "recalibrated"])
@pytest.mark.parametrize("command", ["curve", "sweep", "diagnose"])
def test_a_test_split_of_another_class_count_is_refused(command, recalibrate, workspace, tmp_path, capsys):
    """A 2-class model and a 3-class test split: exit code 1, one JSON error
    naming both counts, and no output written."""
    root, data_dir, _ = workspace
    model = tmp_path / "model.json"
    calibrate_flags = ["--in", str(data_dir / "calibration.jsonl"), "--partition", "topclass:4", "--out", str(model)]
    assert cli_dispatch(["calibrate", *calibrate_flags, *recalibrate]) == 0
    test = tmp_path / "test3.jsonl"
    write_dataset(test, three_classes(ingest(data_dir / "test.jsonl")[:300]))
    out = tmp_path / "out.csv"
    flags = {"curve": ["--out", str(out)], "sweep": ["--beta", "0.1:0.3:0.1", "--out", str(out)], "diagnose": []}
    capsys.readouterr()
    assert cli_dispatch([command, "--model", str(model), "--test", str(test), *flags[command]]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists() and not (tmp_path / "out.csv.manifest.json").exists()
    error = {"error": "InvalidInputError", "message": "test set has 3 classes; the model has 2"}
    assert json.loads(captured.err) == error


@pytest.mark.parametrize("p_star", [["0.5", "0.5"], [True, False]])
@pytest.mark.parametrize("version, labels", [(1, {"labels": [0]}), (2, {"label_counts": [1, 0]})])
def test_ingest_refuses_p_star_entries_that_are_not_numbers(p_star, version, labels, tmp_path):
    """``p_star`` is a dataset field, so only ``ingest`` reads it."""
    path = tmp_path / "bad.jsonl"
    header_path(path).write_text(json.dumps({"format": "snapshot-dataset", "version": version, "num_classes": 2}))
    lines = [_line(g, **labels) for g in GOOD[:2]] + [_line(GOOD[2], **labels, p_star=p_star)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError, match=r"^line 3: field 'p_star': must be a flat list of numbers$"):
        ingest(path)


def _misaligned_chunk(**extra) -> list[str]:
    """A good line, then line 2 holding two records and lines 3 and 4 holding
    one record split in two: joined with commas into one JSON array, the four
    lines read as four valid records."""
    a, b, y = ({"id": qid, "weak_probs": [0.5, 0.5], **extra} for qid in "aby")
    return [_line(GOOD[0], **extra), f"{_line(a)}, {_line(b)}", _line(y)[:-1] + ', "x": [[1', "2]]}"]


MISALIGNED = r"^line 2: field '-': invalid JSON \(Extra data"


class TestMisalignedChunk:
    def test_a_comma_join_would_accept_it(self):
        records = json.loads("[" + ",".join(_misaligned_chunk()) + "]")
        assert [r["id"] for r in records] == ["ok0", "a", "b", "y"]

    def test_parse_queries(self):
        with pytest.raises(InvalidInputError, match=MISALIGNED):
            parse_queries([line + "\n" for line in _misaligned_chunk()], 2)

    def test_ingest(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header_path(path).write_text(json.dumps({"format": "snapshot-dataset", "version": 1, "num_classes": 2}))
        path.write_text("\n".join(_misaligned_chunk(labels=[0])) + "\n")
        with pytest.raises(InvalidInputError, match=MISALIGNED):
            ingest(path)

    def test_route(self, workspace, tmp_path, capsys, monkeypatch):
        root, data_dir, model_path = workspace
        monkeypatch.setattr(cli, "ROUTE_CHUNK_LINES", 2048)
        queries, out = tmp_path / "q.jsonl", tmp_path / "d.jsonl"
        queries.write_text("\n".join(_misaligned_chunk()) + "\n")
        assert cli_dispatch(["route", "--model", str(model_path), "--in", str(queries), "--out", str(out)]) == 1
        assert re.match(MISALIGNED, json.loads(capsys.readouterr().err)["message"])
        assert [json.loads(l)["id"] for l in out.read_text().splitlines()] == ["ok0"]


@pytest.mark.parametrize("chunk", [1, 2, cli.ROUTE_CHUNK_LINES])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_route_refuses_input_that_is_not_utf8(chunk, source, workspace, tmp_path, capsys, monkeypatch):
    root, data_dir, model_path = workspace
    monkeypatch.setattr(cli, "ROUTE_CHUNK_LINES", chunk)
    raw = (_line(GOOD[0]) + "\n" + _line(GOOD[1]) + "\n").encode() + b'{"id": "\xff", "weak_probs": [0.5, 0.5]}\n'
    queries, out = tmp_path / "q.jsonl", tmp_path / "d.jsonl"
    queries.write_bytes(raw + (_line(GOOD[2]) + "\n").encode())
    argv = ["route", "--model", str(model_path), "--out", str(out)]
    if source == "file":
        argv += ["--in", str(queries)]
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(queries.read_bytes()), encoding="utf-8"))
    assert cli_dispatch(argv) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    payload = json.loads(err_lines[0])
    assert payload["error"] == "InvalidInputError"
    assert payload["message"] == f"{queries if source == 'file' else '<stdin>'}: line 3: not UTF-8 text"
    assert [json.loads(l)["id"] for l in out.read_text().splitlines()] == ["ok0", "ok1"]


def test_route_names_query_lacking_partition_feature(workspace, tmp_path, capsys):
    root, data_dir, _ = workspace
    model_path = tmp_path / "feature_model.json"
    assert cli_dispatch(
        ["calibrate", "--in", str(data_dir / "calibration.jsonl"), "--partition", "feature:6", "--out", str(model_path)]
    ) == 0
    queries, out = tmp_path / "q.jsonl", tmp_path / "d.jsonl"
    queries.write_text(_line({**GOOD[0], "features": [0.1]}) + "\n" + _line(GOOD[1]) + "\n")
    assert cli_dispatch(["route", "--model", str(model_path), "--in", str(queries), "--out", str(out)]) == 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert message == "line 2: field 'features': missing"
    assert len(out.read_text().splitlines()) == 1


def test_route_closes_its_input_when_the_output_cannot_be_opened(workspace, tmp_path, capsys):
    root, data_dir, model_path = workspace
    queries = tmp_path / "q.jsonl"
    queries.write_text(_line(GOOD[0]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = tmp_path / "missing-dir" / "d.jsonl"
        rc = cli_dispatch(["route", "--model", str(model_path), "--in", str(queries), "--out", str(out)])
        gc.collect()
    assert rc == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1 and json.loads(err_lines[0])["error"] == "FileNotFoundError"
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_route_answers_a_terminal_line_by_line(workspace, monkeypatch):
    root, data_dir, model_path = workspace
    stdout = io.StringIO()
    answered_before_read: list[int] = []

    class Terminal(io.StringIO):
        def isatty(self):
            return True

        def __next__(self):
            answered_before_read.append(stdout.getvalue().count("\n"))
            return super().__next__()

    monkeypatch.setattr("sys.stdin", Terminal("".join(_line(g) + "\n" for g in GOOD)))
    monkeypatch.setattr("sys.stdout", stdout)
    monkeypatch.chdir(workspace[0])
    assert cli_dispatch(["route", "--model", str(model_path)]) == 0
    assert answered_before_read == [0, 1, 2, 3]


@pytest.fixture(scope="module")
def route_models(small_run, tmp_path_factory):
    """One model per partition kind, and calibration predictions that hit level sets."""
    root = tmp_path_factory.mktemp("columnar")
    cal = small_run.calibration[:1000]
    paths = {}
    for kind, buckets in (("topclass", 6), ("feature", 5), ("levelset", 1)):
        paths[kind] = root / f"{kind}.json"
        save_model(paths[kind], calibrate(fit(kind, cal, buckets=buckets), cal, recalibrate=kind == "topclass"))
    return root, paths, sorted({tuple(e.weak_pred.probs.tolist()) for e in cal})


def _reference_route(model_path, lines) -> str:
    """The per-line route: parse_query, Router.decide, json.dumps."""
    router = Router(load_model(model_path), RoutingConfig(parse_loss("brier"), (0.05,), 0.3))
    out = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            query = parse_query(line, 2, lineno)
            bin_id, decision = router.decide(query)
            record = {"id": query.id, "bin": bin_id, "action": decision.action, "est_costs": decision.est_costs}
            out.append(json.dumps(record) + "\n")
    return "".join(out)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["topclass", "feature", "levelset"]))
def test_columnar_route_equals_per_line_reference(route_models, data, kind):
    root, paths, known = route_models
    probs = simplex_arrays(2).map(lambda p: p.tolist())
    drifted = st.tuples(simplex_arrays(2), st.floats(-5e-7, 5e-7)).map(lambda t: (t[0] * (1.0 + t[1])).tolist())
    rows = data.draw(
        st.lists(
            st.tuples(
                st.one_of(st.text(max_size=5), st.integers()),
                st.one_of(probs, drifted, st.sampled_from(known).map(list)),
                st.floats(-3.0, 3.0),
                st.booleans(),
            ),
            min_size=1,
            max_size=30,
        )
    )
    lines = []
    for qid, p, x, blank in rows:
        lines += ["\n"] if blank else []
        lines.append(json.dumps({"id": qid, "weak_probs": p, "features": [x]}) + "\n")
    expected = _reference_route(paths[kind], lines)

    batch = parse_queries(lines, 2)
    reference = [parse_query(line, 2, n) for n, line in enumerate(lines, start=1) if line.strip()]
    assert batch.probs.tobytes() == np.stack([q.weak_pred.probs for q in reference]).tobytes()

    queries, out = root / "q.jsonl", root / "d.jsonl"
    queries.write_text("".join(lines))
    for chunk in (1, 7, cli.ROUTE_CHUNK_LINES):
        with mock.patch.object(cli, "ROUTE_CHUNK_LINES", chunk):
            assert cli_dispatch(["route", "--model", str(paths[kind]), "--alpha", "0.05", "--beta", "0.3",
                                 "--in", str(queries), "--out", str(out)]) == 0
        assert out.read_text() == expected


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_route_stream_and_manifest_are_strict_json(workspace, tmp_path):
    root, data_dir, model_path = workspace
    queries = tmp_path / "q.jsonl"
    queries.write_text("".join(_line(g) + "\n" for g in GOOD))
    out, manifest = tmp_path / "d.jsonl", tmp_path / "route.manifest.json"
    argv = ["route", "--model", str(model_path), "--in", str(queries), "--out", str(out), "--manifest", str(manifest)]
    # the default --beta disables abstention; an infinite --alpha disables routing too
    for extra, actions in (([], {"predict", "route:0"}), (["--alpha", "inf"], {"predict"})):
        assert cli_dispatch([*argv, *extra]) == 0
        records = [_strict_json(line) for line in out.read_text().splitlines()]
        assert len(records) == len(GOOD)
        assert all(set(r["est_costs"]) == actions and r["action"] in actions for r in records)
        _strict_json(manifest.read_text())
    assert _strict_json(manifest.read_text())["args"]["alpha"] == ["inf"]


def test_every_command_writes_its_manifest(workspace, tmp_path, monkeypatch):
    """Where each command puts its manifest, and the command, seed, inputs and
    outputs it records there."""
    root, data_dir, _ = workspace
    monkeypatch.chdir(tmp_path)
    cal, test, model, gen = str(data_dir / "calibration.jsonl"), str(data_dir / "test.jsonl"), "m.json", "gen"
    Path("q.jsonl").write_text("".join(_line(g) + "\n" for g in GOOD))
    runs = [
        (["generate-synthetic", "--train", "200", "--cal", "100", "--test", "100", "--k", "5", "--seed", "3",
          "--out-dir", gen], "gen/manifest.json", 3, [], ["gen/calibration.jsonl", "gen/test.jsonl"]),
        (["calibrate", "--in", cal, "--out", model], "m.json.manifest.json", None, [cal], [model]),
        (["route", "--model", model, "--in", "q.jsonl", "--out", "d.jsonl"],
         "d.jsonl.manifest.json", None, [model, "q.jsonl"], ["d.jsonl"]),
        (["route", "--model", model, "--in", "q.jsonl"], "route.manifest.json", None, [model, "q.jsonl"], []),
        (["curve", "--model", model, "--test", test, "--seed", "5", "--out", "c.csv"],
         "c.csv.manifest.json", 5, [model, test], ["c.csv"]),
        (["sweep", "--model", model, "--test", test, "--beta", "0.1:0.2:0.1", "--out", "s.csv"],
         "s.csv.manifest.json", None, [model, test], ["s.csv"]),
        (["diagnose", "--model", model, "--test", test, "--seed", "2"], "diagnose.manifest.json", 2, [model, test], []),
        (["diagnose", "--self-test", "--trials", "2000", "--manifest", "x.json"], "x.json", 0, [], []),
    ]
    for argv, path, seed, inputs, outputs in runs:
        assert cli_dispatch(argv) == 0, argv
        manifest = json.loads(Path(path).read_text())
        assert (manifest["command"], manifest["seed"]) == (argv[0], seed), argv
        assert sorted(manifest["inputs"]) == sorted(inputs), argv
        assert manifest["outputs"] == outputs, argv


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("sweep", ["--beta", "0:1:nan"], "--beta"),
        ("sweep", ["--beta", "0:1:inf"], "--beta"),
        ("sweep", ["--beta", "0:inf:0.1"], "--beta"),
        ("generate-synthetic", ["--seed", "-1"], "--seed"),
        ("diagnose", ["--seed", "-1"], "--seed"),
        ("curve", ["--policies", "random", "--seed", "-1"], "--seed"),
        ("diagnose", ["--self-test", "--trials", "-1"], "--trials"),
        ("calibrate", ["--partition", "feature:3:-1"], "feature_index"),
        ("generate-synthetic", ["--weak-bins", "0"], "bins"),
        ("generate-synthetic", ["--weak-bins", "-4"], "bins"),
    ],
)
def test_bad_numeric_parameter_fails_as_invalid_input(command, flags, named, workspace, tmp_path, capsys):
    root, data_dir, model_path = workspace
    test = str(data_dir / "test.jsonl")
    out = str(tmp_path / "out")
    required = {
        "sweep": ["--model", str(model_path), "--test", test, "--out", out],
        "generate-synthetic": ["--train", "50", "--cal", "20", "--test", "20", "--out-dir", out],
        "diagnose": ["--model", str(model_path), "--test", test],
        "curve": ["--model", str(model_path), "--test", test, "--out", out],
        "calibrate": ["--in", str(data_dir / "calibration.jsonl"), "--out", out],
    }
    assert cli_dispatch([command, *required[command], *flags]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    error = json.loads(err_lines[0])
    assert error["error"] == "InvalidInputError" and named in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["inf", "INF", "+Infinity", " inf "])
def test_beta_spellings_of_infinity_are_accepted(text):
    assert cli.parse_beta(text) == math.inf


@pytest.mark.parametrize(
    "text, message", [("nan", "abstention penalty must be >= 0"), ("-inf", "abstention penalty must be >= 0"),
                      ("abc", "--beta 'abc': 'abc' is not a number")]
)
def test_beta_that_is_not_a_penalty_is_refused(text, message, workspace, tmp_path, capsys):
    _, _, model_path = workspace
    queries = tmp_path / "q.jsonl"
    queries.write_text(json.dumps({"id": "q0", "weak_probs": [0.5, 0.5]}) + "\n")
    out = tmp_path / "decisions.jsonl"
    assert cli_dispatch(["route", "--model", str(model_path), f"--beta={text}", "--in", str(queries), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "InvalidInputError" and message in error["message"]
    assert not out.exists()


def _run_cli(*argv, env=None, python_flags=()) -> subprocess.CompletedProcess:
    """``python -m hocroute.cli`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "hocroute.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_readers_decode_utf8_under_an_ascii_locale(tmp_path):
    data = tmp_path / "u.jsonl"
    header_path(data).write_text(json.dumps({"format": "snapshot-dataset", "version": 1, "num_classes": 2}))
    records = [{"id": "caf\u00e9" if i == 0 else f"q{i}", "weak_probs": [0.6, 0.4], "labels": [i % 2]} for i in range(4)]
    data.write_bytes("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8"))
    ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    done = _run_cli("calibrate", "--in", data, "--out", tmp_path / "m.json", env=ascii_locale)
    assert done.returncode == 0, done.stderr


def test_pipeline_opens_no_file_in_the_locale_encoding(tmp_path):
    """Under ``-X warn_default_encoding``, every text-mode open that leaves
    the encoding to the locale emits ``EncodingWarning``; here each is an error."""
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    data, model = tmp_path / "data", tmp_path / "m.json"
    test = data / "test.jsonl"
    commands = [
        ("generate-synthetic", "--train", 200, "--cal", 300, "--test", 300, "--k", 10, "--out-dir", data),
        ("calibrate", "--in", data / "calibration.jsonl", "--out", model),
        ("route", "--model", model, "--in", test, "--out", tmp_path / "d.jsonl"),
        ("curve", "--model", model, "--test", test, "--out", tmp_path / "c.csv"),
        ("sweep", "--model", model, "--test", test, "--beta", "0:0.5:0.1", "--out", tmp_path / "s.csv"),
    ]
    for argv in commands:
        done = _run_cli(*argv, python_flags=flags)
        assert done.returncode == 0, done.stderr
        assert "EncodingWarning" not in done.stderr
