import numpy as np

from hocroute import diagnostics
from hocroute.diagnostics import (
    CheckResult,
    brute_force_action,
    check_simulated_cost_gap,
    check_tree_equivalence,
    run_lemma_checks,
)


class TestLemmaChecks:
    def test_all_checks_pass_on_moderate_trials(self):
        results = run_lemma_checks(seed=0, trials=30_000)
        failing = [r.name for r in results if not r.passed]
        assert failing == []
        # every loss check, boundedness included, runs each trial asked for
        assert {r.trials for r in results if "[" in r.name} == {30_000}
        names = {r.name for r in results}
        assert "tree_vs_argmin" in names
        assert "simulated_vs_true_cost_gap" in names
        assert any(n.startswith("lipschitz[") for n in names)
        assert any(n.startswith("properness[") for n in names)

    def test_deterministic_under_seed(self):
        a = run_lemma_checks(seed=3, trials=2_000)
        b = run_lemma_checks(seed=3, trials=2_000)
        assert [(r.name, r.max_excess) for r in a] == [(r.name, r.max_excess) for r in b]

    def test_records_serialize(self):
        record = CheckResult(name="x", trials=10, violations=0, max_excess=-0.5).to_record()
        assert record["passed"] is True
        # a check that ran no trials proved nothing
        assert CheckResult(name="x", trials=0, violations=0, max_excess=0.0).to_record()["passed"] is False

    def test_tree_check_skips_exact_ties(self):
        result = check_tree_equivalence(trials=5_000, rng=np.random.default_rng(0))
        assert result.violations == 0
        assert result.trials <= 5_000

    def test_tree_check_catches_a_wrong_tree(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "tree_decide", lambda i, r, a, b: "predict")
        # the reference is router.choose; the dict-based rule is kept for the acceptance suite
        monkeypatch.setattr(diagnostics, "brute_force_action", None)
        result = check_tree_equivalence(trials=2_000, rng=np.random.default_rng(0))
        assert result.violations > 0 and not result.passed
        assert len(result.worst) == 4
        assert brute_force_action(*result.worst) != "predict"

    def test_brute_force_matches_spec_example(self):
        assert brute_force_action(0.2, 0.1, 0.05, 0.3) == "route:0"

    def test_simulated_gap_check_is_tight_but_valid(self):
        result = check_simulated_cost_gap(seed=2)
        assert result.passed
        # the duality bound should not be vacuous: gaps come close to it
        assert result.max_excess > -1.0
