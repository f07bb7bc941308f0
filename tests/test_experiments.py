import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.special import ndtr

from selectree import experiments, inference
from selectree.experiments import (
    SyntheticSpec,
    _z_test,
    gen_synthetic,
    naive_ols_inference,
    run_fpr_study,
    run_perf_study,
    run_tpr_study,
    split_inference,
    trial_rng,
)
from selectree.inference import infer
from selectree.itemsets import Itemset, feature_column
from selectree.screening import marginal_screen


SMALL = SyntheticSpec(n=40, d=8, r=2, k=3, sparsity=0.5, sigma=0.3, seed=5, trials=6)


class TestSyntheticSpec:
    def test_truth_keys_normalized(self):
        spec = SyntheticSpec(
            n=10, d=5, r=3, k=2, sparsity=0.5, sigma=0.1, truth={(3, 1, 2): 1.5}
        )
        assert list(spec.truth) == [Itemset((1, 2, 3))]

    def test_rejects_truth_beyond_model_order(self):
        with pytest.raises(ValueError):
            SyntheticSpec(
                n=10, d=5, r=2, k=2, sparsity=0.5, sigma=0.1, truth={(1, 2, 3): 1.0}
            )

    def test_rejects_truth_beyond_d(self):
        with pytest.raises(ValueError):
            SyntheticSpec(
                n=10, d=5, r=2, k=2, sparsity=0.5, sigma=0.1, truth={(1, 6): 1.0}
            )

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            SyntheticSpec(
                n=10, d=5, r=2, k=2, sparsity=0.5, sigma=0.1, truth={(1,): 0.0}
            )

    @pytest.mark.parametrize("coef", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_coefficient(self, coef):
        with pytest.raises(ValueError, match=r"truth coefficient for \{1,2\} must be finite"):
            SyntheticSpec(
                n=10, d=5, r=2, k=2, sparsity=0.5, sigma=0.1, truth={(1, 2): coef}
            )

    def test_response_that_overflows_is_a_numeric_failure(self):
        spec = SyntheticSpec(n=10, d=5, r=2, k=2, sparsity=0.0, sigma=0.1,
                             truth={(1, 2): 1e308, (1,): 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflows"):
                gen_synthetic(spec, 0)

    @pytest.mark.parametrize(
        "field,value",
        [("n", 0), ("d", 0), ("r", 0), ("k", 0), ("k", 100), ("sparsity", 1.0),
         ("sparsity", -0.1), ("sigma", 0.0), ("sigma", math.inf), ("sigma", math.nan),
         ("alpha", 0.0), ("alpha", 1.0), ("trials", 0)],
    )
    def test_rejects_bad_scalars(self, field, value):
        kwargs = dict(n=10, d=5, r=2, k=2, sparsity=0.5, sigma=0.1)
        kwargs[field] = value
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)

    def test_config_carries_model_settings(self):
        cfg = SMALL.config()
        assert (cfg.r, cfg.k, cfg.sigma, cfg.alpha) == (2, 3, 0.3, 0.05)


class TestGenSynthetic:
    def test_deterministic_per_trial(self):
        a = gen_synthetic(SMALL, 2)
        b = gen_synthetic(SMALL, 2)
        assert_array_equal(a.Z, b.Z)
        assert_array_equal(a.y, b.y)

    def test_trials_differ(self):
        a = gen_synthetic(SMALL, 0)
        b = gen_synthetic(SMALL, 1)
        assert not np.array_equal(a.y, b.y)

    def test_binary_design_with_requested_density(self):
        spec = SyntheticSpec(
            n=4000, d=10, r=2, k=3, sparsity=0.8, sigma=0.1, seed=11
        )
        data = gen_synthetic(spec, 0)
        assert set(np.unique(data.Z)) <= {0.0, 1.0}
        assert data.Z.mean() == pytest.approx(0.2, abs=0.01)

    def test_signal_enters_through_truth_columns(self):
        base = SyntheticSpec(n=200, d=6, r=2, k=3, sparsity=0.5, sigma=0.1, seed=3)
        spiked = SyntheticSpec(
            n=200, d=6, r=2, k=3, sparsity=0.5, sigma=0.1, seed=3,
            truth={(1, 2): 2.0},
        )
        clean = gen_synthetic(base, 0)
        loud = gen_synthetic(spiked, 0)
        assert_array_equal(clean.Z, loud.Z)
        shift = loud.y - clean.y
        assert shift == pytest.approx(2.0 * feature_column(Itemset((1, 2)), clean.Z))

    def test_trial_rng_streams_are_stable(self):
        # the per-trial stream must not depend on how many trials ran before
        first = trial_rng(9, 4).random(3)
        again = trial_rng(9, 4).random(3)
        assert_array_equal(first, again)
        other = trial_rng(9, 5).random(3)
        assert not np.array_equal(first, other)


class TestZTest:
    def test_single_column_textbook_case(self):
        # one regressor: z = x^T y / (sigma * ||x||), p = 2 Phi(-|z|)
        rng = np.random.default_rng(0)
        X = rng.random((30, 1))
        y = rng.standard_normal(30)
        sigma = 0.7
        p, sig = _z_test(X, y, sigma=sigma, alpha=0.05)
        z = float(X[:, 0] @ y) / (sigma * float(np.linalg.norm(X[:, 0])))
        assert p[0] == pytest.approx(2.0 * float(ndtr(-abs(z))), rel=1e-12)
        assert sig[0] == (p[0] < 0.05)

    def test_orthogonal_columns_decouple(self):
        X = np.kron(np.eye(2), np.ones((3, 1)))
        y = np.array([1.0, 1.0, 1.0, 0.1, -0.1, 0.0])
        p, _ = _z_test(X, y, sigma=1.0, alpha=0.05)
        p0, _ = _z_test(X[:, :1], y, sigma=1.0, alpha=0.05)
        assert p[0] == pytest.approx(p0[0], rel=1e-12)


def _recording_screen(monkeypatch):
    """Route every screening the studies make, including the one ``infer``
    makes when it gets none, through a recorder; returns the list of
    (dataset, selection) pairs."""
    calls = []

    def screen(data, *args, **kwargs):
        result = marginal_screen(data, *args, **kwargs)
        calls.append((data, result[0]))
        return result

    monkeypatch.setattr(experiments, "marginal_screen", screen)
    monkeypatch.setattr(inference, "marginal_screen", screen)
    return calls


class TestMethods:
    def test_psi_and_ols_share_the_screening_stage(self):
        data = gen_synthetic(SMALL, 0)
        cfg = SMALL.config()
        screened = marginal_screen(data, cfg.k, cfg.r)
        sel = screened[0]
        report = infer(data, cfg, screened=screened)
        assert report.screening == sel
        X = np.column_stack([feature_column(it, data.Z) for it in sel.selected])
        _, mask = _z_test(X, data.y, cfg.sigma, cfg.alpha)
        ols = naive_ols_inference(data, cfg, sel)
        assert ols == tuple(it for it, s in zip(sel.selected, mask) if s)

    def test_psi_prune_toggle_is_invisible(self):
        data = gen_synthetic(SMALL, 1)
        cfg = SMALL.config()
        fast = infer(data, cfg, prune=True)
        slow = infer(data, cfg, prune=False)
        assert fast.screening == slow.screening
        assert [f.significant for f in fast.features] == [
            f.significant for f in slow.features
        ]

        def visited(report):
            return report.screen_metrics.nodes_visited + sum(
                f.interval.metrics.nodes_visited for f in report.features
            )

        assert visited(fast) <= visited(slow)

    def test_split_is_deterministic_in_seed(self):
        data = gen_synthetic(SMALL, 2)
        cfg = SMALL.config()
        assert split_inference(data, cfg, seed=17) == split_inference(data, cfg, seed=17)

    def test_split_screens_on_half_the_rows(self, monkeypatch):
        spec = SyntheticSpec(n=30, d=4, r=1, k=2, sparsity=0.5, sigma=0.5, seed=8)
        data = gen_synthetic(spec, 0)
        calls = _recording_screen(monkeypatch)
        split_inference(data, spec.config(), seed=3)
        [(half, sel)] = calls
        assert half.n == 15
        assert len(sel.selected) == 2

    @pytest.mark.parametrize("trial", range(4))
    def test_significant_is_a_subset_of_selected(self, monkeypatch, trial):
        spec = SyntheticSpec(n=120, d=8, r=2, k=3, sparsity=0.3, sigma=0.05,
                             truth={(1, 2): 2.0}, seed=2)
        data = gen_synthetic(spec, trial)
        cfg = spec.config()
        sel, _ = marginal_screen(data, cfg.k, cfg.r)
        ols = naive_ols_inference(data, cfg, sel)
        assert ols and set(ols) <= set(sel.selected)
        calls = _recording_screen(monkeypatch)
        split = split_inference(data, cfg, seed=trial)
        [(_, half_sel)] = calls
        assert split and set(split) <= set(half_sel.selected)

    def test_fpr_trial_screens_the_full_data_once(self, monkeypatch):
        # one full-data screening shared by PSI and OLS, one on SPLIT's half
        calls = _recording_screen(monkeypatch)
        experiments._fpr_trial(SMALL, 0)
        assert [data.n for data, _ in calls] == [SMALL.n, SMALL.n // 2]


class TestStudies:
    def test_fpr_study_shape(self):
        spec = SyntheticSpec(
            n=50, d=10, r=2, k=3, sparsity=0.5, sigma=0.2, seed=21, trials=8
        )
        out = run_fpr_study(spec)
        assert out.kind == "fpr"
        assert set(out.rates) == {"PSI", "OLS", "SPLIT"}
        for method, rate in out.rates.items():
            assert 0.0 <= rate <= 1.0, method
        assert len(out.pivots) == out.trials_used["PSI"]
        assert all(0.0 <= p <= 1.0 for p in out.pivots)

    def test_fpr_study_requires_null_truth(self):
        with pytest.raises(ValueError):
            run_fpr_study(
                SyntheticSpec(
                    n=50, d=10, r=2, k=3, sparsity=0.5, sigma=0.2,
                    truth={(1,): 1.0}, trials=2,
                )
            )

    def test_tpr_study_requires_signal(self):
        with pytest.raises(ValueError):
            run_tpr_study(SMALL)

    def test_tpr_study_detects_a_loud_signal(self):
        spec = SyntheticSpec(
            n=120, d=8, r=2, k=3, sparsity=0.3, sigma=0.05,
            truth={(1, 2): 2.0}, seed=2, trials=6,
        )
        out = run_tpr_study(spec)
        assert out.kind == "tpr"
        assert set(out.rates) == {"PSI", "SPLIT"}
        assert out.rates["PSI"] > 0.5

    def test_thread_count_does_not_change_results(self):
        spec = SyntheticSpec(
            n=50, d=10, r=2, k=3, sparsity=0.5, sigma=0.2, seed=21, trials=8
        )
        serial = run_fpr_study(spec, threads=1)
        parallel = run_fpr_study(spec, threads=2)
        assert serial.rates == parallel.rates
        assert serial.pivots == parallel.pivots

    def test_perf_study_first_order_never_prunes(self):
        base = SyntheticSpec(
            n=60, d=20, r=2, k=4, sparsity=0.5, sigma=0.2, seed=13, trials=3
        )
        rows = run_perf_study(base, d_values=[20], r_values=[1, 2], sparsity_values=[0.5])
        by_r = {row.r: row for row in rows}
        assert by_r[1].mean_visit_rate == 1.0
        assert by_r[1].sd_visit_rate == 0.0
        assert 0.0 < by_r[2].mean_visit_rate <= 1.0

    @pytest.mark.parametrize(
        "d_values,r_values,sparsity_values",
        [([5], [1, 0], [0.5]), ([5], [1], [0.5, 1.0]), ([5, 0], [1], [0.5]), ([5, 2], [1], [0.5])],
        ids=["order 0", "sparsity 1", "no columns", "k above D"],
    )
    def test_perf_study_checks_the_grid_before_any_trial(
        self, monkeypatch, d_values, r_values, sparsity_values
    ):
        calls = []
        monkeypatch.setattr(experiments, "gen_synthetic", lambda *a: calls.append(a))
        base = SyntheticSpec(n=40, d=5, r=2, k=3, sparsity=0.5, sigma=0.2, seed=13, trials=2)
        with pytest.raises(ValueError):
            run_perf_study(base, d_values, r_values, sparsity_values)
        assert calls == []

    def test_perf_study_grid_covers_all_cells(self):
        base = SyntheticSpec(
            n=40, d=10, r=2, k=2, sparsity=0.5, sigma=0.2, seed=13, trials=2
        )
        rows = run_perf_study(
            base, d_values=[8, 10], r_values=[1, 2], sparsity_values=[0.3, 0.6]
        )
        assert {(row.d, row.r, row.sparsity) for row in rows} == {
            (d, r, s) for d in (8, 10) for r in (1, 2) for s in (0.3, 0.6)
        }
