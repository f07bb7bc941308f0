import dataclasses
import io
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import degenerate_designs, random_instance, record_expanded, unseeded
from selectree import inference, itemsets, oracle, screening
from selectree.inference import (
    DegenerateTruncationError,
    InternalConsistencyError,
    SingularGramError,
    contrast_for_coefficient,
    infer,
    selective_interval,
    selective_pvalue,
    trunc_norm_cdf,
    truncation_points,
    truncation_windows,
)
from selectree.cli import emit_report
from selectree.experiments import SyntheticSpec, gen_synthetic
from selectree.itemsets import Dataset, ModelConfig, feature_column, total_feature_count
from selectree.screening import marginal_screen


def _design(sel, Z):
    return np.column_stack([feature_column(it, Z) for it in sel.selected])


class TestBetaHat:
    """The reported coefficient is the contrast's eta'y."""

    def test_matches_lstsq(self, tiny):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        X = _design(sel, tiny.Z)
        expected = np.linalg.lstsq(X, tiny.y, rcond=None)[0]
        got = [contrast_for_coefficient(X, tiny.y, j, sigma=1.0).eta_y for j in (1, 2)]
        assert_allclose(got, expected, rtol=1e-12)

    def test_tiny_values(self, tiny):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        X = _design(sel, tiny.Z)
        got = [contrast_for_coefficient(X, tiny.y, j, sigma=1.0).eta_y for j in (1, 2)]
        assert_allclose(got, [1.0, 1.0], atol=1e-12)

    def test_singular_gram_reports_offenders(self):
        Z = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        X = np.column_stack([Z[:, 0], Z[:, 1]])
        with pytest.raises(SingularGramError) as err:
            contrast_for_coefficient(X, y, 1, sigma=1.0)
        assert err.value.pairs  # names the collinear column pair


class TestContrast:
    def test_unbiased_direction(self, tiny):
        # eta_j is the j-th row of the pseudo-inverse: X^T eta = e_j.
        sel, _ = marginal_screen(tiny, k=2, r=2)
        X = _design(sel, tiny.Z)
        for j in (1, 2):
            con = contrast_for_coefficient(X, tiny.y, j, sigma=1.0)
            assert_allclose(X.T @ con.eta, np.eye(2)[j - 1], atol=1e-12)
            assert con.eta_y == pytest.approx(float(con.eta @ tiny.y))

    def test_c_normalization(self, tiny):
        # eta^T c = 1 makes the truncation geometry one-dimensional.
        sel, _ = marginal_screen(tiny, k=2, r=2)
        X = _design(sel, tiny.Z)
        con = contrast_for_coefficient(X, tiny.y, 1, sigma=2.0)
        assert float(con.eta @ con.c) == pytest.approx(1.0)
        assert con.eta_var == pytest.approx(4.0 * float(con.eta @ con.eta))

    def test_full_covariance_matches_isotropic(self, tiny):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        X = _design(sel, tiny.Z)
        a = contrast_for_coefficient(X, tiny.y, 1, sigma=0.7)
        b = contrast_for_coefficient(
            X, tiny.y, 1, covariance=0.49 * np.eye(tiny.n)
        )
        assert a.eta_var == pytest.approx(b.eta_var)
        assert_allclose(a.c, b.c, rtol=1e-12)

    def test_requires_exactly_one_noise_model(self, tiny):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        X = _design(sel, tiny.Z)
        with pytest.raises(ValueError):
            contrast_for_coefficient(X, tiny.y, 1)
        with pytest.raises(ValueError):
            contrast_for_coefficient(X, tiny.y, 1, sigma=1.0, covariance=np.eye(3))

    def test_j_out_of_range(self, tiny):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        X = _design(sel, tiny.Z)
        with pytest.raises(ValueError):
            contrast_for_coefficient(X, tiny.y, 0, sigma=1.0)
        with pytest.raises(ValueError):
            contrast_for_coefficient(X, tiny.y, 3, sigma=1.0)

    def test_precomputed_gram_gives_the_same_contrast(self, tiny):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        X = _design(sel, tiny.Z)
        G = inference._gram(X)
        for j in (1, 2):
            a = contrast_for_coefficient(X, tiny.y, j, sigma=0.7)
            b = contrast_for_coefficient(X, tiny.y, j, sigma=0.7, gram=G)
            assert a.eta.tobytes() == b.eta.tobytes() and a.c.tobytes() == b.c.tobytes()
            assert (a.eta_y, a.eta_var) == (b.eta_y, b.eta_var)


class TestTruncationTiny:
    """Hand-checkable windows on the three-row dataset."""

    def _interval(self, tiny, j, prune=True):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        con = contrast_for_coefficient(_design(sel, tiny.Z), tiny.y, j, sigma=1.0)
        return con, truncation_points(sel, tiny, con, r=2, prune=prune)

    def test_first_coefficient(self, tiny):
        con, iv = self._interval(tiny, 1)
        assert (iv.v_minus, iv.v_plus) == (-0.5, 2.0)
        assert iv.v_minus <= con.eta_y <= iv.v_plus

    def test_second_coefficient(self, tiny):
        con, iv = self._interval(tiny, 2)
        assert (iv.v_minus, iv.v_plus) == (0.0, 5.0)

    def test_matches_oracle(self, tiny):
        for j in (1, 2):
            con, iv = self._interval(tiny, j)
            ref = oracle.oracle_truncation(
                marginal_screen(tiny, k=2, r=2)[0], tiny, con, r=2
            )
            assert (iv.v_minus, iv.v_plus) == (ref.v_minus, ref.v_plus)

    def test_active_constraints_recorded(self, tiny):
        _, iv = self._interval(tiny, 1)
        lo, hi = iv.argmin_info
        assert lo is not None and hi is not None
        assert {lo.kind, hi.kind} <= {"pair", "sign"}

    def test_pruning_neutrality(self, tiny):
        _, pruned = self._interval(tiny, 1, prune=True)
        _, full = self._interval(tiny, 1, prune=False)
        assert (pruned.v_minus, pruned.v_plus) == (full.v_minus, full.v_plus)
        assert pruned.metrics.nodes_visited <= full.metrics.nodes_visited


class TestTruncationRandom:
    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_equivalence(self, seed):
        rng = np.random.default_rng(4400 + seed)
        data = random_instance(rng)
        r = int(rng.integers(1, 4))
        D = total_feature_count(data.d, r)
        k = int(rng.integers(1, min(5, D) + 1))
        sel, _ = marginal_screen(data, k, r)
        X = _design(sel, data.Z)
        try:
            con = contrast_for_coefficient(X, data.y, int(rng.integers(1, k + 1)), sigma=1.0)
        except SingularGramError:
            return
        try:
            iv = truncation_points(sel, data, con, r)
        except DegenerateTruncationError:
            # the oracle must agree the window has no width
            ref = oracle.oracle_truncation(sel, data, con, r)
            assert not ref.v_minus < ref.v_plus or math.isclose(ref.v_minus, ref.v_plus)
            return
        ref = oracle.oracle_truncation(sel, data, con, r)
        for got, want in ((iv.v_minus, ref.v_minus), (iv.v_plus, ref.v_plus)):
            if math.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= 1e-9 * max(1.0, abs(got), abs(want))
        assert iv.v_minus <= con.eta_y <= iv.v_plus

    @pytest.mark.parametrize("seed", range(40))
    def test_reversed_contrast_mirrors_the_window(self, seed):
        # Lee et al.'s polyhedral lemma along -c: v_plus(c) = -v_minus(-c).
        # Negation is exact, so the reversed search must agree bit for bit,
        # except that an endpoint at exactly zero is +0.0 both ways (IEEE
        # rounds an exact cancellation eta_y + ratio = 0 to +0.0); "+ 0.0"
        # maps -0.0 to +0.0 and leaves every other float as it is.
        rng = np.random.default_rng(7100 + seed)
        data = random_instance(rng)
        r = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(5, total_feature_count(data.d, r)) + 1))
        sel, _ = marginal_screen(data, k, r)
        X = _design(sel, data.Z)
        for j in range(1, k + 1):
            try:
                con = contrast_for_coefficient(X, data.y, j, sigma=1.0)
            except SingularGramError:
                return
            rev = inference.Contrast(-con.eta, -con.eta_y, con.eta_var, -con.c)
            for prune in (True, False):
                try:
                    iv = truncation_points(sel, data, con, r, prune=prune)
                except (DegenerateTruncationError, InternalConsistencyError) as exc:
                    with pytest.raises(type(exc)):
                        truncation_points(sel, data, rev, r, prune=prune)
                    continue
                mirror = truncation_points(sel, data, rev, r, prune=prune)
                assert float.hex(mirror.v_minus + 0.0) == float.hex(-iv.v_plus + 0.0)
                assert float.hex(mirror.v_plus + 0.0) == float.hex(-iv.v_minus + 0.0)
                assert mirror.argmin_info == iv.argmin_info[::-1]
                assert mirror.metrics.nodes_visited == iv.metrics.nodes_visited

    def test_detects_foreign_observation(self, tiny):
        # Constraints built from one selection, evaluated on data whose
        # screening would pick something else entirely.
        sel, _ = marginal_screen(tiny, k=2, r=2)
        other = Dataset(tiny.Z, -10.0 * tiny.y + 3.0)
        con = contrast_for_coefficient(_design(sel, other.Z), other.y, 1, sigma=1.0)
        with pytest.raises(InternalConsistencyError):
            truncation_points(sel, other, con, r=2)


def _window(iv):
    """An interval's endpoints as float.hex, its active constraints and its
    visit count: everything a shared walk must reproduce bit for bit."""
    return (float.hex(iv.v_minus), float.hex(iv.v_plus), iv.argmin_info,
            iv.metrics.nodes_visited)


def _unconstrained(con):
    # A zero slice direction makes every constraint's denominator zero, so
    # nothing truncates: the window is (-inf, inf) on any data.
    return inference.Contrast(con.eta, con.eta_y, con.eta_var, np.zeros_like(con.c))


class TestJointWalk:
    """One walk for all k contrasts gives every contrast exactly what a walk
    for it alone gives."""

    def _check(self, sel, data, cons, r):
        for prune in (True, False):
            alone, first_error = [], None
            for con in cons:
                try:
                    alone.append(_window(truncation_points(sel, data, con, r, prune=prune)))
                except (DegenerateTruncationError, InternalConsistencyError) as exc:
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                with pytest.raises(type(first_error)) as err:
                    truncation_windows(sel, data, cons, r, prune)
                assert str(err.value) == str(first_error)
                continue
            joint = truncation_windows(sel, data, cons, r, prune)
            assert [_window(iv) for iv in joint] == alone

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(5300 + seed)
        data = random_instance(rng)
        r = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(5, total_feature_count(data.d, r)) + 1))
        sel, _ = marginal_screen(data, k, r)
        X = _design(sel, data.Z)
        try:
            cons = [contrast_for_coefficient(X, data.y, j, sigma=1.0) for j in range(1, k + 1)]
        except SingularGramError:
            return
        self._check(sel, data, cons, r)

    @pytest.mark.parametrize("n, d, sparsity", [(100, 50, 0.5), (400, 100, 0.9)],
                             ids=["d50", "d100"])
    def test_benchmark_shapes(self, n, d, sparsity):
        spec = SyntheticSpec(n=n, d=d, r=3, k=10, sparsity=sparsity, sigma=0.1, seed=3)
        data = gen_synthetic(spec, 0)
        sel, _ = marginal_screen(data, 10, 3)
        X = _design(sel, data.Z)
        cons = [contrast_for_coefficient(X, data.y, j, sigma=0.1) for j in range(1, 11)]
        self._check(sel, data, cons, 3)

    def test_foreign_observation_second_raises_its_own_error(self, tiny):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        other = Dataset(tiny.Z, -10.0 * tiny.y + 3.0)
        X = _design(sel, other.Z)
        first, second = (contrast_for_coefficient(X, other.y, j, sigma=1.0) for j in (1, 2))
        # Both real contrasts fail, with different messages; the joint walk
        # reports the first failing contrast's, as separate calls in order do.
        for cons, failing in (
            ([_unconstrained(first), second], second),
            ([first, second], first),
            ([second, first], second),
        ):
            with pytest.raises(InternalConsistencyError) as alone:
                truncation_points(sel, other, failing, r=2)
            with pytest.raises(InternalConsistencyError) as joint:
                truncation_windows(sel, other, cons, r=2)
            assert str(joint.value) == str(alone.value)

    def test_degenerate_second_raises_its_own_error(self):
        Z = np.array([[0.5, 0.0, 1.0], [0.5, 0.75, 0.25]])
        data = Dataset(Z, np.array([0.5, 1.0]))
        sel, _ = marginal_screen(data, k=1, r=1)
        con = contrast_for_coefficient(_design(sel, data.Z), data.y, 1, sigma=1.0)
        with pytest.raises(DegenerateTruncationError) as alone:
            truncation_points(sel, data, con, r=1)
        with pytest.raises(DegenerateTruncationError) as joint:
            truncation_windows(sel, data, [_unconstrained(con), con], r=1)
        assert str(joint.value) == str(alone.value)
        first = truncation_points(sel, data, _unconstrained(con), r=1)
        assert (first.v_minus, first.v_plus) == (-math.inf, math.inf)

    def test_infer_walks_the_tree_once(self, monkeypatch):
        walk, states = inference.walk_tree, []

        def counting_walk(ZT, r, W, V, node, state):
            states.append(state.shape)
            return walk(ZT, r, W, V, node, state)

        monkeypatch.setattr(inference, "walk_tree", counting_walk)
        spec = SyntheticSpec(n=100, d=20, r=3, k=5, sparsity=0.5, sigma=0.1, seed=2)
        report = infer(gen_synthetic(spec, 0), spec.config())
        assert len(report.features) == 5
        # one walk, carrying (contrast, endpoint, orientation, feature) masks
        assert states == [(5, 2, 2, 5)]

    @staticmethod
    def _visits(seeded, **shape):
        # Per contrast, the visits of the seed-1 instance's walk, with the
        # runners-up that seed its gates or with them stripped.
        spec = SyntheticSpec(sigma=0.1, seed=1, k=10, **shape)
        data = gen_synthetic(spec, 0)
        report = infer(data, spec.config(), screened=None if seeded else unseeded(data, 10, spec.r))
        return [f.interval.metrics.nodes_visited for f in report.features], report

    # The three pins below walk with the runners-up stripped, so they pin
    # the gates alone; the seeded pins after them pin the seeds' effect.

    def test_visit_counts_are_pinned(self):
        # A walk that gates a child against an incumbent older than the live
        # one still gets the windows right but enters more subtrees; these
        # are the counts of one walk per contrast that re-tests every child
        # against the live incumbents.
        visits, report = self._visits(False, n=100, d=100, r=3, sparsity=0.9)
        assert visits == [
            17627, 14046, 14359, 13828, 13595, 20111, 13395, 12473, 15570, 17737
        ]
        assert {f.interval.metrics.total_nodes for f in report.features} == {10 * 166_750}


    def test_visit_counts_are_pinned_on_the_criterion_5_shape(self):
        # At sparsity 0.5 most expanded nodes are parents of leaves, so these
        # counts pin the leaf gate's replay: a cleared sibling's visits must
        # be counted against the live floors, as the per-node walk does.
        visits, _ = self._visits(False, n=100, d=50, r=3, sparsity=0.5)
        assert visits == [
            78132, 64352, 93059, 76285, 67926, 72339, 66373, 85150, 78188, 64941
        ]

    def test_visit_counts_are_pinned_at_order_4(self):
        # At r = 4 the subtree gate's compact child index runs at two levels
        # above the leaf gate, and at the lower one it is carried into the
        # leaf gate's replay.
        visits, _ = self._visits(False, n=100, d=30, r=4, sparsity=0.5)
        assert visits == [
            34394, 26482, 33407, 25751, 26613, 31729, 36103, 20513, 30856, 28003
        ]

    @pytest.mark.parametrize("shape, want", [
        (dict(n=100, d=100, r=3, sparsity=0.9),
         [17627, 14046, 14359, 13828, 13595, 20111, 13395, 12473, 15570, 17737]),
        (dict(n=100, d=50, r=3, sparsity=0.5),
         [61338, 60817, 83166, 57860, 58167, 60694, 56256, 53942, 63060, 50815]),
        (dict(n=100, d=30, r=4, sparsity=0.5),
         [20918, 22722, 21327, 19745, 21313, 21815, 19982, 19458, 19105, 22212]),
    ], ids=["d100", "criterion5", "order4"])
    def test_seeded_visit_counts_are_pinned(self, shape, want):
        # The walk infer runs, its gates seeded from screening's runners-up.
        # At sparsity 0.9 the sign rows already prune what the seeds would.
        assert self._visits(True, **shape)[0] == want

    def test_seeds_cut_visits_on_the_criterion_5_shape(self):
        # A seed hook that silently does nothing passes every exactness
        # test; here every contrast's walk must visit strictly fewer nodes.
        shape = dict(n=100, d=50, r=3, sparsity=0.5)
        seeded, stripped = self._visits(True, **shape)[0], self._visits(False, **shape)[0]
        assert all(a < b for a, b in zip(seeded, stripped))


def _ternary_instance(seed):
    """Binary Z and y in {-1, 0, 1}, heavy with ties, and r = 2, 3 or 4, so
    that the leaf gate runs at the root, at depth 1 or at depth 2."""
    rng = np.random.default_rng(seed)
    r = 2 + seed % 3
    n = int(rng.integers(6, 25))
    d = int(rng.integers(r + 1, 9))
    Z = (rng.random((n, d)) < rng.uniform(0.3, 0.8)).astype(np.float64)
    y = rng.integers(-1, 2, n).astype(np.float64)
    return Dataset(Z, y), r, int(rng.integers(1, 5))


def _windows_or_error(sel, data, cons, r, prune):
    try:
        ivs = truncation_windows(sel, data, cons, r, prune)
    except (DegenerateTruncationError, InternalConsistencyError) as exc:
        return type(exc), str(exc)
    return [(float.hex(iv.v_minus), float.hex(iv.v_plus), iv.argmin_info) for iv in ivs]


def _assert_exact(data, r, k, seed):
    """The pruned walk gives the unpruned walk's windows, active constraints
    and errors, and the oracle's windows."""
    sel, _ = marginal_screen(data, k, r)
    try:
        cons = [contrast_for_coefficient(_design(sel, data.Z), data.y, j, sigma=1.0)
                for j in range(1, k + 1)]
    except SingularGramError:
        cons = []
    # An integer slice direction keeps every sum and denominator exact on an
    # integer y, so the oracle's ratios are the walk's bit for bit.
    c = np.random.default_rng(seed).integers(-2, 3, data.n).astype(np.float64)
    lattice = inference.Contrast(c, 0.0, 1.0, c)
    integral = bool(np.all(data.y == np.round(data.y)))
    for group in (cons, [lattice]):
        if not group:
            continue
        pruned = _windows_or_error(sel, data, group, r, True)
        assert pruned == _windows_or_error(sel, data, group, r, False)
        if isinstance(pruned, tuple):
            continue
        for con, (lo, hi, _) in zip(group, pruned):
            ref = oracle.oracle_truncation(sel, data, con, r)
            want = (float.hex(ref.v_minus), float.hex(ref.v_plus))
            if con is lattice and integral:
                assert (lo, hi) == want
            else:
                for got, w in zip((lo, hi), want):
                    got, w = float.fromhex(got), float.fromhex(w)
                    assert got == w or abs(got - w) <= 1e-9 * max(1.0, abs(got), abs(w))


def _report_or_error(data, k, r, screened, prune):
    """``emit_report`` of ``infer`` in both formats, or the typed error."""
    try:
        report = infer(data, ModelConfig(r=r, k=k, sigma=1.0), prune=prune, screened=screened)
    except (ValueError, DegenerateTruncationError, InternalConsistencyError) as exc:
        return type(exc), str(exc)
    names = [f"z{j}" for j in range(1, data.d + 1)]
    out = []
    for fmt in ("json", "csv"):
        buf = io.StringIO()
        emit_report(report, names, buf, fmt)
        out.append(buf.getvalue())
    return out


class TestSeeds:
    """Screening's runners-up seed the truncation walk's gates, which must
    change no window, active constraint, error or report byte."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_seeds_change_no_output(self, seed):
        # Every other instance is binary with y in {-1, 0, 1}, heavy with
        # ties; the others mix binary and continuous Z and integer and
        # continuous y.
        if seed % 2:
            data, r, k = _ternary_instance(seed)
        else:
            rng = np.random.default_rng(seed)
            data = random_instance(rng, n_max=40, d_max=9)
            r = int(rng.integers(1, 4))
            k = int(rng.integers(1, min(6, total_feature_count(data.d, r)) + 1))
        c = np.random.default_rng(seed).integers(-2, 3, data.n).astype(np.float64)
        lattice = inference.Contrast(c, 0.0, 1.0, c)
        for screen_prune in (True, False):
            sel, sm = marginal_screen(data, k, r, prune=screen_prune)
            bare = dataclasses.replace(sel, runners_up=())
            try:
                cons = [contrast_for_coefficient(_design(sel, data.Z), data.y, j, sigma=1.0)
                        for j in range(1, k + 1)]
            except SingularGramError:
                cons = []
            for prune in (True, False):
                for group in (cons, [lattice]):
                    if group:
                        assert (_windows_or_error(sel, data, group, r, prune)
                                == _windows_or_error(bare, data, group, r, prune))
                assert (_report_or_error(data, k, r, (sel, sm), prune)
                        == _report_or_error(data, k, r, (bare, sm), prune))

    @pytest.mark.parametrize("seed", range(2, 6))
    def test_criterion_5_shape_reports_alike(self, seed):
        spec = SyntheticSpec(n=100, d=50, r=3, k=10, sparsity=0.5, sigma=0.1, seed=seed)
        data = gen_synthetic(spec, 0)
        got = _report_or_error(data, 10, 3, marginal_screen(data, 10, 3), True)
        assert got == _report_or_error(data, 10, 3, unseeded(data, 10, 3), True)
        assert got == _report_or_error(data, 10, 3, None, False)

    def test_foreign_runners_up_are_ignored(self, tiny):
        # Runners-up that name a selected itemset or one above order r
        # form no constraint of the walk, and seed nothing.
        sel, _ = marginal_screen(tiny, k=2, r=2)
        cons = [contrast_for_coefficient(_design(sel, tiny.Z), tiny.y, j, sigma=1.0)
                for j in (1, 2)]
        want = _windows_or_error(dataclasses.replace(sel, runners_up=()), tiny, cons, 2, True)
        for odd in (sel.selected[0], itemsets.Itemset((1, 2, 3))):
            foreign = dataclasses.replace(sel, runners_up=((odd, 0.0),))
            assert _windows_or_error(foreign, tiny, cons, 2, True) == want


class TestLeafGate:
    """The pruned walk expands a parent of leaves only where its gate says an
    incumbent can move; that must change no window, active constraint or
    error."""

    @pytest.mark.parametrize("seed", range(6100, 6130))
    def test_matches_the_unpruned_walk_and_the_oracle(self, seed):
        _assert_exact(*_ternary_instance(seed), seed)

    def test_gate_under_an_unset_incumbent(self):
        # At r = 2 the gate runs at the root right after the singletons'
        # offers, which is where an r = 1 walk ends.  Here an endpoint that
        # is still infinite at r = 1 is set by a pair at r = 2, so the gate
        # ran while that incumbent was -inf and had to flag its sibling.
        data, r, k = _ternary_instance(6105)
        assert r == 2
        sel, _ = marginal_screen(data, k, r)
        X = _design(sel, data.Z)
        cons = [contrast_for_coefficient(X, data.y, j, sigma=1.0) for j in range(1, k + 1)]
        at_gate = truncation_windows(sel, data, cons, 1)
        final = truncation_windows(sel, data, cons, 2)
        assert any(
            math.isinf(a) and math.isfinite(b)
            for before, after in zip(at_gate, final)
            for a, b in ((before.v_minus, after.v_minus), (before.v_plus, after.v_plus))
        )
        assert _windows_or_error(sel, data, cons, r, True) == _windows_or_error(
            sel, data, cons, r, False
        )


def _sparse_instance(seed):
    """Binary Z at sparsity 0.7-0.9, y in {-1, 0, 1}, d = 12..20 and r = 3
    or 4: wide and sparse enough that the gates above the leaf level rule
    out most children, and small enough for the oracle."""
    rng = np.random.default_rng(seed)
    r = 3 + seed % 2
    n = int(rng.integers(30, 61))
    d = int(rng.integers(12, 21))
    Z = (rng.random((n, d)) >= rng.uniform(0.7, 0.9)).astype(np.float64)
    y = rng.integers(-1, 2, n).astype(np.float64)
    return Dataset(Z, y), r, int(rng.integers(1, 6))


class TestGatesAboveTheLeafLevel:
    """The offer gate and the subtree gate skip the arithmetic of the
    children that cannot move an incumbent or pass the subtree bound; that
    must change no window, active constraint or error."""

    @pytest.mark.parametrize("seed", range(6200, 6224))
    def test_matches_the_unpruned_walk_and_the_oracle(self, seed):
        _assert_exact(*_sparse_instance(seed), seed)


def _chunk_instance(seed):
    """Binary Z at sparsity 0.75-0.9, d = 12..18 and r = 3 or 4, so that the
    chunk level runs at the root or at depth 1 over siblings of which some
    are idle and some busy.  Even seeds draw y in {-1, 0, 1}, whose scores
    and ratios tie, odd seeds a Gaussian y.  Column 1 is all ones on seeds
    with ``seed % 4 < 2``; a middle column is all zeros (a sibling with an
    empty support) on seeds with ``seed % 3 == 0``; and the last column
    always names a sibling with no children."""
    rng = np.random.default_rng(seed)
    r = 3 + seed % 2
    n = int(rng.integers(40, 81))
    d = int(rng.integers(12, 19))
    Z = (rng.random((n, d)) >= rng.uniform(0.75, 0.9)).astype(np.float64)
    if seed % 4 < 2:
        Z[:, 0] = 1.0
    if seed % 3 == 0:
        Z[:, d // 2] = 0.0
    y = rng.integers(-1, 2, n).astype(np.float64) if seed % 2 == 0 else rng.standard_normal(n)
    return Dataset(Z, y), r, int(rng.integers(1, 6))


class TestChunkLevel:
    """The walker settles the idle children of a node at depth r - 3 in
    bulk; that must change no window, active constraint, error or visit
    count.  A budget of 40 cells cuts the siblings into many chunks, lone
    siblings among them, and a budget of 0 makes every chunk a lone
    sibling, which is never tested: the walk without the chunk level."""

    @staticmethod
    def _visits(data, r, k, seed):
        sel, screened = marginal_screen(data, k, r)
        c = np.random.default_rng(seed).integers(-2, 3, data.n).astype(np.float64)
        try:
            iv, = truncation_windows(sel, data, [inference.Contrast(c, 0.0, 1.0, c)], r)
        except (DegenerateTruncationError, InternalConsistencyError) as exc:
            return type(exc)
        return iv.metrics.nodes_visited, screened.nodes_visited, screened.exact_scores

    @pytest.mark.parametrize("cells", [itemsets._SETTLE_CELLS, 40])
    @pytest.mark.parametrize("seed", range(6300, 6318))
    def test_matches_the_unpruned_walk_and_the_oracle(self, monkeypatch, seed, cells):
        data, r, k = _chunk_instance(seed)
        monkeypatch.setattr(itemsets, "_SETTLE_CELLS", 0)
        unchunked = self._visits(data, r, k, seed)
        monkeypatch.setattr(itemsets, "_SETTLE_CELLS", cells)
        _assert_exact(data, r, k, seed)
        assert self._visits(data, r, k, seed) == unchunked

    def test_no_subtree_stage_one_moves_no_incumbent(self, monkeypatch):
        # The chunk level tests the subtree gate's stage one alone: a child's
        # own ratio is one its subtree bound covers, so a node at depth r - 2
        # none of whose children passes that stage moves no incumbent.  The
        # walk without the chunk level calls every such node; each is tested
        # with the stage one from its own closure before it runs, and its
        # ``floor`` is a new array iff an offer moved an incumbent.
        monkeypatch.setattr(itemsets, "_SETTLE_CELLS", 0)
        walk = inference.walk_tree
        checked = []

        def checking_walk(ZT, r, W, V, node, state):
            cells = dict(zip(node.__code__.co_freevars, node.__closure__))

            def checked_node(parent, start, col, sums, act, leaves):
                if len(parent) + 2 != r:
                    return node(parent, start, col, sums, act, leaves)
                most = sums[:, 2:]
                idle = not cells["subtree_hits"].cell_contents(most, act[:, :, :, None]).any()
                floor = cells["floor"].cell_contents
                out = node(parent, start, col, sums, act, leaves)
                if idle:
                    checked.append(parent)
                    assert cells["floor"].cell_contents is floor, parent
                return out

            return walk(ZT, r, W, V, checked_node, state)

        monkeypatch.setattr(inference, "walk_tree", checking_walk)
        for seed in range(6300, 6318):
            self._visits(*_chunk_instance(seed), seed)
        assert len(checked) >= 50

    def test_the_cases_mix_idle_and_busy_siblings(self, monkeypatch):
        # Across the seeds both searches settle some siblings in bulk and
        # hand others to ``node``.
        seen = {mod: record_expanded(monkeypatch, mod) for mod in (inference, screening)}
        settled, reached = [0, 0], [0, 0]
        for seed in range(6300, 6318):
            data, r, k = _chunk_instance(seed)
            for walk in seen.values():
                walk.clear()
            sel, metrics = screening.marginal_screen(data, k, r)
            c = np.random.default_rng(seed).integers(-2, 3, data.n).astype(np.float64)
            try:
                iv, = truncation_windows(sel, data, [inference.Contrast(c, 0.0, 1.0, c)], r)
            except (DegenerateTruncationError, InternalConsistencyError):
                iv = None
            for i, (m, mod) in enumerate(((metrics, screening), (iv and iv.metrics, inference))):
                if m is not None:
                    settled[i] += m.settled
                    reached[i] += sum(len(p) == r - 2 for p in seen[mod])
        assert min(settled) >= 10 and min(reached) >= 10


def _support_instance(seed):
    """Binary Z at sparsity 0.85-0.9 with 600-800 rows and r = 2, 3 or 4.
    Even seeds draw a Gaussian y, odd seeds a ternary one, whose sums are
    exact and whose ratios tie.  Half the seeds make column 1 all ones, so
    that node {1} has every row in its support."""
    rng = np.random.default_rng(seed)
    r = 2 + seed % 3
    n = int(rng.integers(600, 801))
    d = {2: 24, 3: 12, 4: 9}[r]
    Z = (rng.random((n, d)) >= rng.uniform(0.85, 0.9)).astype(np.float64)
    if seed % 4 < 2:
        Z[:, 0] = 1.0
    y = rng.standard_normal(n) if seed % 2 == 0 else rng.integers(-1, 2, n).astype(np.float64)
    return Dataset(Z, y), r, int(rng.integers(1, 6))


def _rounding_differs(data, r, k):
    """Whether some order-1 node's children get other bits from a product
    over the node's support than from one over all n rows, with W = [y, c]
    for the first contrast's c."""
    sel, _ = marginal_screen(data, k, r)
    X = _design(sel, data.Z)
    c = contrast_for_coefficient(X, data.y, 1, sigma=1.0).c
    W = np.stack([data.y, c], axis=1)
    ZT = np.ascontiguousarray(data.Z.T)
    for j in range(1, data.d):
        col = ZT[j - 1]
        rows = np.flatnonzero(col)
        full = (ZT[j:] * col) @ W
        support = (ZT[j:, rows] * col[rows]) @ W[rows]
        if not np.array_equal(full, support):
            return True
    return False


class TestSupportStep:
    """Each node of the truncation walk forms its children's sums from one
    product over its support, with pruning on or off.  The support sums
    round differently from full-row sums, such as the oracle's; that must
    change no window, active constraint or error."""

    @pytest.mark.parametrize("seed", range(6300, 6318))
    def test_matches_the_unpruned_walk_and_the_oracle(self, seed):
        data, r, k = _support_instance(seed)
        _assert_exact(data, r, k, seed)

    @pytest.mark.parametrize("seed", [6300, 6302, 6304, 6306])
    def test_support_sums_round_differently(self, seed):
        # The Gaussian instances above reach the rounding hazard: the walk
        # sees other bits than full-row sums would give.
        assert _rounding_differs(*_support_instance(seed))

    def test_margin(self):
        # k = 1 and r = 3.  y_2 is chosen so that the pair ratio of child
        # {1,4} of node {1} beats the incumbent set by {3} at the root by
        # two ulps, while the P - Q test on the sums over {1}'s support
        # rounds the other way (OpenBLAS on x86-64).  Only the prune_floor
        # margin of the offer gate keeps that child.
        rng = np.random.default_rng(16)
        n, d = int(rng.integers(6, 14)), int(rng.integers(3, 6))
        Z = (rng.random((n, d)) < 0.5).astype(np.float64)
        y = rng.standard_normal(n)
        y[1] = float.fromhex("-0x1.fe476830b7244p+0")
        data = Dataset(Z, y)
        _assert_exact(data, 3, 1, 16)
        sel, _ = marginal_screen(data, 1, 3)
        con = contrast_for_coefficient(_design(sel, Z), y, 1, sigma=1.0)
        lo, _ = truncation_points(sel, data, con, 3).argmin_info
        assert (lo.j.indices, lo.ell.indices, lo.case) == ((2,), (1, 4), "C2")

    @pytest.mark.parametrize("r", [3, 4])
    def test_node_with_empty_support(self, r):
        # Columns 1 and 3 are zero.  Node {1} has an empty support, yet its
        # subtree bound -kappa_j / |rho_j| can reach a floor, so the walk
        # enters it and gates its leaf parents on zero rows.
        rng = np.random.default_rng(5)
        Z = (rng.random((12, 6)) < 0.5).astype(np.float64)
        Z[:, [0, 2]] = 0.0
        y = rng.integers(-1, 2, 12).astype(np.float64)
        _assert_exact(Dataset(Z, y), r, 3, 5)

    def test_unpruned_walk_forms_a_block_at_every_scored_node(self, monkeypatch):
        # The walker hands ``node`` the root and every node of order 1..r-1
        # that has children, i.e. every itemset without index d, and forms
        # each one's block.
        seen = record_expanded(monkeypatch, inference)
        spec = SyntheticSpec(n=60, d=9, r=3, k=4, sparsity=0.5, sigma=0.1, seed=4)
        infer(gen_synthetic(spec, 0), spec.config(), prune=False)
        assert len(seen) == 1 + math.comb(8, 1) + math.comb(8, 2)


def _ulps(x, count):
    """``count`` consecutive doubles either side of x, and x."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


class TestNormalCdf:
    """``ndtr`` and ``log_ndtr`` against 50-digit mpmath."""

    # A grid over [-1e150, 40] and the doubles around every branch switch:
    # ndtr's at x = +-1, log_ndtr's at -37 and -1.
    GRID = sorted(
        {float(x) for x in -np.logspace(150, math.log10(40.0), 300)}
        | {float(x) for x in np.linspace(-40.0, 40.0, 1601)}
        | {x for s in (-37.0, -1.0, 1.0) for x in _ulps(s, 3)}
    )

    @staticmethod
    def _log_phi(x):
        X = mpmath.mpf(x)
        if x > 0:  # log(1 - tiny) would round to 0 at 50 digits
            return mpmath.log1p(-mpmath.ncdf(-X))
        return mpmath.log(mpmath.ncdf(X))

    @staticmethod
    def _close(got, want):
        # Relative error 1e-14 where the rounded reference is a normal double;
        # a subnormal one has too few digits, so allow 2 of its ulps.
        want = float(want)
        tol = 1e-14 * abs(want) if abs(want) >= sys.float_info.min else 2 * math.ulp(0.0)
        return abs(got - want) <= tol

    def test_ndtr_matches_mpmath(self):
        with mpmath.workdps(50):
            bad = [
                x for x in self.GRID
                if mpmath.ncdf(x) >= 1e-300
                and not self._close(inference.ndtr(x), mpmath.ncdf(x))
            ]
        assert bad == []

    def test_log_ndtr_matches_mpmath(self):
        with mpmath.workdps(50):
            bad = [x for x in self.GRID if not self._close(inference.log_ndtr(x), self._log_phi(x))]
        assert bad == []

    @pytest.mark.parametrize("switch", [-37.0, -1.0, 1.0])
    def test_monotone_across_the_switch_points(self, switch):
        xs = _ulps(switch, 50)
        for f in (inference.ndtr, inference.log_ndtr):
            vals = [f(x) for x in xs]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_signed_zero_and_infinity(self):
        assert inference.ndtr(-math.inf) == 0.0
        assert inference.ndtr(math.inf) == 1.0
        assert inference.log_ndtr(-math.inf) == -math.inf
        assert inference.log_ndtr(math.inf) == 0.0
        assert inference.ndtr(0.0) == inference.ndtr(-0.0) == 0.5
        assert inference.log_ndtr(0.0) == inference.log_ndtr(-0.0) == -math.log(2.0)

    def test_agrees_with_scipy_in_the_bulk(self):
        from scipy.special import log_ndtr, ndtr

        # scipy rounds x/sqrt(2) once, which costs it up to x^2/2 ulps.
        for x in map(float, np.linspace(-8.0, 8.0, 161)):
            assert inference.ndtr(x) == pytest.approx(float(ndtr(x)), rel=1e-13, abs=0.0)
            assert inference.log_ndtr(x) == pytest.approx(float(log_ndtr(x)), rel=1e-13, abs=0.0)


class TestTruncNormCdf:
    def test_endpoints(self):
        assert trunc_norm_cdf(-1.0, 0.0, 1.0, -1.0, 1.0) == 0.0
        assert trunc_norm_cdf(1.0, 0.0, 1.0, -1.0, 1.0) == 1.0

    def test_symmetry(self):
        assert trunc_norm_cdf(0.0, 0.0, 1.0, -3.0, 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_reference_value(self):
        # independently computed with an 80-digit integrator
        assert trunc_norm_cdf(1.0, 0.0, 1.0, 0.0, 2.0) == pytest.approx(
            0.7152327720109063, abs=1e-15
        )

    def test_open_window_is_plain_normal_cdf(self):
        from scipy.special import ndtr

        x = 0.731
        got = trunc_norm_cdf(x, 0.0, 1.0, -math.inf, math.inf)
        assert got == pytest.approx(float(ndtr(x)), abs=1e-15)

    def test_deep_tail_window(self):
        # windows entirely beyond 6 sigma: naive Phi differences return 0/0
        got = trunc_norm_cdf(8.25, 0.0, 1.0, 8.0, 9.0)
        want = float(oracle.reference_trunc_norm_cdf(8.25, 0.0, 1.0, 8.0, 9.0))
        assert got == pytest.approx(want, abs=1e-12)

    def test_narrow_window(self):
        v, w = -0.18323559716199697, -0.1832355870326267
        x = v + 0.25 * (w - v)
        want = float(oracle.reference_trunc_norm_cdf(x, 0.0, 1.0, v, w))
        assert trunc_norm_cdf(x, 0.0, 1.0, v, w) == pytest.approx(want, abs=1e-12)

    @given(
        x=st.floats(-1.99, 1.99),
        mean=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_x(self, x, mean):
        lo = trunc_norm_cdf(x, mean, 1.3, -2.0, 2.0)
        hi = trunc_norm_cdf(min(x + 0.25, 2.0), mean, 1.3, -2.0, 2.0)
        assert lo <= hi

    def test_strictly_decreasing_in_mean(self):
        means = np.linspace(-4.0, 4.0, 81)
        vals = [trunc_norm_cdf(0.3, m, 1.0, -1.0, 2.0) for m in means]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            trunc_norm_cdf(0.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            trunc_norm_cdf(0.0, 0.0, 0.0, -1.0, 1.0)


class TestPValuesAndIntervals:
    def test_pvalue_is_two_sided(self, tiny):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        con = contrast_for_coefficient(_design(sel, tiny.Z), tiny.y, 1, sigma=1.0)
        iv = truncation_points(sel, tiny, con, r=2)
        pivot = trunc_norm_cdf(con.eta_y, 0.0, con.eta_var, iv.v_minus, iv.v_plus)
        got_pivot, p_value = selective_pvalue(con.eta_y, con.eta_var, iv)
        assert got_pivot == pivot
        assert p_value == pytest.approx(2.0 * min(pivot, 1.0 - pivot))

    def test_infer_takes_each_pivot_from_selective_pvalue(self, monkeypatch):
        # selective_pvalue is the one pivot function: infer calls it through
        # the module attribute, once per selected feature, and reports the
        # pair it returns.
        pairs = []
        real = inference.selective_pvalue

        def counted(eta_y, eta_var, interval):
            pairs.append(real(eta_y, eta_var, interval))
            return pairs[-1]

        monkeypatch.setattr(inference, "selective_pvalue", counted)
        spec = SyntheticSpec(n=60, d=8, r=2, k=4, sparsity=0.5, sigma=0.5,
                             truth={(1, 2): 1.0}, seed=3)
        report = infer(gen_synthetic(spec, 0), spec.config())
        assert len(pairs) == len(report.features) == 4
        assert [(f.pivot, f.p_value) for f in report.features] == pairs

    def test_pvalue_outside_window_is_inconsistent(self, tiny):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        con = contrast_for_coefficient(_design(sel, tiny.Z), tiny.y, 1, sigma=1.0)
        iv = truncation_points(sel, tiny, con, r=2)
        with pytest.raises(InternalConsistencyError):
            selective_pvalue(iv.v_plus + 1.0, con.eta_var, iv)

    def test_interval_inverts_the_pivot(self, tiny):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        con = contrast_for_coefficient(_design(sel, tiny.Z), tiny.y, 1, sigma=1.0)
        iv = truncation_points(sel, tiny, con, r=2)
        lo, hi = selective_interval(con.eta_y, con.eta_var, iv, alpha=0.1)
        s = math.sqrt(con.eta_var)
        assert trunc_norm_cdf(con.eta_y, lo, con.eta_var, iv.v_minus, iv.v_plus) == pytest.approx(
            0.95, abs=1e-6
        )
        assert trunc_norm_cdf(con.eta_y, hi, con.eta_var, iv.v_minus, iv.v_plus) == pytest.approx(
            0.05, abs=1e-6
        )
        assert lo < con.eta_y < hi or lo <= hi  # ordered
        assert hi - lo < 100 * s

    def test_no_truncation_reduces_to_classical(self):
        # With an unconstrained window the selective interval must equal
        # eta_y -+ z_{alpha/2} * sd.
        from selectree.inference import TruncationInterval

        iv = TruncationInterval(-math.inf, math.inf, (None, None), None)
        eta_y, eta_var = 1.3, 0.49
        lo, hi = selective_interval(eta_y, eta_var, iv, alpha=0.05)
        z = 1.959963984540054  # Phi^{-1}(0.975)
        assert lo == pytest.approx(eta_y - z * 0.7, abs=1e-7)
        assert hi == pytest.approx(eta_y + z * 0.7, abs=1e-7)


class TestInfer:
    def test_report_shape(self, tiny):
        report = infer(tiny, ModelConfig(r=2, k=2, sigma=1.0))
        assert len(report.features) == 2
        f = report.features[0]
        assert f.itemset.indices == (1,)
        assert f.interval.v_minus <= f.interval.v_plus
        assert 0.0 <= f.p_value <= 1.0
        assert f.significant == (f.p_value < 0.05)
        assert f.ci_low <= f.beta_hat + 1e-9

    def test_requires_noise_model(self, tiny):
        with pytest.raises(ValueError):
            infer(tiny, ModelConfig(r=2, k=2))

    def test_degenerate_tie_raises(self):
        # Three columns tie exactly at the k-th score (all values dyadic, so
        # the float dot products tie bit-for-bit).  The two runner-up
        # constraints are tight with opposite-sign projections onto c, which
        # pinches the window to the single point eta_y.
        Z = np.array([[0.5, 0.0, 1.0], [0.5, 0.75, 0.25]])
        y = np.array([0.5, 1.0])
        data = Dataset(Z, y)
        sel, _ = marginal_screen(data, k=1, r=1)
        assert sel.selected[0].indices == (1,)
        X = _design(sel, data.Z)
        con = contrast_for_coefficient(X, data.y, 1, sigma=1.0)
        with pytest.raises(DegenerateTruncationError):
            truncation_points(sel, data, con, r=1)

    def test_interval_respects_coverage_direction(self, tiny):
        # CI from inverting at alpha: lower bound below eta_y's implied
        # coefficient, upper above (sanity for one concrete case).
        report = infer(tiny, ModelConfig(r=2, k=2, sigma=1.0, alpha=0.2))
        for f in report.features:
            assert f.ci_low < f.ci_high

    def test_precomputed_screening_is_used_instead_of_screening_again(
        self, tiny, monkeypatch
    ):
        calls = []

        def counting_screen(*args, **kwargs):
            calls.append(args)
            return marginal_screen(*args, **kwargs)

        monkeypatch.setattr(inference, "marginal_screen", counting_screen)
        config = ModelConfig(r=2, k=2, sigma=1.0)
        fresh = inference.infer(tiny, config)
        assert len(calls) == 1
        screened = marginal_screen(tiny, 2, 2)
        reused = inference.infer(tiny, config, screened=screened)
        assert len(calls) == 1
        assert reused.screening == fresh.screening
        assert reused.screen_metrics is screened[1]

        def rows(report):
            return [
                (f.itemset, f.beta_hat, f.interval.v_minus, f.interval.v_plus,
                 f.interval.argmin_info, f.pivot, f.p_value, f.ci_low, f.ci_high)
                for f in report.features
            ]

        assert rows(reused) == rows(fresh)

    def test_checks_the_gram_matrix_once(self, monkeypatch):
        # The k contrasts share one design, so X'X and its condition number
        # are formed once.
        calls = []
        gram = inference._gram
        monkeypatch.setattr(inference, "_gram", lambda X: calls.append(X) or gram(X))
        spec = SyntheticSpec(n=60, d=9, r=3, k=4, sparsity=0.5, sigma=0.1, seed=4)
        infer(gen_synthetic(spec, 0), spec.config())
        assert len(calls) == 1

    def test_precomputed_screening_must_match_k(self, tiny):
        with pytest.raises(ValueError, match="k = 2"):
            infer(tiny, ModelConfig(r=2, k=2, sigma=1.0),
                  screened=marginal_screen(tiny, 1, 2))

    def test_covariance_must_be_n_by_n(self):
        # Rejected up front, naming both sizes, not deep inside a matmul.
        data = gen_synthetic(SyntheticSpec(n=30, d=6, r=2, k=2, sparsity=0.5, sigma=1.0, seed=3), 0)
        with pytest.raises(ValueError, match=r"covariance is 29 x 29, but the data have n = 30"):
            infer(data, ModelConfig(r=2, k=2, covariance=np.eye(29)))

    def test_covariance_of_size_n_matches_isotropic(self):
        # The n x n check lets a covariance of the data's size through.
        data = gen_synthetic(SyntheticSpec(n=30, d=6, r=2, k=2, sparsity=0.5, sigma=1.0, seed=3), 0)
        a = infer(data, ModelConfig(r=2, k=2, sigma=0.7))
        b = infer(data, ModelConfig(r=2, k=2, covariance=0.49 * np.eye(30)))
        for fa, fb in zip(a.features, b.features):
            assert fa.itemset == fb.itemset
            assert fb.p_value == pytest.approx(fa.p_value, rel=1e-9, abs=1e-12)


class TestOneLayout:
    """Every walk reads ``Dataset.Z.T`` in place: no stage copies or pads
    the covariates for its walk."""

    @pytest.mark.parametrize("module", [screening, inference], ids=["screening", "truncation"])
    def test_the_walk_reads_the_dataset_in_place(self, module, monkeypatch):
        # The ZT the module hands walk_tree, wrapped as record_expanded does.
        seen = []
        walk = module.walk_tree

        def recording_walk(ZT, *args):
            seen.append(ZT)
            return walk(ZT, *args)

        monkeypatch.setattr(module, "walk_tree", recording_walk)
        spec = SyntheticSpec(n=40, d=8, r=3, k=4, sparsity=0.5, sigma=0.5,
                             truth={(1, 2): 1.0}, seed=6)
        data = gen_synthetic(spec, 0)
        infer(data, spec.config())
        (ZT,) = seen
        assert np.shares_memory(ZT, data.Z)
        assert ZT.flags.c_contiguous and ZT.shape == (data.d, data.n)


class TestDegenerateDesigns:
    @pytest.mark.parametrize("name", sorted(degenerate_designs()))
    def test_screening_matches_oracle_and_infer_raises(self, name):
        data = degenerate_designs()[name]
        ref = oracle.oracle_screen(data, 3, 2)
        for prune in (True, False):
            sel, _ = marginal_screen(data, 3, 2, prune=prune)
            assert sel == ref
            assert [s.hex() for s in sel.scores] == [s.hex() for s in ref.scores]
        with pytest.raises(SingularGramError, match="singular Gram matrix"):
            infer(data, ModelConfig(r=2, k=3, sigma=1.0))


class TestRescaling:
    @pytest.mark.parametrize("n, d, sparsity", [(100, 50, 0.5), (400, 100, 0.9)],
                             ids=["d50", "d100"])
    def test_rescaled_response_prunes_and_reports_alike(self, n, d, sparsity):
        # (y, sigma) -> (a y, a sigma) leaves the selection and the pivots
        # unchanged and scales the windows; the pruning slack scales with y,
        # so both walks must visit exactly the same nodes.
        spec = SyntheticSpec(n=n, d=d, r=3, k=10, sparsity=sparsity, sigma=0.1, seed=11)
        data = gen_synthetic(spec, 0)
        a = 1e-11
        ref = infer(data, ModelConfig(r=3, k=10, sigma=0.1))
        small = infer(Dataset(data.Z, a * data.y), ModelConfig(r=3, k=10, sigma=a * 0.1))
        assert small.screening.selected == ref.screening.selected
        assert small.screen_metrics.nodes_visited == ref.screen_metrics.nodes_visited
        assert [f.interval.metrics.nodes_visited for f in small.features] == [
            f.interval.metrics.nodes_visited for f in ref.features
        ]
        assert_allclose([f.p_value for f in small.features],
                        [f.p_value for f in ref.features], rtol=1e-9)
        assert_allclose([(f.ci_low, f.ci_high) for f in small.features],
                        [(a * f.ci_low, a * f.ci_high) for f in ref.features], rtol=1e-9)


class TestRowPermutation:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_permuted_rows_screen_and_infer_alike(self, seed):
        # Row order is not part of the model.  The selection, its signs and
        # the pruned walk's visits are the same.  The windows, p-values and
        # CIs change only by summation order, so they agree to rtol=1e-9,
        # except where rounding is amplified:
        # * an endpoint that is 0 in exact arithmetic comes out as +-1e-16
        #   either way; the pivot reads it only through (v - eta'y)/sd;
        # * thousands of sd from eta'y the pivot's log-space tails carry
        #   ~1e-8 relative error, and bisection on the flat pivot passes it
        #   to the CI endpoint.
        rng = np.random.default_rng(seed)
        data = random_instance(rng)
        r = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(4, total_feature_count(data.d, r)) + 1))
        perm = rng.permutation(data.n)
        moved = Dataset(data.Z[perm], data.y[perm])
        sel, metrics = marginal_screen(data, k, r)
        moved_sel, moved_metrics = marginal_screen(moved, k, r)
        assert moved_sel.selected == sel.selected
        assert moved_sel.signs == sel.signs
        assert moved_metrics.nodes_visited == metrics.nodes_visited
        config = ModelConfig(r=r, k=k, sigma=1.0)
        try:
            ref = infer(data, config)
        except (SingularGramError, DegenerateTruncationError) as exc:
            with pytest.raises(type(exc)):
                infer(moved, config)
            return
        got = infer(moved, config)
        X = _design(sel, data.Z)
        for j, (f, g) in enumerate(zip(ref.features, got.features), start=1):
            sd = math.sqrt(contrast_for_coefficient(X, data.y, j, sigma=1.0).eta_var)
            assert_allclose([g.interval.v_minus, g.interval.v_plus],
                            [f.interval.v_minus, f.interval.v_plus],
                            rtol=1e-9, atol=1e-9 * sd)
            assert_allclose(g.p_value, f.p_value, rtol=1e-9, atol=0.0)
            for mine, theirs in ((g.ci_low, f.ci_low), (g.ci_high, f.ci_high)):
                far = abs(theirs - f.beta_hat) > 1000 * sd
                assert_allclose(mine, theirs, rtol=1e-6 if far else 1e-9)

    def test_upper_tail_pvalue_matches_the_reference(self):
        # Seed 2571 of the test above: a p-value of ~5e-10 from a pivot of
        # 1 - 2.5e-10.  Formed as 2 (1 - pivot) it kept ~1e-16 absolute
        # error, 3e-7 relative, and the two row orders disagreed by 9e-7.
        rng = np.random.default_rng(2571)
        data = random_instance(rng)
        r = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(4, total_feature_count(data.d, r)) + 1))
        perm = rng.permutation(data.n)
        for inst in (data, Dataset(data.Z[perm], data.y[perm])):
            report = infer(inst, ModelConfig(r=r, k=k, sigma=1.0))
            X = _design(report.screening, inst.Z)
            assert min(f.p_value for f in report.features) < 1e-9
            for j, f in enumerate(report.features, start=1):
                con = contrast_for_coefficient(X, inst.y, j, sigma=1.0)
                lo, hi = f.interval.v_minus, f.interval.v_plus
                want = 2.0 * min(
                    oracle.reference_trunc_norm_cdf(con.eta_y, 0.0, con.eta_var, lo, hi),
                    oracle.reference_trunc_norm_cdf(-con.eta_y, 0.0, con.eta_var, -hi, -lo),
                )
                assert f.p_value == pytest.approx(want, rel=1e-13, abs=0.0)


class TestRelabeling:
    """Covariate labels are not part of the model: ``infer`` on ``Z[:,
    perm]`` selects the relabeled itemsets and reports the same numbers."""

    @staticmethod
    def _case(seed, binary):
        rng = np.random.default_rng(seed)
        n, d, r = int(rng.integers(20, 81)), int(rng.integers(3, 13)), int(rng.integers(1, 4))
        if binary:
            Z = (rng.random((n, d)) < rng.uniform(0.3, 0.7)).astype(np.float64)
        else:
            Z = rng.random((n, d))
        y = rng.integers(-3, 4, n).astype(np.float64) if rng.random() < 0.2 else rng.standard_normal(n)
        k = int(rng.integers(1, min(8, total_feature_count(d, r)) + 1))
        perm = rng.permutation(d)
        back = lambda it: itemsets.Itemset(tuple(sorted(int(perm[i - 1]) + 1 for i in it.indices)))
        return Dataset(Z, y), Dataset(Z[:, perm], y), r, k, back

    @staticmethod
    def _tied(scores, rel):
        # Equal |score|s break by index, which relabeling changes; on
        # continuous Z the factor order moves a score's bits, so near-ties
        # count too.
        a = np.abs(np.array(scores))
        return bool(np.any(a[:-1] - a[1:] <= rel * a[:-1]))

    def _reports(self, seed, binary):
        data, moved, r, k, back = self._case(seed, binary)
        D = total_feature_count(data.d, r)
        head = oracle.oracle_screen(data, min(k + 1, D), r).scores
        if self._tied(head, 0.0 if binary else 1e-9):
            return None
        config = ModelConfig(r=r, k=k, sigma=1.0)
        try:
            ref = infer(data, config)
        except (SingularGramError, DegenerateTruncationError) as exc:
            with pytest.raises(type(exc)):
                infer(moved, config)
            return None
        got = infer(moved, config)
        assert [back(f.itemset) for f in got.features] == [f.itemset for f in ref.features]
        if binary:
            self._runners_up_map(data, moved, r, k, back)
        return data, ref, got

    def _runners_up_map(self, data, moved, r, k, back):
        # The unpruned runners-up are the features ranked after the k-th,
        # ordered by the same tie rule: relabeled and re-ranked, they are
        # the original ones unless a tie straddles the last of them.
        m, D = screening._RUNNERS_UP, total_feature_count(data.d, r)
        ranked = oracle.oracle_screen(data, min(k + m + 1, D), r).scores
        if k + m < D and abs(ranked[k + m - 1]) == abs(ranked[k + m]):
            return
        ups = marginal_screen(data, k, r, prune=False)[0].runners_up
        mapped = [(back(it), s) for it, s in marginal_screen(moved, k, r, prune=False)[0].runners_up]
        mapped.sort(key=lambda e: screening.rank(e[1], e[0].indices))
        assert [(it, s.hex()) for it, s in mapped] == [(it, s.hex()) for it, s in ups]

    def _check(self, seed, binary):
        out = self._reports(seed, binary)
        if out is None:
            return
        data, ref, got = out
        X = _design(ref.screening, data.Z)
        for j, (f, g) in enumerate(zip(ref.features, got.features), start=1):
            sd = math.sqrt(contrast_for_coefficient(X, data.y, j, sigma=1.0).eta_var)
            if binary:
                # Every product is exact in any factor order, so the
                # selected columns, and eta'y from them, keep their bits.
                assert g.beta_hat.hex() == f.beta_hat.hex()
            assert_allclose(g.beta_hat, f.beta_hat, rtol=1e-9, atol=1e-9 * sd)
            # The walk sums a feature's x'y and x'c on its parent's support,
            # and relabeling gives it another parent: the windows, and all
            # read from them, move by summation order alone, even on 0/1 Z.
            # They agree to TestRowPermutation's tolerances, for its reasons.
            assert_allclose([g.interval.v_minus, g.interval.v_plus],
                            [f.interval.v_minus, f.interval.v_plus],
                            rtol=1e-9, atol=1e-9 * sd)
            assert_allclose(g.p_value, f.p_value, rtol=1e-9, atol=0.0)
            for mine, theirs in ((g.ci_low, f.ci_low), (g.ci_high, f.ci_high)):
                far = abs(theirs - f.beta_hat) > 1000 * sd
                assert_allclose(mine, theirs, rtol=1e-6 if far else 1e-9)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_binary_covariates_report_alike(self, seed):
        self._check(seed, binary=True)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_continuous_covariates_report_alike(self, seed):
        self._check(seed, binary=False)
