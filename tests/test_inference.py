import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import degenerate_designs, random_instance, record_expanded
from selectree import inference, oracle
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

    def test_visit_counts_are_pinned(self):
        # A walk that gates a child against an incumbent older than the live
        # one still gets the windows right but enters more subtrees; these
        # are the counts of one walk per contrast that re-tests every child
        # against the live incumbents.
        spec = SyntheticSpec(n=100, d=100, r=3, k=10, sparsity=0.9, sigma=0.1, seed=1)
        report = infer(gen_synthetic(spec, 0), spec.config())
        assert [f.interval.metrics.nodes_visited for f in report.features] == [
            17627, 14046, 14359, 13828, 13595, 20111, 13395, 12473, 15570, 17737
        ]
        assert {f.interval.metrics.total_nodes for f in report.features} == {10 * 166_750}


    def test_visit_counts_are_pinned_on_the_criterion_5_shape(self):
        # At sparsity 0.5 most expanded nodes are parents of leaves, so these
        # counts pin the leaf gate's replay: a cleared sibling's visits must
        # be counted against the live floors, as the per-node walk does.
        spec = SyntheticSpec(n=100, d=50, r=3, k=10, sparsity=0.5, sigma=0.1, seed=1)
        report = infer(gen_synthetic(spec, 0), spec.config())
        assert [f.interval.metrics.nodes_visited for f in report.features] == [
            78132, 64352, 93059, 76285, 67926, 72339, 66373, 85150, 78188, 64941
        ]

    def test_visit_counts_are_pinned_at_order_4(self):
        # At r = 4 the subtree gate's compact child index runs at two levels
        # above the leaf gate, and at the lower one it is carried into the
        # leaf gate's replay.
        spec = SyntheticSpec(n=100, d=30, r=4, k=10, sparsity=0.5, sigma=0.1, seed=1)
        report = infer(gen_synthetic(spec, 0), spec.config())
        assert [f.interval.metrics.nodes_visited for f in report.features] == [
            34394, 26482, 33407, 25751, 26613, 31729, 36103, 20513, 30856, 28003
        ]


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
        assert selective_pvalue(con.eta_y, con.eta_var, iv) == pytest.approx(
            2.0 * min(pivot, 1.0 - pivot)
        )

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

    def test_precomputed_screening_must_match_k(self, tiny):
        with pytest.raises(ValueError, match="k = 2"):
            infer(tiny, ModelConfig(r=2, k=2, sigma=1.0),
                  screened=marginal_screen(tiny, 1, 2))


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
        # * an upper-tail p-value is formed as 1 - pivot, good to ~1e-16;
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
            assert_allclose(g.p_value, f.p_value, rtol=1e-9, atol=1e-12)
            for mine, theirs in ((g.ci_low, f.ci_low), (g.ci_high, f.ci_high)):
                far = abs(theirs - f.beta_hat) > 1000 * sd
                assert_allclose(mine, theirs, rtol=1e-6 if far else 1e-9)
