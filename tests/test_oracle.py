"""Checks on the slow reference implementations themselves.

The references are used to validate the fast paths elsewhere, so they get
their own independent sanity checks here: closed-form values, agreement
with scipy where scipy is trustworthy, and basic identities.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from selectree import oracle
from selectree.inference import contrast_for_coefficient
from selectree.itemsets import feature_column
from selectree.screening import marginal_screen


def _reference_normal_cdf(x):
    # The reference truncated CDF on the whole line is the plain Normal CDF.
    return oracle.reference_trunc_norm_cdf(x, 0.0, 1.0, -math.inf, math.inf)


class TestReferenceNormalCdf:
    def test_matches_scipy_in_the_bulk(self):
        for x in np.linspace(-8.0, 8.0, 97):
            assert _reference_normal_cdf(float(x)) == pytest.approx(
                float(ndtr(x)), rel=1e-13, abs=1e-300
            )

    def test_known_values(self):
        assert _reference_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        # Phi(1) to 16 digits
        assert _reference_normal_cdf(1.0) == pytest.approx(
            0.8413447460685429, abs=1e-15
        )

    def test_deep_tail_no_underflow_to_garbage(self):
        # Phi(-37) ~ 5.7e-300 is representable but far below where many
        # erf-based routines lose accuracy
        p = _reference_normal_cdf(-37.0)
        assert 0.0 < p < 1e-290
        assert math.isfinite(math.log(p))


class TestReferenceTruncNormCdf:
    def test_endpoint_identities(self):
        assert oracle.reference_trunc_norm_cdf(-1.0, 0.0, 1.0, -1.0, 2.0) == 0.0
        assert oracle.reference_trunc_norm_cdf(2.0, 0.0, 1.0, -1.0, 2.0) == 1.0

    def test_symmetric_window_midpoint(self):
        assert oracle.reference_trunc_norm_cdf(0.0, 0.0, 1.0, -2.0, 2.0) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_reduces_to_plain_cdf_ratio(self):
        x, v, w = 0.4, -1.5, 1.25
        want = (ndtr(x) - ndtr(v)) / (ndtr(w) - ndtr(v))
        got = oracle.reference_trunc_norm_cdf(x, 0.0, 1.0, v, w)
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_location_scale_invariance(self):
        base = oracle.reference_trunc_norm_cdf(0.3, 0.0, 1.0, -1.0, 2.0)
        moved = oracle.reference_trunc_norm_cdf(
            5.0 + 2.0 * 0.3, 5.0, 4.0, 5.0 - 2.0, 5.0 + 4.0
        )
        assert moved == pytest.approx(base, rel=1e-12)

    def test_deep_tail_window_is_well_defined(self):
        p = oracle.reference_trunc_norm_cdf(10.5, 0.0, 1.0, 10.0, 11.0)
        assert 0.0 < p < 1.0
        # mass concentrates near the lower endpoint out in the tail
        assert p > 0.99


class TestOracleScreen:
    def test_tiny(self, tiny):
        ref = oracle.oracle_screen(tiny, k=2, r=2)
        assert [it.indices for it in ref.selected] == [(1,), (1, 2)]
        assert ref.scores == pytest.approx((3.0, 2.0))
        assert ref.signs == (1, 1)

    def test_agrees_with_fast_path(self, tiny):
        sel, _ = marginal_screen(tiny, k=3, r=2)
        ref = oracle.oracle_screen(tiny, k=3, r=2)
        assert sel.selected == ref.selected
        assert sel.scores == ref.scores
        assert sel.signs == ref.signs


class TestOracleTruncation:
    def test_tiny_windows(self, tiny):
        sel = oracle.oracle_screen(tiny, k=2, r=2)
        X = np.column_stack([feature_column(it, tiny.Z) for it in sel.selected])
        con = contrast_for_coefficient(X, tiny.y, 1, sigma=1.0)
        iv = oracle.oracle_truncation(sel, tiny, con, r=2)
        assert (iv.v_minus, iv.v_plus) == (-0.5, 2.0)

    def test_window_contains_observation(self, tiny):
        sel = oracle.oracle_screen(tiny, k=2, r=2)
        X = np.column_stack([feature_column(it, tiny.Z) for it in sel.selected])
        for j in (1, 2):
            con = contrast_for_coefficient(X, tiny.y, j, sigma=1.0)
            iv = oracle.oracle_truncation(sel, tiny, con, r=2)
            assert iv.v_minus <= con.eta_y <= iv.v_plus
