"""Brute-force reference implementations used as ground truth in tests.

Everything here materializes what the production code deliberately avoids
materializing: all D feature columns, and the full constraint matrix of the
selection event.  These routines are only feasible at toy scale and are never
called from the main pipeline; they exist so that the tree-pruned algorithms
can be checked against direct enumeration.
"""

from __future__ import annotations

import itertools

import mpmath
import numpy as np

from .itemsets import (
    Dataset,
    Itemset,
    TraversalMetrics,
    column_score,
    feature_column,
    total_feature_count,
)
from .screening import ScreeningResult, rank
from .inference import (
    Contrast,
    TruncationInterval,
    ActiveConstraint,
    DENOM_TOL,
)

__all__ = [
    "oracle_screen",
    "oracle_truncation",
    "reference_normal_cdf",
    "reference_trunc_norm_cdf",
]

_MAX_ORACLE_FEATURES = 10**6


def _enumerate_itemsets(d: int, r: int) -> list[Itemset]:
    """All itemsets of order 1..r in lexicographic (= the tree's depth-first)
    order, enumerated independently of the tree walker under test."""
    combos = itertools.chain.from_iterable(
        itertools.combinations(range(1, d + 1), rho) for rho in range(1, r + 1)
    )
    return [Itemset(idx) for idx in sorted(combos)]


def oracle_screen(data: Dataset, k: int, r: int) -> ScreeningResult:
    """Top-k features by |x^T y| via full enumeration and a stable sort.

    Features are sorted by the production ranking key
    :func:`selectree.screening.rank`.  Scores use the same one-column-at-a-
    time score kernel as the tree search so the two routes agree bit for bit.
    Only ``data.Z``, ``data.y`` and ``data.d`` are read.
    """
    D = total_feature_count(data.d, r)
    if D > _MAX_ORACLE_FEATURES:
        raise ValueError(f"instance too large for the oracle (D = {D})")
    if k > D:
        raise ValueError(f"k = {k} exceeds the number of features D = {D}")

    items = _enumerate_itemsets(data.d, r)
    scored = []
    for it in items:
        col = feature_column(it, data.Z)
        scored.append((column_score(col, data.y), it))
    scored.sort(key=lambda sc: rank(sc[0], sc[1].indices))
    top = scored[:k]
    return ScreeningResult(
        selected=tuple(it for _, it in top),
        scores=tuple(s for s, _ in top),
    )


def oracle_truncation(
    sel: ScreeningResult,
    data: Dataset,
    con: Contrast,
    r: int,
) -> TruncationInterval:
    """Truncation interval by materializing every selection-event constraint.

    The event "these k features won, with these signs" is the polyhedron
    A y <= 0 whose rows are, for each selected j with sign s_j and each
    unselected feature l:  (-s_j x_j - x_l)^T y <= 0,  (-s_j x_j + x_l)^T y <= 0,
    plus one sign row -s_j x_j^T y <= 0 per selected feature (2*k*kbar + k rows
    in total).  Along the direction c the interval of admissible eta^T y is

        v_minus = eta^T y + max{ -(A y)_i / (A c)_i : (A c)_i < 0 }
        v_plus  = eta^T y + min{ -(A y)_i / (A c)_i : (A c)_i > 0 }

    with empty sets giving -inf/+inf.  Rows with |(A c)_i| below DENOM_TOL are
    treated as zero-direction rows and skipped (same convention as the
    production search).
    """
    D = total_feature_count(data.d, r)
    if D > _MAX_ORACLE_FEATURES:
        raise ValueError(f"instance too large for the oracle (D = {D})")

    selected_set = {it.indices for it in sel.selected}
    unselected = [
        it for it in _enumerate_itemsets(data.d, r) if it.indices not in selected_set
    ]

    sel_cols = [feature_column(it, data.Z) for it in sel.selected]
    rows: list[np.ndarray] = []
    labels: list[ActiveConstraint] = []
    for j, (it_j, s_j) in enumerate(zip(sel.selected, sel.signs)):
        base = -float(s_j) * sel_cols[j]
        for it_l in unselected:
            x_l = feature_column(it_l, data.Z)
            rows.append(base - x_l)
            labels.append(ActiveConstraint("pair", it_j, it_l, "C2"))
            rows.append(base + x_l)
            labels.append(ActiveConstraint("pair", it_j, it_l, "C1"))
        rows.append(base)
        labels.append(ActiveConstraint("sign", it_j, None, None))

    A = np.array(rows, dtype=np.float64)
    Ay = A @ data.y
    Ac = A @ con.c

    eta_y = con.eta_y
    v_minus, v_plus = -np.inf, np.inf
    lo_info: ActiveConstraint | None = None
    hi_info: ActiveConstraint | None = None
    for i in range(A.shape[0]):
        den = float(Ac[i])
        if abs(den) < DENOM_TOL:
            continue
        ratio = -float(Ay[i]) / den
        if den < 0.0:
            if ratio > v_minus:
                v_minus, lo_info = ratio, labels[i]
        else:
            if ratio < v_plus:
                v_plus, hi_info = ratio, labels[i]

    v_minus = eta_y + v_minus if np.isfinite(v_minus) else -np.inf
    v_plus = eta_y + v_plus if np.isfinite(v_plus) else np.inf
    # The observed response satisfies the event by construction; pull the
    # endpoints onto eta_y if rounding pushed them across it.
    if np.isfinite(v_minus):
        v_minus = min(v_minus, eta_y)
    if np.isfinite(v_plus):
        v_plus = max(v_plus, eta_y)

    metrics = TraversalMetrics(nodes_visited=len(unselected), total_nodes=D)
    return TruncationInterval(
        v_minus=v_minus,
        v_plus=v_plus,
        argmin_info=(lo_info, hi_info),
        metrics=metrics,
    )


def reference_normal_cdf(x: float) -> float:
    """Standard Normal CDF evaluated in 50-digit arithmetic, then rounded.

    Independent of the scipy code path used in production; accurate to well
    below 1e-14 for |x| <= 8.
    """
    with mpmath.workdps(50):
        return float(0.5 * mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)))


def reference_trunc_norm_cdf(
    x: float, mean: float, variance: float, v: float, w: float
) -> float:
    """Truncated-Normal CDF via 80-digit arithmetic (test reference only).

    Deep in the upper tail the CDF values are all 1 - tiny and even an
    80-digit subtraction would cancel, so the difference is formed from
    survival functions there; erfc represents the tiny values exactly.
    """
    if not variance > 0:
        raise ValueError("variance must be positive")
    if not v < w:
        raise ValueError("need v < w")
    if x <= v:
        return 0.0
    if x >= w:
        return 1.0
    with mpmath.workdps(80):
        s = mpmath.sqrt(mpmath.mpf(variance))
        mu = mpmath.mpf(mean)
        rt2 = mpmath.sqrt(2)

        def phi(t: float) -> mpmath.mpf:
            if t == float("inf"):
                return mpmath.mpf(1)
            if t == float("-inf"):
                return mpmath.mpf(0)
            return 0.5 * mpmath.erfc(-(mpmath.mpf(t) - mu) / (s * rt2))

        def surv(t: float) -> mpmath.mpf:
            if t == float("inf"):
                return mpmath.mpf(0)
            if t == float("-inf"):
                return mpmath.mpf(1)
            return 0.5 * mpmath.erfc((mpmath.mpf(t) - mu) / (s * rt2))

        if v != float("-inf") and v >= mean:  # upper-tail window
            num = surv(v) - surv(x)
            den = surv(v) - surv(w)
        else:
            num = phi(x) - phi(v)
            den = phi(w) - phi(v)
        if den == 0:
            raise ZeroDivisionError("degenerate truncation window")
        return float(num / den)
