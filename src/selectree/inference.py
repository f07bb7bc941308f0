"""Exact post-selection inference conditional on the marginal-screening event.

Screening k features by largest |x_j^T y| is an affine event in y: for every
selected j (with sign s_j) and every unselected l,

    (-s_j x_j - x_l)^T y <= 0,   (-s_j x_j + x_l)^T y <= 0,

plus the k sign constraints -s_j x_j^T y <= 0.  Conditional on that event and
on the nuisance directions, eta^T y follows a Normal law truncated to an
interval [v_minus, v_plus]; its CDF evaluated at the observation is a uniform
pivot, which yields exact p-values and confidence intervals for the selected
coefficients.

The interval endpoints are a max/min of one ratio per constraint.  There are
2*k*kbar + k constraints with kbar = D - k astronomically large, so the ratios
over unselected features are searched over the same implicit itemset tree as
screening, with a branch-and-bound rule: the sign-partitioned sums of a node's
column against +-y and +-c bound every descendant's numerator and denominator,
hence bound the best ratio the subtree could contribute to either endpoint.

Only v_minus needs a search rule of its own.  Reversing the slice direction
c negates every constraint's denominator and ratio, so v_plus along c is
exactly -v_minus along -c (Lee et al.'s polyhedral lemma read both ways), and
IEEE negation is exact.  The search therefore carries an endpoint axis: e = 0
looks for v_minus along c, e = 1 for v_minus along -c, and one offer rule,
one subtree bound and one prune test serve both.

All k contrasts share one pass of :func:`selectree.itemsets.walk_tree`,
the depth-first walker screening runs on too.  At each node, with pruning
on or off, the walker forms one block, the children's columns on the node's
support ``rows``, ``ZT[start:, rows] * col[rows]``, and one batched product
of that block with every contrast's weight columns gives the children's
sums.  Every gate, offer,
bound and entry decision at the node reads those sums, so pruning cannot
change the bits any ratio or bound is formed from.  All contrasts, both
endpoints, both constraint orientations ("C1" rows -s_j x_j + x_l, "C2" rows
-s_j x_j - x_l) and all k selected features are scored and gated in one
broadcast, with per-(contrast, endpoint, orientation, feature) activity
masks as the walk state.  A subtree is entered while it is alive for any
contrast; every contrast gets exactly the window, active constraints and
visit count that a walk for it alone would give.
Pruning never changes the endpoints: a subtree is kept iff its bound
reaches the incumbent's ``prune_floor``, screening's rule too, whose slack
dwarfs floating-point noise, so any skipped ratio is strictly non-improving.

Every node of the pruned walk runs one two-stage rule, the way screening
exact-scores only the children that can enter its top k: a cheap test on an
axis without the selected feature j names the children that can matter, and
only those get the per-(contrast, endpoint, orientation, child, feature)
arithmetic.  Few children at a node can move an incumbent or earn a
descent.  Three gates run the two-stage rule:

- the offer gate: the node's sums pick the children with a ratio that
  could beat an incumbent, and only their ratios are formed and offered;
- the subtree gate: the same sums pick the children whose subtree bound
  could reach its floor, and only their bounds are formed;
- the leaf gate: at a node whose children are parents of leaves the walker
  passes the entered ones to :func:`selectree.itemsets.gate_leaf_parents`,
  screening's leaf gate too.  It hands this module, per chunk of those
  children, every grandchild's approximate x'y and x'c on the node's
  support; the offer gate's test on them flags the children to expand, and
  the visits of the cleared ones are counted in one step against the live
  floors.

This is exact:

- each test's margin is a ``prune_floor`` slack, which dwarfs the rounding
  of its rearranged expression.  The leaf gate's chunk products hold the
  terms of the sums a flagged child's own product would give, plus terms
  of +0.0, in another order, so the two differ by rounding alone, at most
  about n eps sum|w|, which the slack dwarfs too.  A child ruled out has no
  ratio above its incumbent and no bound at its floor;
- such a child can neither win an offer nor tie the winner, and the
  survivors keep their walk order, so ties break as in the unpruned walk;
- the subtree gate runs before the node's offers.  Incumbents only grow,
  so the floors it tests against are at most the live ones the bounds are
  then kept against;
- incumbents only grow, so a cleared child's offers would change nothing,
  and the floors stand still between flagged children;
- a flagged child is re-tested against the live floors and, if still
  live, yielded to the walker, which expands it as any other node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr

from .itemsets import (
    Dataset,
    Itemset,
    TraversalMetrics,
    column_score,
    feature_column,
    prune_floor,
    sign_split,
    total_feature_count,
    walk_tree,
)
from .screening import ScreeningResult, marginal_screen

__all__ = [
    "Contrast",
    "TruncationInterval",
    "ActiveConstraint",
    "FeatureInference",
    "InferenceReport",
    "SingularGramError",
    "InternalConsistencyError",
    "DegenerateTruncationError",
    "contrast_for_coefficient",
    "truncation_points",
    "truncation_windows",
    "trunc_norm_cdf",
    "selective_pvalue",
    "selective_interval",
    "infer",
    "DENOM_TOL",
]

# Constraint directions this close to zero contribute to neither endpoint
# (the ratio is numerically meaningless and the constraint is inactive along
# the slice).  Shared with the brute-force oracle so both routes classify
# constraints identically.
DENOM_TOL = 1e-12

_COND_LIMIT = 1e12

_CASES = ("C1", "C2")


class SingularGramError(ValueError):
    """Selected design has a (numerically) singular Gram matrix."""

    def __init__(self, message: str, pairs: tuple[tuple[int, int], ...] = ()):
        super().__init__(message)
        self.pairs = pairs


class InternalConsistencyError(RuntimeError):
    """An invariant that only an upstream bug can break was violated."""


class DegenerateTruncationError(RuntimeError):
    """Truncation interval collapsed to a point."""


@dataclass(frozen=True)
class Contrast:
    """A linear functional eta^T y of the response plus its slice direction.

    ``c = Sigma eta / (eta^T Sigma eta)`` is the direction along which the
    selection polyhedron is sliced; it satisfies eta^T c = 1.
    """

    eta: np.ndarray
    eta_y: float
    eta_var: float
    c: np.ndarray


@dataclass(frozen=True)
class ActiveConstraint:
    """Which constraint produced an endpoint: a (j, l) pair or a sign row."""

    kind: str  # "pair" | "sign"
    j: Itemset
    ell: Itemset | None
    case: str | None  # "C1" | "C2" for pair rows


@dataclass(frozen=True)
class TruncationInterval:
    """Admissible range of eta^T y given the selection event."""

    v_minus: float
    v_plus: float
    argmin_info: tuple[ActiveConstraint | None, ActiveConstraint | None]
    metrics: TraversalMetrics


@dataclass(frozen=True)
class FeatureInference:
    itemset: Itemset
    beta_hat: float
    interval: TruncationInterval
    pivot: float
    p_value: float
    ci_low: float
    ci_high: float
    significant: bool


@dataclass(frozen=True)
class InferenceReport:
    features: tuple[FeatureInference, ...]
    screening: ScreeningResult
    screen_metrics: TraversalMetrics


# ---------------------------------------------------------------------------
# least squares on the selected design
# ---------------------------------------------------------------------------

def _gram(X: np.ndarray) -> np.ndarray:
    """X^T X, or SingularGramError when it is not invertible to working
    precision."""
    G = X.T @ X
    cond = np.linalg.cond(G)
    if np.isfinite(cond) and cond <= _COND_LIMIT:
        return G
    # Name the offending columns to make the (common) duplicate-binary-column
    # failure mode diagnosable.
    norms = np.sqrt(np.diag(G))
    pairs = []
    k = G.shape[1]
    for a in range(k):
        for b in range(a + 1, k):
            denom = norms[a] * norms[b]
            if denom == 0 or abs(G[a, b]) >= denom * (1 - 1e-10):
                pairs.append((a + 1, b + 1))
    zero = [a + 1 for a in range(k) if norms[a] == 0]
    detail = []
    if pairs:
        detail.append("collinear column pairs " + ", ".join(map(str, pairs)))
    if zero:
        detail.append("all-zero columns " + ", ".join(map(str, zero)))
    raise SingularGramError(
        "singular Gram matrix on the selected design"
        + (": " + "; ".join(detail) if detail else ""),
        pairs=tuple(pairs),
    )


def contrast_for_coefficient(
    X_S: np.ndarray,
    y: np.ndarray,
    j: int,
    sigma: float | None = None,
    covariance: np.ndarray | None = None,
) -> Contrast:
    """Contrast eta = X_S (X_S^T X_S)^{-1} e_j picking out coefficient j (1-based)."""
    X = np.asarray(X_S, dtype=np.float64)
    k = X.shape[1]
    if not 1 <= j <= k:
        raise ValueError(f"coefficient index {j} out of range 1..{k}")
    if (sigma is None) == (covariance is None):
        raise ValueError("supply exactly one of sigma or covariance")
    e = np.zeros(k)
    e[j - 1] = 1.0
    eta = X @ np.linalg.solve(_gram(X), e)
    # A finite sigma whose square overflows is a numeric failure, not a
    # usage error: report it as one, without numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if covariance is None:
            sig_eta = (sigma * sigma) * eta
        else:
            sig_eta = np.asarray(covariance, dtype=np.float64) @ eta
        eta_var = column_score(eta, sig_eta)
    if not math.isfinite(eta_var):
        raise FloatingPointError(f"eta^T Sigma eta = {eta_var}: the noise covariance overflows")
    if not eta_var > 0:
        raise ValueError(f"eta^T Sigma eta = {eta_var} is not positive")
    return Contrast(
        eta=eta,
        eta_y=column_score(eta, np.asarray(y, dtype=np.float64)),
        eta_var=eta_var,
        c=sig_eta / eta_var,
    )


# ---------------------------------------------------------------------------
# truncation points by pruned tree search
# ---------------------------------------------------------------------------

def truncation_windows(
    sel: ScreeningResult,
    data: Dataset,
    contrasts: Sequence[Contrast],
    r: int,
    prune: bool = True,
) -> tuple[TruncationInterval, ...]:
    """Every contrast's truncated support of eta^T y, from one branch-and-bound walk.

    Per (selected feature j, orientation) the quantities kappa_j = s_j x_j^T y
    (>= 0 by selection) and rho_j = -s_j x_j^T c reduce every pair ratio to

        C1:  (kappa_j - x_l^T y) / (rho_j + x_l^T c)
        C2:  (kappa_j + x_l^T y) / (rho_j - x_l^T c)

    and every sign row to kappa_j / rho_j.  v_minus is eta^T y plus the
    largest ratio with a negative denominator.  v_plus along c is minus
    v_minus along -c: reversing c negates rho and x_l^T c, hence every
    denominator and ratio, and swaps the sums sc_pos and sc_neg.  The search
    therefore runs one rule over an endpoint axis e, where e = 0 finds
    v_minus along c and e = 1 finds v_minus along -c, and keeps one incumbent
    ``best[q, e]`` per contrast q and endpoint (the largest ratio so far,
    i.e. -hi for v_plus).  IEEE negation is exact, so both endpoints see bit
    for bit the ratios, bounds and thresholds a mirrored min/max search would.

    A node's sums bound x_l^T y in [-sy_neg, sy_pos] and x_l^T c in
    [-sc_neg, sc_pos] over all descendants l, giving per-(contrast, endpoint,
    orientation, j) bounds on the best ratio below the node; a subtree is
    entered only where a bound reaches its incumbent's ``prune_floor``.  With
    prune=False the same walk visits everything and must produce identical
    endpoints.

    Each node gets one set of sums from the walker, pruned or not: its
    children's block on the node's support ``rows``, ``ZT[start:, rows] *
    col[rows]``, times six columns of y and c_q there, one batched product
    per contrast q.  With
    prune=True each node then runs two stages on those sums: a test on the
    (contrast, endpoint, orientation, child) axes, without the feature axis
    j, picks the children that can matter, and only those get the (K, 2, 2,
    m, k) arithmetic, which forms the ratios of the children the offer gate
    passed and the bounds of those the subtree gate passed without testing
    them again.  With lam = best[q, e], a ratio whose denominator is
    negative beats lam iff P - Q < 0, where

        P[q, e, j] = kappa_j - lam s_e rho_qj,
        Q[q, e, o] = t_o (x'y + lam s_e x'c_q).

    P does not depend on the child and Q does not depend on j.  Let scale =
    max kappa + sum|y| + |lam| (max|rho_q| + sum|c_q|), which bounds every
    term above, since |x'y| <= sum|y| and |x'c_q| <= sum|c_q|.

    - Offer gate.  A child's ratios are formed and offered only if, for
      some (q, e, o), its Q reaches the least prune_floor(P_j, scale) over
      the features j active for it.  Q and the ratio read the same sums,
      and the test rearranges the ratio's arithmetic: a ratio that rounds
      above lam has P - Q below c eps * scale for a small constant c, and
      the margin is at least PRUNE_SLACK * scale.  An incumbent of -inf
      reads as lam = 0 with P = -inf, which keeps every child active for
      it.
    - Subtree gate.  Let f = prune_floor(best, ysum), the floor a bound
      must reach.  For f <= 0 and den > 0, (sy_o - kappa_j) / den >= f iff
      sy_o + |f| den >= kappa_j, and den <= |rho_qj| + max(sc_pos, sc_neg).
      So a child's bounds are formed only if, for some (q, e, o), sy_o +
      |f| max(sc_pos, sc_neg) reaches the least prune_floor(kappa_j - |f|
      |rho_qj|, scale) over the active j, with |f| in place of |lam| in
      scale.  The rearrangement again rounds by at most about c eps *
      scale.  The test runs before the node's offers, against floors no
      higher than the live ones the bounds are then kept against.  While
      an incumbent is -inf or a floor is above 0 every child is bounded.
    - Leaf gate.  At a node at depth r - 2 the walker passes the entered
      children, the parents of leaves, to ``itemsets.gate_leaf_parents``,
      which hands over each grandchild's approximate x'y and x'c on the
      node's support, a chunk of siblings at a time.  A child is flagged
      only if the largest Q over its grandchildren passes the offer gate's
      test.  Those sums hold the terms of the sums the child's own product
      gives, plus terms of +0.0, in another order, so they err by about n
      eps sum|w|, far below the margin for any n up to ~10^6.  A cleared
      child's visits are counted against the live floors, as the walker
      would count them.  A flagged child is re-tested and, if live, yielded
      to the walker, which forms its sums and runs the two stages on it as
      on any other node.

    A child a gate rules out has every ratio strictly below its incumbent,
    or every bound below its floor, so it can neither win an offer nor tie
    the winner, nor be entered.  The survivors keep their walk order, so
    the first argmax over (o, child, j) names the same constraint.
    Windows, ``argmin_info`` and ``nodes_visited`` are bit for bit those
    of the walk with prune=False, which forms every child's offers and
    bounds from the same sums.

    All contrasts share one walk of the tree: a subtree is entered while it
    is alive for any contrast, and a contrast whose activity mask is empty
    there neither scores nor counts its nodes.  Each contrast's incumbents,
    endpoints, ``argmin_info`` and ``nodes_visited`` are therefore exactly
    those of a walk for that contrast alone.  Errors are raised in contrast
    order, each with the message a walk for that contrast alone would give.
    """
    k = len(sel.selected)
    K = len(contrasts)
    D = total_feature_count(data.d, r)

    y = data.y
    n = len(y)
    columns = [feature_column(it, data.Z) for it in sel.selected]
    ZT = np.ascontiguousarray(data.Z.T)
    C = np.stack([np.asarray(con.c, dtype=np.float64) for con in contrasts])
    # One (n, 6) slice [y, c, y+, y-, c+, c-] per contrast.  The walker's
    # batched matmul runs the same product per slice as a lone contrast's
    # ``block @ W[q]``, so every contrast sees the same sums bit for bit;
    # one wide (n, 6K) product would round differently.
    W = np.empty((K, n, 6))
    W[:, :, 0] = y
    W[:, :, 1] = C
    W[:, :, 2], W[:, :, 3] = sign_split(y)
    W[:, :, 4], W[:, :, 5] = sign_split(C)
    ysum = float(np.abs(y).sum())

    kappa = np.abs(np.array(sel.scores, dtype=np.float64))
    rho = np.array(
        [[-float(s) * column_score(col, c) for col, s in zip(columns, sel.signs)] for c in C]
    )
    # Axes of the search: contrast q, endpoint e searches along s_e c with
    # s = (1, -1), orientation o is C1 or C2 with t = (1, -1).  The pair ratio
    # is
    #     (kappa - t_o x_l^T y) / (s_e rho + ec[e, o] x_l^T c),  ec = s t^T,
    # and below a node ec[e, o] x_l^T c reaches up to row ``up`` of the node's
    # sums M (sc_pos or sc_neg) and down to row 9 - up, the other one.
    rho_e = np.stack([rho, -rho], axis=1)  # (K, 2, k)
    ec = np.array([[1.0, -1.0], [-1.0, 1.0]])
    up = np.where(ec > 0, 4, 5)

    # Selected children indexed by parent prefix, to skip their pair ratios.
    sel_by_parent: dict[tuple[int, ...], set[int]] = {}
    for it in sel.selected:
        sel_by_parent.setdefault(it.indices[:-1], set()).add(it.indices[-1])

    best = np.full((K, 2), -np.inf)
    info: list[list[ActiveConstraint | None]] = [[None, None] for _ in range(K)]

    # The terms of the gates that depend on the incumbents alone, refreshed
    # whenever an offer moves one: ``floor`` = prune_floor(best, ysum), the
    # floor every bound is kept against; ``lam_s`` = lam s_e, with lam =
    # best read as 0 where it is -inf; ``offer_floor`` = prune_floor(P,
    # scale) per feature j, -inf where best is -inf, so that the offer and
    # leaf gates flag every child active for it; and ``subtree_gate`` =
    # (|f|, prune_floor(kappa - |f| |rho|, scale)) for the subtree gate,
    # None where some floor f is -inf or above 0.
    kmax = float(kappa.max())
    rcsum = (np.abs(rho).max(axis=1) + np.abs(C).sum(axis=1))[:, None]  # (K, 1)
    arho = np.abs(rho)[:, None]  # (K, 1, k)

    def incumbents_moved():
        nonlocal floor, lam_s, offer_floor, subtree_gate
        floor = prune_floor(best, ysum)
        fin = np.isfinite(best)
        lam = np.where(fin, best, 0.0)
        lam_s = lam * ec[:, 0]
        P = np.where(fin[:, :, None], kappa - lam[:, :, None] * rho_e, -np.inf)
        offer_floor = prune_floor(P, (kmax + ysum + np.abs(lam) * rcsum)[:, :, None])
        subtree_gate = None
        if ((floor > -np.inf) & (floor <= 0)).all():
            af = np.abs(floor)
            scale = (kmax + ysum + af * rcsum)[:, :, None]
            subtree_gate = af, prune_floor(kappa - af[:, :, None] * arho, scale)

    floor = lam_s = offer_floor = subtree_gate = None
    incumbents_moved()

    def offer(vals, constraint):
        # Each (contrast, endpoint) takes its first largest candidate if
        # strictly better.
        flat = vals.reshape(K, 2, -1)
        arg = flat.argmax(axis=2)
        top = flat.max(axis=2)
        better = np.nonzero(top > best)
        for q, e in zip(*better):
            best[q, e] = top[q, e]
            info[q][e] = constraint(int(arg[q, e]))
        if len(better[0]):
            incumbents_moved()

    def reaches(Q, F, act):
        # Which children have, for some (contrast, endpoint, orientation), a
        # Q that reaches the least floor F_j over the features j active for
        # it?  Q: (K, 2, 2, S), F: (K, 2, k), act: (K, 2, 2, S or 1, k).
        # Where no j is active that floor is +inf, which no finite Q reaches.
        return (Q >= np.where(act, F[:, :, None, None], np.inf).min(axis=4)).any(axis=(0, 1, 2))

    visits = np.zeros((K, k), dtype=np.int64)
    half_tol = 0.5 * DENOM_TOL
    rho5 = rho_e[:, :, None, None, :]

    def offer_kids(M, act):
        # Stage one of the offer gate: the P - Q test of the docstring picks
        # the children, in walk order, whose ratios could beat an incumbent.
        U = M[:, None, 0] + lam_s[:, :, None] * M[:, None, 1]  # (K, 2, m)
        Q = np.stack([U, -U], axis=2)  # t_o U
        return np.flatnonzero(reaches(Q, offer_floor, act[:, :, :, None]))

    def subtree_kids(M, act):
        # Stage one of the subtree gate: the superset test of the docstring
        # picks the children, in walk order, whose bounds could reach a floor.
        if subtree_gate is None:
            return np.arange(M.shape[2])
        af, F = subtree_gate
        sc = np.maximum(M[:, 4], M[:, 5])[:, None, None]
        Q = M[:, None, 2:4] + af[:, :, None, None] * sc  # (K, 2, 2, m)
        return np.flatnonzero(reaches(Q, F, act[:, :, :, None]))

    def offer_pairs(parent, start, M, kids, act):
        # Offer the pair ratios of the children ``kids``.  act: bool (K, 2,
        # 2, k) = (contrast, endpoint, orientation C1/C2, feature j)
        Mk = M[:, :, kids]

        def pair(f):
            o, f = divmod(f, len(kids) * k)
            i, j = divmod(f, k)
            child = Itemset(parent + (start + 1 + int(kids[i]),))
            return ActiveConstraint("pair", sel.selected[j], child, _CASES[o])

        # (contrast, endpoint, orientation, child, feature)
        act5 = act[:, :, :, None, :]
        num = kappa - (ec[0][:, None] * Mk[:, None, None, 0])[..., None]  # t_o = ec[0, o]
        den = rho5 + (ec[:, :, None] * Mk[:, None, None, 1])[..., None]
        mask = den < -DENOM_TOL
        mask &= act5
        for idx in sel_by_parent.get(parent, ()):
            p = np.searchsorted(kids, idx - 1 - start)
            if p < len(kids) and kids[p] == idx - 1 - start:
                mask[:, :, :, p] = False
        offer(np.divide(num, den, out=np.full(den.shape, -np.inf), where=mask), pair)

    def node(parent, start, col, sums, act, leaves):
        # Every gate, offer, bound and entry decision below reads the
        # walker's sums of the node, with pruning on or off.
        # rows of M: xy, xc, sy_pos, sy_neg, sc_pos, sc_neg
        M = sums.transpose(0, 2, 1)  # (K, 6, m)
        m = M.shape[2]
        visits[act.any(axis=(1, 2))] += m
        if not prune:
            # Every child's ratios are offered, and every child is entered.
            offer_pairs(parent, start, M, np.arange(m), act)
            return np.arange(m), lambda i: act, None, None
        okids = offer_kids(M, act)
        skids = np.arange(0) if leaves else subtree_kids(M, act)
        if len(okids):
            offer_pairs(parent, start, M, okids, act)
        if not len(skids):
            return None
        kids = skids
        M = M[:, :, kids]
        # For descendants of child i the denominator lives in [dlo, dhi] and
        # the numerator is at least kappa - sy_pos (C1) or kappa - sy_neg (C2).
        # No descendant can contribute when even dlo sits above -DENOM_TOL/2
        # (a contributing denominator is below -DENOM_TOL); otherwise dlo < 0
        # and the largest reachable |denominator| is max(-dlo, dhi).
        dlo = rho5 - M[:, 9 - up][..., None]
        alive = dlo <= -half_tol
        alive &= act[:, :, :, None, :]
        den = np.maximum(-dlo, rho5 + M[:, up][..., None])
        bound = (M[:, None, 2:4, :, None] - kappa) / den
        # Gate all children at once against the incumbents' floors as they
        # stand.  ``best`` only grows, so a child gated out here stays out;
        # the walker re-tests each survivor against the live floors, which
        # earlier siblings' subtrees may have raised, before it enters it.
        gated = bound >= floor[:, :, None, None, None]
        gated &= alive
        entered = np.flatnonzero(gated.any(axis=(0, 1, 2, 4)))
        alive, bound, kids = alive[:, :, :, entered], bound[:, :, :, entered], kids[entered]

        def live(run):
            # The features each child in the slice ``run`` of ``kids`` is
            # entered for now.
            return alive[:, :, :, run] & (bound[:, :, :, run] >= floor[:, :, None, None, None])

        def enter(i):
            child_act = live(slice(i, i + 1))[:, :, :, 0]
            return child_act if child_act.any() else None

        last = None  # the leaf gate's last flag's floors, first sibling and live()

        def flag(chunk, sums, valid):
            # The leaf gate: which siblings have a grandchild ratio that
            # could beat an incumbent?  The P - Q test of the docstring, on
            # approximate sums over the node's support.
            nonlocal last
            act = live(chunk)
            last = floor, chunk.start, act
            # U = x'y + lam s_e x'c_q; Q is t_o U.
            U = sums[0] + lam_s[:, :, None, None] * sums[1:, None]  # (K, 2, S, G)
            Q = np.stack(
                [np.where(valid, U, -np.inf).max(axis=3), -np.where(valid, U, np.inf).min(axis=3)],
                axis=2,
            )  # (K, 2, 2, S)
            return reaches(Q, offer_floor, act)

        def count(run, grand):
            # ``floor`` is a new array once an offer moves an incumbent; until
            # then the flag's live() still holds.
            f, at, act = last
            act = act[:, :, :, run.start - at:run.stop - at] if f is floor else live(run)
            hit = act.any(axis=(1, 2))  # (K, run, k)
            visits[:] += (hit * grand[:, None]).sum(axis=1)

        return kids, enter, flag, count

    with np.errstate(divide="ignore", invalid="ignore"):
        # Sign rows kappa_j / rho_j seed the incumbents, so pruning has teeth
        # from the first tree node.
        offer(
            np.where(rho_e <= -DENOM_TOL, kappa / rho_e, -np.inf),
            lambda j: ActiveConstraint("sign", sel.selected[j], None, None),
        )
        # The leaf gate's sums are x'y and x'c_q.
        walk_tree(ZT, r, W, np.vstack([y, C]), node, np.ones((K, 2, 2, k), dtype=bool))

    intervals = []
    for con, b, ends, seen in zip(contrasts, best, info, visits):
        eta_y = con.eta_y
        slop = 1e-6 * (1.0 + abs(eta_y))
        if (b > slop).any():
            raise InternalConsistencyError(
                f"observation violates its own selection event "
                f"(lo={b[0]}, hi={-b[1]}); screening and contrast disagree"
            )
        # v_minus = eta_y + b[0] and v_plus = eta_y - b[1], each moved out to
        # eta_y if rounding put it on the wrong side.
        v_minus, v_plus = (
            s * min(s * (eta_y + s * be), s * eta_y) for s, be in zip((1.0, -1.0), b)
        )
        if not v_minus < v_plus:
            raise DegenerateTruncationError(
                f"truncation interval collapsed: [{v_minus}, {v_plus}]"
            )
        intervals.append(
            TruncationInterval(
                v_minus=float(v_minus),
                v_plus=float(v_plus),
                argmin_info=tuple(ends),
                metrics=TraversalMetrics(
                    nodes_visited=int(seen.sum()), total_nodes=k * D,
                ),
            )
        )
    return tuple(intervals)


def truncation_points(
    sel: ScreeningResult,
    data: Dataset,
    con: Contrast,
    r: int,
    prune: bool = True,
) -> TruncationInterval:
    """Endpoints of one contrast's truncated support of eta^T y.

    This is :func:`truncation_windows` run with the one contrast: the same
    walk, bounds and tie rules, and the interval and metrics a joint walk
    gives this contrast.
    """
    return truncation_windows(sel, data, [con], r, prune)[0]


# ---------------------------------------------------------------------------
# truncated-Normal pivot
# ---------------------------------------------------------------------------

def _phi_integral_poly(alpha: float, u: float) -> float:
    """(1/u) * integral_0^u exp(-alpha*t - t^2/2) dt, as a Taylor polynomial.

    Relative error below 1e-12 whenever u * (1 + |alpha|) <= 1e-2.
    """
    a2 = alpha * alpha
    return 1.0 + u * (
        -alpha / 2.0
        + u * (
            (a2 - 1.0) / 6.0
            + u * (alpha * (3.0 - a2) / 24.0 + u * (a2 * (a2 - 6.0) + 3.0) / 120.0)
        )
    )


def trunc_norm_cdf(x: float, mean: float, variance: float, v: float, w: float) -> float:
    """CDF of N(mean, variance) truncated to [v, w], evaluated at x.

    Stable in far tails: when the whole window sits on one side of the mean
    the Phi differences are evaluated in log space through expm1, avoiding the
    catastrophic cancellation of subtracting nearly-equal CDF values.  Narrow
    windows take a direct density-integration path instead, which stays
    accurate where any Phi-difference scheme loses to round-off.  Either
    endpoint may be infinite.  x at or below v gives 0, at or above w gives 1.
    """
    if not variance > 0:
        raise ValueError(f"variance must be positive, got {variance}")
    if not v < w:
        raise ValueError(f"need v < w, got [{v}, {w}]")
    if x <= v:
        return 0.0
    if x >= w:
        return 1.0
    s = math.sqrt(variance)
    a = (v - mean) / s
    b = (w - mean) / s
    xi = min(max((x - mean) / s, a), b)

    if math.isfinite(a) and math.isfinite(b) and (b - a) * (1.0 + max(abs(a), abs(b))) <= 1e-2:
        # Narrow window: every Phi-difference scheme cancels to ~1e-16/width,
        # so integrate the density directly.  With u measured from the lower
        # endpoint, Phi(a+u) - Phi(a) = phi(a) * u * P(a, u) for a short
        # polynomial P, and phi(a) cancels from the ratio exactly -- this is
        # accurate at any depth in the tails.  u is formed from the raw
        # endpoints to avoid the standardization round-off.
        u_x = (x - v) / s
        u_w = (w - v) / s
        num = u_x * _phi_integral_poly(a, u_x)
        den = u_w * _phi_integral_poly(a, u_w)
        if not den > 0:
            raise FloatingPointError(
                f"truncated CDF denominator underflowed for window [{v}, {w}]"
            )
        return min(max(num / den, 0.0), 1.0)

    if a >= 0:  # window in the upper tail (b may be +inf)
        la = float(log_ndtr(-a))
        lx = float(log_ndtr(-xi))
        lb = float(log_ndtr(-b))
        num = -math.expm1(lx - la)
        den = -math.expm1(lb - la)
    elif b <= 0:  # window in the lower tail (a may be -inf)
        lb_ = float(log_ndtr(b))
        lx = float(log_ndtr(xi))
        if a == -math.inf:
            num = math.exp(lx - lb_)
            den = 1.0
        else:
            la = float(log_ndtr(a))
            if lx - la > 690.0:
                # expm1 would overflow; the -1 is negligible at this scale, so
                # collapse the product exp(la - lb) * (exp(lx - la) - 1).
                num = math.exp(lx - lb_)
            else:
                num = math.exp(la - lb_) * math.expm1(lx - la)
            den = -math.expm1(la - lb_)
    else:  # window straddles the mean: plain differences are safe
        num = float(ndtr(xi)) - float(ndtr(a))
        den = float(ndtr(b)) - float(ndtr(a))

    if not den > 0:
        raise FloatingPointError(
            f"truncated CDF denominator underflowed for window [{v}, {w}]"
        )
    return min(max(num / den, 0.0), 1.0)


def _pivot_and_pvalue(
    eta_y: float, eta_var: float, interval: TruncationInterval
) -> tuple[float, float]:
    """The truncated pivot under H0: eta^T mu = 0, and its two-sided p-value."""
    if not interval.v_minus <= eta_y <= interval.v_plus:
        raise InternalConsistencyError(
            f"eta^T y = {eta_y} outside its truncation interval "
            f"[{interval.v_minus}, {interval.v_plus}]"
        )
    pivot = trunc_norm_cdf(eta_y, 0.0, eta_var, interval.v_minus, interval.v_plus)
    return pivot, min(max(2.0 * min(pivot, 1.0 - pivot), 0.0), 1.0)


def selective_pvalue(eta_y: float, eta_var: float, interval: TruncationInterval) -> float:
    """Two-sided p-value from the truncated pivot under H0: eta^T mu = 0."""
    return _pivot_and_pvalue(eta_y, eta_var, interval)[1]


def _solve_pivot_mean(
    target: float,
    eta_y: float,
    eta_var: float,
    v: float,
    w: float,
) -> float:
    """Solve trunc_norm_cdf(eta_y, m, eta_var, v, w) = target for the mean m.

    The pivot is strictly decreasing in m, so bisection applies once a
    bracket is found by geometric expansion around eta_y.  Returns -inf/+inf
    if 200 doublings cannot straddle the target.
    """
    s = math.sqrt(eta_var)

    def piv(mean: float) -> float:
        return trunc_norm_cdf(eta_y, mean, eta_var, v, w)

    left = eta_y - s
    for _ in range(200):
        if piv(left) >= target:
            break
        left = eta_y - 2.0 * (eta_y - left)
    else:
        return -math.inf
    right = eta_y + s
    for _ in range(200):
        if piv(right) <= target:
            break
        right = eta_y + 2.0 * (right - eta_y)
    else:
        return math.inf

    tol = 1e-8 * s
    for _ in range(600):
        if right - left <= tol:
            break
        mid = 0.5 * (left + right)
        if piv(mid) >= target:
            left = mid
        else:
            right = mid
    return 0.5 * (left + right)


def selective_interval(
    eta_y: float,
    eta_var: float,
    interval: TruncationInterval,
    alpha: float,
) -> tuple[float, float]:
    """Selective confidence interval at level 1 - alpha by pivot inversion.

    ``lo`` solves pivot = 1 - alpha/2 and ``hi`` solves pivot = alpha/2; with
    no truncation this reduces to the classical eta_y -+ z_{alpha/2} * sd
    interval.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lo = _solve_pivot_mean(1.0 - alpha / 2.0, eta_y, eta_var, interval.v_minus, interval.v_plus)
    hi = _solve_pivot_mean(alpha / 2.0, eta_y, eta_var, interval.v_minus, interval.v_plus)
    return lo, hi


# ---------------------------------------------------------------------------
# end-to-end
# ---------------------------------------------------------------------------

def infer(
    data: Dataset,
    config,
    prune: bool = True,
    screened: tuple[ScreeningResult, TraversalMetrics] | None = None,
) -> InferenceReport:
    """Screen, then test every selected coefficient conditional on selection.

    ``screened`` is an optional precomputed ``marginal_screen(data, config.k,
    config.r)`` result (the selection and its metrics), for callers that
    already screened, e.g. to estimate sigma; it is used instead of
    screening again.
    """
    if config.sigma is None and config.covariance is None:
        raise ValueError("inference needs a noise model: set sigma or covariance")
    if screened is None:
        screened = marginal_screen(data, config.k, config.r, prune=prune)
    sel, smetrics = screened
    if len(sel.selected) != config.k:
        raise ValueError(
            f"screening selected {len(sel.selected)} features, config has k = {config.k}"
        )
    X_S = np.column_stack([feature_column(it, data.Z) for it in sel.selected])

    cons = [
        contrast_for_coefficient(X_S, data.y, j, sigma=config.sigma, covariance=config.covariance)
        for j in range(1, config.k + 1)
    ]
    intervals = truncation_windows(sel, data, cons, config.r, prune)

    feats = []
    for itemset, con, interval in zip(sel.selected, cons, intervals):
        pivot, p_value = _pivot_and_pvalue(con.eta_y, con.eta_var, interval)
        ci_low, ci_high = selective_interval(con.eta_y, con.eta_var, interval, config.alpha)
        feats.append(
            FeatureInference(
                itemset=itemset,
                # eta'y IS the least-squares coefficient; reporting the same
                # scalar the window was built around keeps every row
                # self-consistent (v_minus <= beta_hat <= v_plus bit-exactly)
                beta_hat=con.eta_y,
                interval=interval,
                pivot=pivot,
                p_value=p_value,
                ci_low=ci_low,
                ci_high=ci_high,
                significant=bool(p_value < config.alpha),
            )
        )
    return InferenceReport(features=tuple(feats), screening=sel, screen_metrics=smetrics)
