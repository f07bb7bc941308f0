"""Top-k marginal screening over the implicit interaction-feature tree.

The screener returns the k features with the largest |x_j^T y| among all
D = sum_{rho<=r} C(d,rho) interaction features without ever materializing the
design matrix.  The search runs on :func:`selectree.itemsets.walk_tree`, the
depth-first walker it shares with the truncation search.  At each node the
walker forms the children's columns on the node's support, ``block =
ZT[start:, rows] * col[rows]``, and one product ``block @ W[rows]`` with ``W =
[y, y+, y-]``, which gives every child an approximate score x^T y and the
sign-partitioned sums

    sy_pos = sum_{i: y_i>0} x_i y_i,      sy_neg = -sum_{i: y_i<0} x_i y_i,

and max(sy_pos, sy_neg) bounds |x_l^T y| for every descendant l (descending
multiplies the column by further [0,1] factors, so both sums can only
shrink).

The best k so far form a list sorted by :func:`rank`.  Once it is full,
both uses of the sums are two-stage gates against the ``prune_floor`` of its
last (k-th best) |score|, and both are exact.  Only a child whose
approximate |score| reaches the floor is scored exactly (``column_score`` on
its full column ``ZT[start + i] * col``) and offered to the list; and only a
subtree whose bound reaches it is entered, the walker re-testing each
survivor of the vectorized test against the live floor first.  This cannot
change the result:

- the floor's slack dwarfs the product's rounding, so a child the gate rules
  out scores strictly below the threshold, and no descendant of a pruned
  subtree reaches it;
- the threshold only grows while a node is expanded, so gating against an
  earlier one only admits more children;
- ``column_score`` on the full column, the kernel the brute-force
  enumeration uses, still makes every selection decision.

The leaf gate.  At a node at depth r - 2 the walker passes the children
screening may enter, the parents of leaves, to
:func:`selectree.itemsets.gate_leaf_parents`, the chunk-and-replay the
truncation search runs too, with screening's ``flag``, ``count`` and
``enter``.  Per chunk of siblings it hands over every grandchild's
approximate x^T y on the node's support.
While the top k is full, a sibling is flagged only if one of its
grandchildren's |x^T y| reaches ``prune_floor(floor, sum|y|)``, the floor
of the floor; a cleared sibling whose bound reaches the live floor adds its
grandchildren to the visits.  The margin between the two floors covers the
rounding of both products, so every grandchild the walk without the leaf
gate would score exactly lies in a flagged sibling, which the walker then
expands as any other node.  A cleared sibling has no grandchild that can
enter the top k, so the threshold stands still across it, and
``exact_scores`` and ``nodes_visited`` are those of the walk without the
leaf gate.

Determinism contract: features are ordered by :func:`rank` (ties in |score|
go to the smaller itemset), a zero score gets sign +1, and the selected
scores are computed with the exact same column construction and dot-product
kernel as the naive enumeration, so pruned, unpruned and brute-force runs
agree bit for bit.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .itemsets import (
    Dataset,
    Itemset,
    TraversalMetrics,
    column_score,
    prune_floor,
    sign_split,
    total_feature_count,
    walk_tree,
)

__all__ = ["ScreeningResult", "marginal_screen", "rank"]


@dataclass(frozen=True)
class ScreeningResult:
    """The selection event: k itemsets, ordered by :func:`rank`, and their
    scores x_j^T y, from which ``signs`` and ``kth_abs_score`` derive."""

    selected: tuple[Itemset, ...]
    scores: tuple[float, ...]

    @property
    def signs(self) -> tuple[int, ...]:
        """sign(x_j^T y) per selected feature, +1 on a zero score."""
        return tuple(1 if s >= 0 else -1 for s in self.scores)

    @property
    def kth_abs_score(self) -> float:
        """The smallest selected |score|: the screening threshold."""
        return abs(self.scores[-1])


def rank(score: float, indices: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
    """The selection order's sort key: |score| descending (0.0 ties -0.0),
    then the indices ascending, so a proper prefix precedes its extensions."""
    return -abs(score), indices


def marginal_screen(
    data: Dataset,
    k: int,
    r: int,
    prune: bool = True,
) -> tuple[ScreeningResult, TraversalMetrics]:
    """Exact top-k screening by pruned depth-first search.

    With ``prune=False`` the search degrades to full enumeration and scores
    every child exactly; the output is identical either way (the gates only
    ever skip children and subtrees that provably cannot reach the current
    threshold).  ``metrics.exact_scores`` counts the children scored exactly.
    """
    D = total_feature_count(data.d, r)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > D:
        raise ValueError(f"k = {k} exceeds the number of features D = {D}")

    ZT = np.ascontiguousarray(data.Z.T)
    y = data.y
    W = np.stack([y, *sign_split(y)], axis=1)  # (n, 3): [y, y+, y-]
    ysum = float(np.abs(y).sum())

    # The best k so far, as (rank key..., score) sorted by rank.
    top: list[tuple[float, tuple[int, ...], float]] = []
    visited = 0
    exact = 0

    def floor() -> float:
        return prune_floor(abs(top[-1][2]), ysum)

    def node(parent, start, col, sums, state, leaves):
        # Score the node's children from the walker's sums: per child an
        # approximate x'y, then sy_pos and sy_neg for the bound; the exact
        # score for those that can enter the top k.
        nonlocal visited, exact
        m = len(sums)
        visited += m
        cand = range(m)
        if prune and len(top) == k:
            cand = np.flatnonzero(np.abs(sums[:, 0]) >= floor()).tolist()
        exact += len(cand)
        for i in cand:
            child = parent + (start + 1 + i,)
            s = column_score(ZT[start + i] * col, y)
            bisect.insort(top, (*rank(s, child), s))
            del top[k:]
        if leaves:
            return None
        if not prune:
            return np.arange(m), lambda i: True, None, None
        bounds = np.maximum(sums[:, 1], sums[:, 2])
        # Gate all children against the floor as it stands; the walker
        # re-tests each survivor against the live one, which earlier
        # siblings' subtrees may have raised, before it enters it.
        kids = np.arange(m) if len(top) < k else np.flatnonzero(bounds >= floor())

        def enter(i):
            # The walk carries no state; None drops a child the live floor
            # has passed.
            return None if len(top) == k and bounds[kids[i]] < floor() else True

        def flag(chunk, sums, valid):
            # The leaf gate: which siblings have a grandchild whose
            # approximate |score| reaches the floor of the floor?
            if len(top) < k:
                return np.ones(chunk.stop - chunk.start, dtype=bool)
            approx = np.abs(sums[0])  # (S, G)
            approx[~valid] = -np.inf
            return (approx >= prune_floor(floor(), ysum)).any(axis=1)

        def count(run, grand):
            nonlocal visited
            visited += int(grand[bounds[kids[run]] >= floor()].sum())

        return kids, enter, flag, count

    walk_tree(ZT, r, W, y[None], node, None)

    result = ScreeningResult(
        selected=tuple(Itemset(e[1]) for e in top),
        scores=tuple(e[2] for e in top),
    )
    metrics = TraversalMetrics(
        nodes_visited=visited,
        total_nodes=D,
        exact_scores=exact,
    )
    return result, metrics
