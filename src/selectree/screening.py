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

The best k so far form a list sorted by :func:`rank`, which runs on for up
to m = ``_RUNNERS_UP`` entries past the k-th: the runners-up, returned with
the selection for the truncation search to seed its gates with.  Both uses
of the sums are two-stage gates against the floor, the ``prune_floor`` of
the k-th best |score| (-inf while the top k is not full), and both are
exact.  The runners-up do not move that threshold, so they cost no extra
scoring and are the best of the children the gates send to be scored.
Only a child whose approximate |score| reaches the floor is scored exactly
(``column_score`` on its full column ``ZT[start + i] * col``) and offered to
the list; and only a subtree whose bound reaches it is entered, the walker
re-testing each survivor of the vectorized test against the live floor
first.  This cannot change the result:

- the floor's slack dwarfs the product's rounding, so a child the gate rules
  out scores strictly below the threshold, and no descendant of a pruned
  subtree reaches it;
- the threshold only grows while a node is expanded, so gating against an
  earlier one only admits more children;
- ``column_score`` on the full column, the kernel the brute-force
  enumeration uses, still makes every selection decision.

Two bulk levels settle siblings above the leaves, with one test, ``busy``,
on one layout: per chunk of siblings, the sums of their children joined
on the last axis, each sibling's children from ``starts[s]`` on.  A sibling
is busy only if the largest |sum| over its children reaches the level's
edge; the others are idle, and ``count`` adds the children of each live one
to the visits.

- The leaf gate.  At a node at depth r - 2 the walker passes the children
  screening may enter, the parents of leaves, to
  :func:`selectree.itemsets.gate_leaf_parents`, the chunk-and-replay the
  truncation search runs too.  The sums are every grandchild's
  approximate x^T y on the node's support, and the edge is
  ``prune_floor(floor, sum|y|)``, the floor of the floor.  The margin
  between the two floors covers the rounding of both products, so every
  grandchild the walk without the leaf gate would score exactly lies in a
  busy sibling, which the walker then expands as any other node.  An idle
  sibling has no grandchild that can enter the top k, so the threshold
  stands still across it, and ``exact_scores`` and ``nodes_visited`` are
  those of the walk without the leaf gate.
- The chunk level.  One level up, at a node at depth r - 3, the walker
  forms the sums of a chunk of the children screening may enter, each on
  its own support, before it calls ``node`` on any of them.  The sums are
  each child's approximate x^T y, sy_pos and sy_neg, and the edge is the
  floor as it stands: an idle sibling has no child whose approximate
  |x^T y| or bound reaches it, so its node would score no child exactly
  and enter none.  The floor only rises, so an idle sibling stays idle,
  and ``settled`` counts it.  The bits are those the sibling's node would
  test, so selections and both counters are those of the walk without the
  chunk level.

Determinism contract: features are ordered by :func:`rank` (ties in |score|
go to the smaller itemset), a zero score gets sign +1, and the selected
scores are computed with the exact same column construction and dot-product
kernel as the naive enumeration, so pruned, unpruned and brute-force runs
agree bit for bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

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

# The list of the best scores so far runs this many entries past the k-th,
# so that screening returns the best exact-scored runners-up with its
# selection.  They cost no extra scoring: every gate still compares against
# the k-th entry.
_RUNNERS_UP = 50


@dataclass(frozen=True)
class ScreeningResult:
    """The selection event: k itemsets, ordered by :func:`rank`, and their
    scores x_j^T y, from which ``signs`` derives.

    ``runners_up`` holds up to ``_RUNNERS_UP`` unselected ``(itemset,
    score)`` pairs that screening scored exactly, the best first by
    :func:`rank`; the truncation search seeds its gates with them.  They are
    not part of the selection event, so equality ignores them.
    """

    selected: tuple[Itemset, ...]
    scores: tuple[float, ...]
    runners_up: tuple[tuple[Itemset, float], ...] = field(
        default=(), compare=False, repr=False
    )

    @property
    def signs(self) -> tuple[int, ...]:
        """sign(x_j^T y) per selected feature, +1 on a zero score."""
        return tuple(1 if s >= 0 else -1 for s in self.scores)


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
    The runners-up are the best of those scored exactly: with ``prune=False``
    they are the ``min(_RUNNERS_UP, D - k)`` features ranked after the k-th.
    """
    D = total_feature_count(data.d, r)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > D:
        raise ValueError(f"k = {k} exceeds the number of features D = {D}")

    y = data.y
    # sum |y| bounds every score and every floor: one that overflows is a
    # numeric failure, reported without numpy's warning.
    with np.errstate(over="ignore"):
        ysum = float(np.abs(y).sum())
    if not math.isfinite(ysum):
        raise FloatingPointError("the sum of |y| overflows")
    ZT = np.ascontiguousarray(data.Z.T)
    W = np.stack([y, *sign_split(y)], axis=1)  # (n, 3): [y, y+, y-]

    # The best k so far and their runners-up, as (rank key..., score) sorted
    # by rank.
    top: list[tuple[float, tuple[int, ...], float]] = []
    keep = k + _RUNNERS_UP
    visited = 0
    exact = 0
    settled = 0

    def floor() -> float:
        # -inf, which keeps everything, until the top k is full.
        return prune_floor(abs(top[k - 1][2]) if len(top) >= k else -math.inf, ysum)

    def node(parent, start, col, sums, state, leaves):
        # Score the node's children from the walker's sums: per child an
        # approximate x'y, then sy_pos and sy_neg for the bound; the exact
        # score for those that can enter the top k.
        nonlocal visited, exact
        m = len(sums)
        visited += m
        cand = np.flatnonzero(np.abs(sums[:, 0]) >= floor()).tolist() if prune else range(m)
        exact += len(cand)
        for i in cand:
            child = parent + (start + 1 + i,)
            s = column_score(ZT[start + i] * col, y)
            bisect.insort(top, (*rank(s, child), s))
            del top[keep:]
        if leaves:
            return None
        if not prune:
            return np.arange(m), lambda i: True, None, None
        bounds = np.maximum(sums[:, 1], sums[:, 2])
        # Gate all children against the floor as it stands; the walker
        # re-tests each survivor against the live one, which earlier
        # siblings' subtrees may have raised, before it enters it.
        kids = np.flatnonzero(bounds >= floor())
        chunked = len(parent) + 3 == r

        def enter(i):
            # The walk carries no state; None drops a child the live floor
            # has passed.
            return None if bounds[kids[i]] < floor() else True

        def busy(chunk, sums, starts):
            # Both bulk levels: which siblings have a child with an |x'y|
            # that reaches the level's edge, or, at the chunk level, where
            # the sums hold sy_pos and sy_neg too, both >= 0, a bound that
            # does?  The others would only count their children's visits.
            edge = floor() if chunked else prune_floor(floor(), ysum)
            return np.maximum.reduceat(np.abs(sums).max(axis=0), starts) >= edge

        def count(run, grand):
            nonlocal visited, settled
            live = bounds[kids[run]] >= floor()
            visited += int(grand[live].sum())
            if chunked:
                settled += int(np.count_nonzero(live))

        return kids, enter, busy, count

    walk_tree(ZT, r, W, y[None], node, None)

    result = ScreeningResult(
        selected=tuple(Itemset(e[1]) for e in top[:k]),
        scores=tuple(e[2] for e in top[:k]),
        runners_up=tuple((Itemset(e[1]), e[2]) for e in top[k:]),
    )
    metrics = TraversalMetrics(
        nodes_visited=visited,
        total_nodes=D,
        exact_scores=exact,
        settled=settled,
    )
    return result, metrics
