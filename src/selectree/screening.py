"""Top-k marginal screening over the implicit interaction-feature tree.

The screener returns the k features with the largest |x_j^T y| among all
D = sum_{rho<=r} C(d,rho) interaction features without ever materializing the
design matrix.  The search runs on :func:`selectree.itemsets.walk_tree`, the
depth-first walker it shares with the truncation search, which hands each
node its own column ``col`` and that column's support ``rows``.  The
children's columns on the support, ``block = ZT[start:, rows] * col[rows]``,
and one product ``block @ W[rows]`` with ``W = [y, y+, y-]`` give every child
an approximate score x^T y and the sign-partitioned sums

    sy_pos = sum_{i: y_i>0} x_i y_i,      sy_neg = -sum_{i: y_i<0} x_i y_i,

and max(sy_pos, sy_neg) bounds |x_l^T y| for every descendant l (descending
multiplies the column by further [0,1] factors, so both sums can only
shrink).

Both uses of these sums are two-stage gates, and both are exact.  Once k
candidates are on the heap, only a child whose approximate |score| reaches
the k-th best absolute score, less the scale-free ``PRUNE_SLACK`` margin, is
scored exactly (``column_score`` on its full column ``ZT[start + i] * col``)
and offered to the heap; and only a subtree whose bound reaches it is
entered, each survivor of the vectorized test being re-tested against the
live threshold first.  This cannot change the result:

- the slack dwarfs the product's rounding, so a child the gate rules out
  scores strictly below the threshold, and no descendant of a pruned
  subtree reaches it;
- the threshold only grows while a node is expanded, so gating against an
  earlier one only admits more children;
- ``np.dot`` on the full column, the kernel the brute-force enumeration
  uses, still makes every heap decision.

Determinism contract: ties in |score| are broken lexicographically (smaller
itemset wins), a zero score gets sign +1, and the selected scores are computed
with the exact same column construction and dot-product kernel as the naive
enumeration, so pruned, unpruned and brute-force runs agree bit for bit.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .itemsets import (
    PRUNE_SLACK,
    Dataset,
    Itemset,
    TraversalMetrics,
    column_score,
    sign_split,
    total_feature_count,
    walk_tree,
)

__all__ = ["ScreeningResult", "marginal_screen"]


@dataclass(frozen=True)
class ScreeningResult:
    """The selection event: k itemsets, their signs and scores.

    ``selected`` is ordered by (|score| descending, itemset ascending); signs
    are sign(x_j^T y) with +1 on a zero score; ``kth_abs_score`` is the
    smallest selected |score| (the screening threshold).
    """

    selected: tuple[Itemset, ...]
    signs: tuple[int, ...]
    scores: tuple[float, ...]
    kth_abs_score: float


def _tie_key(itemset: tuple[int, ...]) -> tuple[int, ...]:
    """Heap tie key: larger key = lexicographically smaller itemset.

    Negating the indices reverses the order; the trailing sentinel (greater
    than any negated index) makes a proper prefix beat its extensions, e.g.
    (1,2) over (1,2,3).
    """
    return tuple(-i for i in itemset) + (1,)


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

    t0 = time.perf_counter()
    ZT = np.ascontiguousarray(data.Z.T)
    y = data.y
    W = np.stack([y, *sign_split(y)], axis=1)  # (n, 3): [y, y+, y-]
    ysum = float(np.abs(y).sum())

    def cut(thresh: float) -> float:
        # Below this, a score or bound provably misses the k-th best |score|.
        return thresh - PRUNE_SLACK * (ysum + thresh)

    # Min-heap of (|score|, tie_key, score, itemset); the root is the current
    # k-th best, i.e. the first to be evicted.
    heap: list[tuple[float, tuple[int, ...], float, tuple[int, ...]]] = []
    visited = 0
    exact = 0

    def expand(parent, start, rows, col, state, leaves):
        nonlocal visited, exact
        block = ZT[start:, rows]  # fancy indexing copies, so scale in place
        block *= col[rows]
        m = block.shape[0]
        visited += m
        # Per child: approximate x'y, then sy_pos and sy_neg for the bound.
        sums = block @ W[rows]

        # Only a child whose approximate |score| reaches the k-th best (less
        # the slack) can enter the heap; it gets the exact score.
        cand = range(m)
        if prune and len(heap) == k:
            cand = np.flatnonzero(np.abs(sums[:, 0]) >= cut(heap[0][0])).tolist()
        exact += len(cand)
        for i in cand:
            child = parent + (start + 1 + i,)
            s = column_score(ZT[start + i] * col, y)
            entry = (abs(s), _tie_key(child), s, child)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry[:2] > heap[0][:2]:
                heapq.heapreplace(heap, entry)

        if leaves:
            return
        if not prune:
            yield from ((i, None) for i in range(m))
            return
        bounds = np.maximum(sums[:, 1], sums[:, 2])
        # Gate all children against the threshold as it stands, then re-test
        # each survivor against the live one, which earlier siblings'
        # subtrees may have raised, before the walk enters it.
        keep = range(m)
        if len(heap) == k:
            keep = np.flatnonzero(bounds >= cut(heap[0][0])).tolist()
        for i in keep:
            if len(heap) == k and bounds[i] < cut(heap[0][0]):
                continue
            yield i, None

    walk_tree(ZT, r, expand, None)

    ranked = sorted(heap, key=lambda e: (e[0], e[1]), reverse=True)
    selected = tuple(Itemset(e[3]) for e in ranked)
    scores = tuple(e[2] for e in ranked)
    signs = tuple(1 if s >= 0 else -1 for s in scores)
    result = ScreeningResult(
        selected=selected,
        signs=signs,
        scores=scores,
        kth_abs_score=abs(scores[-1]),
    )
    metrics = TraversalMetrics(
        nodes_visited=visited,
        total_nodes=D,
        elapsed=time.perf_counter() - t0,
        exact_scores=exact,
    )
    return result, metrics
