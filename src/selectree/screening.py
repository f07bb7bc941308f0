"""Top-k marginal screening over the implicit interaction-feature tree.

The screener returns the k features with the largest |x_j^T y| among all
D = sum_{rho<=r} C(d,rho) interaction features without ever materializing the
design matrix.  The search runs on :func:`selectree.itemsets.walk_tree`, the
depth-first walker it shares with the truncation search; at each node it
knows the sign-partitioned sums

    sy_pos = sum_{i: y_i>0} x_i y_i,      sy_neg = -sum_{i: y_i<0} x_i y_i,

and max(sy_pos, sy_neg) bounds |x_l^T y| for every descendant l (descending
multiplies the column by further [0,1] factors, so both sums can only
shrink).  Once k candidates are on the heap, any subtree whose bound falls
below the running k-th best absolute score (by more than the scale-free
``PRUNE_SLACK`` margin) cannot contribute and is skipped.

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

    With ``prune=False`` the search degrades to full enumeration; the output
    is identical either way (the bound is only ever used to skip subtrees
    that provably cannot reach the current threshold).
    """
    D = total_feature_count(data.d, r)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > D:
        raise ValueError(f"k = {k} exceeds the number of features D = {D}")

    t0 = time.perf_counter()
    ZT = np.ascontiguousarray(data.Z.T)
    y = data.y
    y_pos, y_neg = sign_split(y)
    W = np.stack([y_pos, y_neg], axis=1)  # (n, 2) for batched subtree bounds
    ysum = float(np.abs(y).sum())

    # Min-heap of (|score|, tie_key, score, itemset); the root is the current
    # k-th best, i.e. the first to be evicted.
    heap: list[tuple[float, tuple[int, ...], float, tuple[int, ...]]] = []
    visited = 0

    def expand(parent, start, block, state, leaves):
        nonlocal visited
        m = block.shape[0]
        visited += m
        for i in range(m):
            child = parent + (start + 1 + i,)
            s = column_score(block[i], y)
            entry = (abs(s), _tie_key(child), s, child)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry[:2] > heap[0][:2]:
                heapq.heapreplace(heap, entry)

        if leaves:
            return
        bounds = block @ W  # (m, 2): per-child sy_pos, sy_neg
        for i in range(m):
            if prune and len(heap) == k:
                thresh = heap[0][0]
                bound = max(bounds[i, 0], bounds[i, 1])
                if bound < thresh - PRUNE_SLACK * (ysum + thresh):
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
    )
    return result, metrics
