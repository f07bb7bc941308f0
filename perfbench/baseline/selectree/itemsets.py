"""Implicit enumeration of high-order interaction features.

A model over d covariates z_1..z_d (each scaled to [0,1]) can include any
product feature x_J = prod_{j in J} z_j for an index set J of size at most r.
The D = sum_{rho=1}^{r} C(d, rho) candidate features are never materialized as
a design matrix; they are organized as a prefix tree over sorted index sets
(children append a strictly larger index) and enumerated lazily.  Because all
covariate values lie in [0,1], a descendant's feature column is elementwise
no larger than its ancestor's, which is what makes subtree bounds possible
downstream.

Indices are 1-based throughout: itemset (1, 3) means the product z_1 * z_3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Itemset",
    "Dataset",
    "NodeStats",
    "ModelConfig",
    "children",
    "feature_column",
    "node_stats",
    "descend_stats",
    "total_feature_count",
    "TraversalMetrics",
]


@dataclass(frozen=True, order=True)
class Itemset:
    """A sorted tuple of distinct 1-based covariate indices naming one feature.

    Ordering (and hence tie-breaking everywhere in the package) is plain
    lexicographic comparison of the index tuples: (1,3) < (2,), and a proper
    prefix precedes its extensions.  The empty tuple is permitted only as the
    traversal root; it never denotes a feature.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if any(i < 1 for i in idx):
            raise ValueError(f"covariate indices are 1-based, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")

    @property
    def order(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.indices)) + "}"


ROOT = Itemset(())


@dataclass(frozen=True)
class Dataset:
    """Covariate matrix Z (n x d, entries in [0,1]) and response vector y."""

    Z: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        Z = np.ascontiguousarray(self.Z, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        if Z.ndim != 2:
            raise ValueError(f"Z must be 2-d, got shape {Z.shape}")
        if y.shape != (Z.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({Z.shape[0]},)")
        if Z.size and (Z.min() < 0.0 or Z.max() > 1.0):
            raise ValueError("covariate values must lie in [0, 1]")
        if not np.all(np.isfinite(y)):
            raise ValueError("response contains non-finite entries")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def d(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True)
class ModelConfig:
    """Knobs shared by screening and inference.

    Either ``sigma`` (noise s.d., giving covariance sigma^2 * I) or a full
    ``covariance`` matrix must be supplied for inference; screening needs
    neither.
    """

    r: int
    k: int
    sigma: float | None = None
    covariance: np.ndarray | None = None
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("maximum interaction order r must be >= 1")
        if self.k < 1:
            raise ValueError("screening size k must be >= 1")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.covariance is not None:
            cov = np.asarray(self.covariance, dtype=np.float64)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise ValueError("covariance must be a square matrix")
            object.__setattr__(self, "covariance", cov)


@dataclass
class TraversalMetrics:
    """Workload counters for one tree search."""

    nodes_visited: int = 0
    total_nodes: int = 0
    elapsed: float = 0.0


# ---------------------------------------------------------------------------
# tree navigation
# ---------------------------------------------------------------------------

def children(itemset: Itemset, d: int, r: int) -> list[Itemset]:
    """Children of a node: append each index above max(itemset), in order.

    Every index set of size 1..r is reachable from the root exactly once, so
    the enumeration is a tree (no DAG dedup needed) and depth-first order is
    lexicographic.
    """
    if itemset.order >= r:
        return []
    start = itemset.indices[-1] if itemset.indices else 0
    return [Itemset(itemset.indices + (j,)) for j in range(start + 1, d + 1)]


def feature_column(itemset: Itemset | tuple[int, ...], Z: np.ndarray) -> np.ndarray:
    """Materialize one feature column: the elementwise product of Z columns.

    Factors are multiplied left to right (increasing index) so that the same
    itemset always yields bit-identical floats no matter which code path asked
    for it.  The empty root maps to the all-ones column.
    """
    idx = itemset.indices if isinstance(itemset, Itemset) else tuple(itemset)
    n, d = Z.shape
    for i in idx:
        if not 1 <= i <= d:
            raise IndexError(f"covariate index {i} out of range 1..{d}")
    if not idx:
        return np.ones(n, dtype=np.float64)
    col = np.array(Z[:, idx[0] - 1], dtype=np.float64)
    for i in idx[1:]:
        col = col * Z[:, i - 1]
    return col


def total_feature_count(d: int, r: int) -> int:
    """D = sum_{rho=1}^{r} C(d, rho), computed exactly (arbitrary precision)."""
    if d < 1 or r < 1:
        raise ValueError("d and r must be >= 1")
    return sum(math.comb(d, rho) for rho in range(1, r + 1))


# ---------------------------------------------------------------------------
# per-node statistics
# ---------------------------------------------------------------------------

def sign_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split v into (positive part, absolute negative part), both >= 0."""
    v = np.asarray(v, dtype=np.float64)
    return np.where(v > 0, v, 0.0), np.where(v < 0, -v, 0.0)


@dataclass(frozen=True)
class NodeStats:
    """Sign-partitioned inner products of one feature column.

    For a column x and vector v, define  s_pos = sum_{i: v_i > 0} x_i v_i  and
    s_neg = -sum_{i: v_i < 0} x_i v_i;  both are nonnegative and, crucially,
    both shrink monotonically as the column is multiplied by further [0,1]
    factors while descending the tree.  ``score`` is the plain inner product
    x^T y = sy_pos - sy_neg.  The c-sums are populated only when a contrast
    vector is supplied (the truncation search); screening leaves them None.
    """

    itemset: tuple[int, ...]
    col: np.ndarray
    sy_pos: float
    sy_neg: float
    score: float
    sc_pos: float | None = None
    sc_neg: float | None = None


def node_stats(
    itemset: Itemset | tuple[int, ...],
    Z: np.ndarray,
    y: np.ndarray,
    c: np.ndarray | None = None,
) -> NodeStats:
    """NodeStats computed from scratch (column materialized, then reduced)."""
    idx = itemset.indices if isinstance(itemset, Itemset) else tuple(itemset)
    col = feature_column(idx, Z)
    return _stats_from_column(idx, col, y, c)


def descend_stats(
    parent: NodeStats,
    new_index: int,
    Z: np.ndarray,
    y: np.ndarray,
    c: np.ndarray | None = None,
) -> NodeStats:
    """Child stats from a parent by one extra multiplication of the column."""
    if parent.itemset and new_index <= parent.itemset[-1]:
        raise ValueError(
            f"new index {new_index} must exceed max of parent {parent.itemset}"
        )
    col = parent.col * Z[:, new_index - 1]
    return _stats_from_column(parent.itemset + (new_index,), col, y, c)


def _stats_from_column(
    idx: tuple[int, ...],
    col: np.ndarray,
    y: np.ndarray,
    c: np.ndarray | None,
) -> NodeStats:
    y_pos, y_neg = sign_split(y)
    sy_pos = float(np.dot(col, y_pos))
    sy_neg = float(np.dot(col, y_neg))
    score = float(np.dot(col, np.asarray(y, dtype=np.float64)))
    if c is None:
        return NodeStats(idx, col, sy_pos, sy_neg, score)
    c_pos, c_neg = sign_split(c)
    return NodeStats(
        idx,
        col,
        sy_pos,
        sy_neg,
        score,
        sc_pos=float(np.dot(col, c_pos)),
        sc_neg=float(np.dot(col, c_neg)),
    )
