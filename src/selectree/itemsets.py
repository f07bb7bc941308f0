"""Implicit enumeration of high-order interaction features.

A model over d covariates z_1..z_d (each scaled to [0,1]) can include any
product feature x_J = prod_{j in J} z_j for an index set J of size at most r.
The D = sum_{rho=1}^{r} C(d, rho) candidate features are never materialized as
a design matrix; they are organized as a prefix tree over sorted index sets
(children append a strictly larger index) and searched lazily by
:func:`walk_tree`, the one depth-first walker that both screening and the
truncation search run on.  It runs the whole node routine: it forms each
node's column, its children's block and the block's product with the
search's weights, hands the sums to the search's scoring, and enters the
children the search's gates name.  At the parents of leaves it gates the
walk with one shared chunk-and-replay, :func:`gate_leaf_parents`, which
lays out the leaf level and yields the children to expand.  Because
all covariate values lie in [0,1], a descendant's feature column is
elementwise no larger than its ancestor's, which is what makes subtree
bounds possible downstream.

Indices are 1-based throughout: itemset (1, 3) means the product z_1 * z_3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "Itemset",
    "Dataset",
    "ModelConfig",
    "column_score",
    "feature_column",
    "total_feature_count",
    "TraversalMetrics",
    "walk_tree",
    "gate_leaf_parents",
    "PRUNE_SLACK",
    "prune_floor",
]

# The one prune rule: a score or subtree bound is kept iff it reaches
# prune_floor(incumbent, sum(|y|)), the incumbent less PRUNE_SLACK *
# (sum(|y|) + |incumbent|).  The margin dwarfs the rounding of the batched
# matmuls the bounds come from, so ties are kept (exact tie-breaking needs
# them) and no score or ratio that direct evaluation keeps is ever dropped.
# sum(|y|) bounds every |x'y| for x in [0,1]^n, so the rule does not change
# when y is rescaled.  The truncation search's DENOM_TOL needs no such scale:
# its denominators are inner products with c = Sigma eta / (eta' Sigma eta),
# which does not change under (y, sigma) -> (a y, a sigma).
PRUNE_SLACK = 1e-9

# The leaf gate takes a node's leaf-parent children in chunks holding at most
# this many grandchildren (or one child), so that a search's per-chunk gate
# arrays stay small.
_LEAF_GATE_CELLS = 256

# The longest dot product the score kernel hands to BLAS in one call; see
# column_score.
_DOT_BLOCK = 8192


def prune_floor(incumbent, ysum: float):
    """The least score or bound kept against ``incumbent``, a float or an
    array; an incumbent of -inf keeps everything."""
    return incumbent - PRUNE_SLACK * (ysum + abs(incumbent))


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
        # Written so that NaN fails it: every comparison with NaN is False.
        if Z.size and not (Z.min() >= 0.0 and Z.max() <= 1.0):
            raise ValueError("covariate values must lie in [0, 1]")
        if not np.all(np.isfinite(y)):
            raise ValueError("response contains non-finite entries")
        # Store -0.0 as +0.0: every feature column is then +0.0 off its
        # support, so a block formed on the support omits only +0.0 entries.
        if np.signbit(Z).any():
            Z = Z + 0.0
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
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.covariance is not None:
            cov = np.asarray(self.covariance, dtype=np.float64)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise ValueError("covariance must be a square matrix")
            object.__setattr__(self, "covariance", cov)


@dataclass
class TraversalMetrics:
    """Workload counters for one tree search.

    ``exact_scores`` counts the children that screening's gate sent to
    :func:`column_score`; the other children were ruled out of the top k by
    their approximate score alone.  The truncation search scores no
    candidates this way and leaves it at 0.
    """

    nodes_visited: int = 0
    total_nodes: int = 0
    exact_scores: int = 0


# ---------------------------------------------------------------------------
# tree search
# ---------------------------------------------------------------------------

def walk_tree(
    ZT: np.ndarray,
    r: int,
    W: np.ndarray,
    V: np.ndarray,
    node: Callable[..., tuple | None],
    state: Any,
) -> None:
    """Depth-first search of the itemset tree down to order ``r``.

    ``ZT`` is the transposed covariate matrix (d x n, C-contiguous).  A node's
    children append one index above the node's largest, so every itemset of
    order 1..r is reached exactly once and in lexicographic order.

    Each node carries its own feature column ``col`` (full length n) and that
    column's support ``rows`` (its sorted nonzero rows).  The root is
    ``np.ones(n)`` on every row.  Child ``parent + (start + 1 + i,)`` has
    column ``ZT[start + i] * col``, bit for bit :func:`feature_column`'s
    product (IEEE multiplication commutes), and support
    ``rows[child[rows] != 0]``: a row where a column is zero stays zero in
    every descendant.

    The walker runs the whole node routine; a search supplies only its
    scoring and gates.  At each node it forms the children's block on the
    support, ``ZT[start:, rows] * col[rows]``, and its product with the
    search's weights, ``sums = np.matmul(block, W.take(rows, axis=-2))``:
    shape (m, w) for a 2-D ``W`` of shape (n, w), or (K, m, w) for a 3-D one
    of shape (K, n, w), one product per slice, so each slice's sums are bit
    for bit those of a walk with that slice alone.  Only the leaf gate reads
    the block again, so below depth r - 2 it is formed in place and freed
    before the search's arithmetic.

    ``node(parent, start, col, sums, state, leaves)`` then scores the
    children (``leaves`` is true when they are at order ``r`` and have no
    subtrees) and returns None, to enter none of them, or ``(kids, enter,
    flag, count)``: ``kids`` the positions of the children that may be
    entered, ascending, and ``enter(i)`` the state of child ``kids[i]``
    re-tested against the search's live incumbents, or None if it is no
    longer live.  At depth r - 2, when ``flag`` is given, the kids go
    through :func:`gate_leaf_parents` with the node's factors, block and
    weight rows ``V[:, rows]``; otherwise each is re-tested by ``enter`` in
    turn.  Either way the walker expands an entered child before it
    re-tests the next, so an incumbent that tightens inside one subtree
    already gates the next.  This is the only code that descends.
    """
    d, n = ZT.shape

    def visit(parent: tuple[int, ...], rows: np.ndarray, col: np.ndarray, state: Any) -> None:
        start = parent[-1] if parent else 0
        leaves, gate = len(parent) + 1 == r, len(parent) + 2 == r
        Zr = ZT[start:].take(rows, axis=1)
        block = Zr * col[rows] if gate else np.multiply(Zr, col[rows], out=Zr)
        sums = np.matmul(block, W.take(rows, axis=-2))
        if not gate:
            # Free the block now, so that it is not held through the search's
            # arithmetic, nor the blocks of the nodes above a gated one.
            del Zr, block
        out = node(parent, start, col, sums, state, leaves)
        del sums  # not held through the descent
        if out is None or leaves:
            return
        kids, enter, flag, count = out
        if gate and flag is not None:
            entered = gate_leaf_parents(kids, Zr, block, V[:, rows], flag, count, enter)
        else:
            entered = ((int(kids[p]), enter(p)) for p in range(len(kids)))
        for i, child_state in entered:
            if child_state is not None and start + 1 + i < d:
                child = ZT[start + i] * col
                visit(parent + (start + 1 + i,), rows[child[rows] != 0], child, child_state)

    visit((), np.arange(n), np.ones(n, dtype=np.float64), state)


def gate_leaf_parents(
    kids: np.ndarray,
    Zr: np.ndarray,
    block: np.ndarray,
    V: np.ndarray,
    flag: Callable[[slice, np.ndarray, np.ndarray], np.ndarray],
    count: Callable[[slice, np.ndarray], None],
    enter: Callable[[int], Any],
) -> Iterator[tuple[int, Any]]:
    """The leaf level of a pruned walk: a node's leaf parents, chunk by chunk.

    A node at depth r - 2 has children whose own children are leaves.
    :func:`walk_tree` runs this generator on the children the search may
    enter there, ``kids``, ascending, given the node's factors ``Zr =
    ZT[start:, rows]`` and block ``Zr * col[rows]`` on its support and the
    search's weight rows ``V`` there, shape (w, len(rows)), and expands each
    child it yields.  The last child has no children and
    is dropped; every position ``i`` below indexes the prefix of ``kids``
    left, and child ``kids[i]`` has ``grand[i] = len(Zr) - 1 - kids[i]``
    children.

    The siblings are taken in chunks holding at most ``_LEAF_GATE_CELLS``
    grandchildren (or one sibling).  Per chunk, one product gives ``sums``,
    (w, S, G): sums[v, s, g] is V[v]'s inner product with sibling s's
    column times ``Zr[1 + i0 + g]``, i0 the chunk's first sibling, and
    ``valid[s, g]`` marks the factors that name one of sibling s's
    children.  ``flag(chunk, sums, valid)`` returns a boolean per sibling:
    true for each that could change the search's state.  The chunk is then
    replayed in walk order:

    - ``count(run, grand[run])`` once for each run of cleared siblings,
      which must count their visits against the live incumbents, as the
      walker would.  A cleared sibling changes no incumbent, so the
      incumbents stand still across the run;
    - ``enter(i)`` for each flagged sibling, which must re-test it against
      the live incumbents, raised by the siblings before it, and return its
      state, or None if it is no longer live.  A live sibling is yielded as
      ``(kids[i], state)``; the walker expands it before the replay goes on.

    The search's ``node`` supplies ``flag``, ``count`` and ``enter``.
    """
    kids = kids[kids < len(Zr) - 1]
    grand = len(Zr) - 1 - kids
    g = grand.tolist()
    w, nr = len(V), Zr.shape[1]
    lo = 0
    while lo < len(g):
        hi, cells = lo + 1, g[lo]
        while hi < len(g) and cells + g[hi] <= _LEAF_GATE_CELLS:
            cells += g[hi]
            hi += 1
        sib = kids[lo:hi]
        i0 = sib[0]
        G = Zr[1 + i0:]
        # The row count is named, not -1, so that an empty support reshapes.
        AV = (block[sib] * V[:, None]).reshape(w * len(sib), nr)
        sums = (AV @ G.T).reshape(w, len(sib), len(G))
        valid = np.arange(len(G)) >= (sib - i0)[:, None]
        pos = lo
        for f in (lo + np.flatnonzero(flag(slice(lo, hi), sums, valid))).tolist() + [hi]:
            if f > pos:
                count(slice(pos, f), grand[pos:f])
            if f < hi:
                state = enter(f)
                if state is not None:
                    yield int(kids[f]), state
            pos = f + 1
        lo = hi


def column_score(col: np.ndarray, v: np.ndarray) -> float:
    """The score kernel: one feature column's inner product with ``v``.

    Screening and the oracle score every feature with this one call, and the
    truncation search scores the selected columns against its contrast with
    it, so the routes agree bit for bit.  The ``np.dot``s of consecutive
    blocks of at most ``_DOT_BLOCK`` rows are added left to right: OpenBLAS
    splits a longer dot across its threads, which would make the bits depend
    on the thread count.  Up to ``_DOT_BLOCK`` rows this is one ``np.dot``.
    """
    s = np.dot(col[:_DOT_BLOCK], v[:_DOT_BLOCK])
    for i in range(_DOT_BLOCK, len(col), _DOT_BLOCK):
        s += np.dot(col[i:i + _DOT_BLOCK], v[i:i + _DOT_BLOCK])
    return float(s)


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


def sign_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split v into (positive part, absolute negative part), both >= 0.

    A node's column against each part gives sums that both shrink as the
    column is multiplied by further [0,1] factors down the tree, which is
    what bounds every descendant's inner product with v.
    """
    v = np.asarray(v, dtype=np.float64)
    return np.where(v > 0, v, 0.0), np.where(v < 0, -v, 0.0)
