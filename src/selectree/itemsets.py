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
children the search's gates name.  Two levels above the leaves it settles
siblings in bulk: at the parents of leaves (depth r - 2) through
:func:`gate_leaf_parents`, and one level up (depth r - 3), where it tests
chunks of siblings on their own sums before it calls the search's node
routine on any of them.  The search's node routine and its one chunk test,
at both levels, read the sums in one layout, and both levels replay their
chunks with one loop.  Because all covariate values lie in [0,1], a
descendant's feature column is elementwise no larger than its ancestor's,
which is what makes subtree bounds possible downstream.

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

# The chunk level at depth r - 3 forms, for a tested chunk's test alone, each
# child's block on its support: a chunk's blocks hold at most this many cells
# (grandchildren times support rows), or the chunk is one child.  A lone child
# is not tested, so a child with a large support, such as every child of a
# tall table's root, stays untested and is visited.
_SETTLE_CELLS = 16384

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


@dataclass(frozen=True)
class Dataset:
    """Covariate matrix Z (n x d, entries in [0,1]) and response vector y.

    The one place the covariates' layout is decided: Z is stored
    column-major (F-contiguous), so ``Z.T`` is the C-contiguous (d, n)
    matrix that :func:`walk_tree` reads, and every factor
    :func:`feature_column` reads is a contiguous column.  Neither is copied.
    """

    Z: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        Z = np.asfortranarray(self.Z, dtype=np.float64)
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

    Either ``sigma`` (noise s.d., giving covariance sigma^2 * I) or a full,
    finite ``covariance`` matrix, not both, must be supplied for inference;
    screening needs neither.
    """

    r: int
    k: int
    sigma: float | None = None
    covariance: np.ndarray | None = None
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"maximum interaction order r must be >= 1, got {self.r}")
        if self.k < 1:
            raise ValueError(f"screening size k must be >= 1, got {self.k}")
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.covariance is not None:
            if self.sigma is not None:
                raise ValueError("supply sigma or covariance, not both")
            cov = np.asarray(self.covariance, dtype=np.float64)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise ValueError("covariance must be a square matrix")
            if not np.isfinite(cov).all():
                raise ValueError("covariance contains non-finite entries")
            object.__setattr__(self, "covariance", cov)


@dataclass
class TraversalMetrics:
    """Workload counters for one tree search.

    ``exact_scores`` counts the children that screening's gate sent to
    :func:`column_score`; the other children were ruled out of the top k by
    their approximate score alone.  The truncation search scores no
    candidates this way and leaves it at 0.

    ``settled`` counts the live nodes at depth r - 2 that the walk settled
    in bulk, from their chunk's test, without calling the search's node
    routine; their children are in ``nodes_visited`` all the same.  The
    truncation walk serves all contrasts at once, so each of its intervals
    carries the walk's count.
    """

    nodes_visited: int = 0
    total_nodes: int = 0
    exact_scores: int = 0
    settled: int = 0


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

    ``ZT`` is the transposed covariate matrix (d x n, C-contiguous):
    callers pass ``Dataset.Z.T`` itself, which the column-major ``Dataset``
    makes C-contiguous without a copy.  A node's
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
    search's weights, ``np.matmul(block, W.take(rows, axis=-2))``, one
    product per slice of a 3-D ``W`` of shape (K, n, w), so each slice's
    sums are bit for bit those of a walk with that slice alone.  The sums
    have one layout, which every consumer reads: C-contiguous, a row per
    weight column and the children on the last axis, shape (w, m) for a 2-D
    ``W`` of shape (n, w), or (K, w, m) for a 3-D one.  Only the leaf gate
    reads the block again, so below depth r - 2 it is formed in place and
    freed before the search's arithmetic.

    ``node(parent, start, col, sums, state, leaves)`` then scores the
    children (``leaves`` is true when they are at order ``r`` and have no
    subtrees) and returns None, to enter none of them, or ``(kids, enter,
    busy, count)``: ``kids`` the positions of the children that may be
    entered, ascending, and ``enter(i)`` the state of child ``kids[i]``
    re-tested against the search's live incumbents, or None if it is no
    longer live.  The walker holds no reference to ``sums`` while ``node``
    runs, so a search that compacts them frees the full array.

    Two levels above the leaves, where the kids' children or grandchildren
    are leaves, ``busy`` and ``count`` settle kids in bulk.  The last child
    has no children and is dropped; every position ``i`` below indexes the
    prefix of ``kids`` left, and kid ``kids[i]`` has ``grand[i]`` children.
    The kids are taken in chunks, and both levels hand ``busy(chunk, sums,
    starts)`` the layout ``node`` gets: the sums of the chunk's kids'
    children joined on the last axis, shape (w, C) or (K, w, C), kid ``s``'s
    children in walk order from ``starts[s]`` on.  It returns one bit per
    kid: true ("busy") for each whose node could do more than count its
    children's visits against the incumbents as they stand.  One loop
    replays every chunk: ``count(run, grand[run])`` books each run of idle
    kids, which must count their visits against the live incumbents, and
    each busy kid is re-tested by ``enter`` and, if still live, expanded.
    Incumbents only rise, so a kid idle against the incumbents as they
    stood is idle against the live ones.

    - At depth r - 2 the kids are the parents of leaves and go through
      :func:`gate_leaf_parents`, with the node's factors, block and weight
      rows ``V[:, rows]``: one product per chunk on the node's support
      gives the sums, each grandchild's inner product with every row of
      ``V``.
    - At depth r - 3, the chunk level, a chunk's factors, ``grand[i]`` rows
      by the kid's support size, hold at most ``_SETTLE_CELLS`` cells, or
      the chunk is one kid.  The walker forms each kid's sums on the kid's
      own support, bit for bit those of the kid's own visit, for the test
      alone, and drops them before the replay; a busy kid forms them again
      when it is visited.  A lone kid is not tested (its test would cost
      what its node costs), nor is the chunk after a tested chunk in which
      every kid was busy; all their kids count as busy.
    - Without ``busy``, or at any other depth, each kid is re-tested by
      ``enter`` in turn.

    Either way the walker expands an entered child before it re-tests the
    next, so an incumbent that tightens inside one subtree already gates
    the next.  This is the only code that descends.
    """
    d, n = ZT.shape

    def child(parent, rows, col, i):
        # Child i of ``parent``: its itemset, support and column.
        start = parent[-1] if parent else 0
        c = ZT[start + i] * col
        return parent + (start + 1 + i,), rows[c[rows] != 0], c

    def products(parent, rows, col):
        # The node's products, in a list whose last entry, the sums, the
        # caller pops.  At depth r - 2 the leaf gate reads the factors Zr =
        # ZT[start:, rows] and the block again, so they come first; below,
        # the block is formed in place and freed.  At depth r - 3 the
        # support size of each child comes first, for the chunk budget.
        Zr = ZT[parent[-1] if parent else 0:].take(rows, axis=1)
        leaf_parents = len(parent) + 2 == r
        block = np.multiply(Zr, col[rows], out=None if leaf_parents else Zr)
        # The one orientation of the sums: C-contiguous, a row per weight
        # column and the children on the last axis.  The copy changes no bit;
        # a product of the transposed operands can round differently.
        sums = np.ascontiguousarray(np.matmul(block, W.take(rows, axis=-2)).swapaxes(-1, -2))
        if leaf_parents:
            return [Zr, block, sums]
        if len(parent) + 3 == r:
            return [np.count_nonzero(block, axis=1), sums]
        return [sums]

    def settle(parent, rows, col, sizes, kids, busy, count, enter):
        # The chunk level at depth r - 3, a generator of (kid, state).  An
        # untested chunk's kids are all busy.
        m = d - (parent[-1] if parent else 0)
        kids = kids[kids < m - 1]  # the last child has no children
        grand = m - 1 - kids
        skip = False  # set by a tested chunk in which every kid was busy
        for lo, hi in _chunks((grand * sizes[kids]).tolist(), _SETTLE_CELLS):
            if skip or hi - lo == 1:
                skip = False
                yield from _replay(lo, hi, np.ones(hi - lo, dtype=bool), kids, grand, count, enter)
                continue
            # Each kid's sums are formed for the test alone and dropped
            # before the replay; a busy kid forms them again on its visit.
            sums = np.concatenate(
                [products(*child(parent, rows, col, i))[-1] for i in kids[lo:hi].tolist()],
                axis=-1,
            )
            g = grand[lo:hi]
            bits = busy(slice(lo, hi), sums, np.cumsum(g) - g)
            sums = None
            skip = bits.all()
            yield from _replay(lo, hi, bits, kids, grand, count, enter)

    def visit(parent, rows, col, state):
        start = parent[-1] if parent else 0
        depth = len(parent)
        formed = products(parent, rows, col)
        # The sums leave the list as they are passed: while ``node`` runs the
        # walker holds no reference to them.
        out = node(parent, start, col, formed.pop(), state, depth + 1 == r)
        if out is None or depth + 1 == r:
            return
        kids, enter, busy, count = out
        if busy is not None and depth + 2 == r:
            entered = gate_leaf_parents(kids, *formed, V[:, rows], busy, count, enter)
        elif busy is not None and depth + 3 == r:
            entered = settle(parent, rows, col, *formed, kids, busy, count, enter)
        else:
            entered = ((int(kids[p]), enter(p)) for p in range(len(kids)))
        del formed
        for i, child_state in entered:
            if child_state is not None and start + 1 + i < d:
                visit(*child(parent, rows, col, i), child_state)

    visit((), np.arange(n), np.ones(n, dtype=np.float64), state)


def _chunks(cells: list[int], budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive runs ``(lo, hi)`` of siblings whose ``cells`` add up to at
    most ``budget``, or of one sibling."""
    lo = 0
    while lo < len(cells):
        hi, total = lo + 1, cells[lo]
        while hi < len(cells) and total + cells[hi] <= budget:
            total += cells[hi]
            hi += 1
        yield lo, hi
        lo = hi


def _replay(lo, hi, busy, kids, grand, count, enter):
    """The one chunk-and-replay loop: siblings lo..hi - 1 in walk order,
    ``busy`` one bit per sibling.  ``count(run, grand[run])`` books each run
    of idle siblings; each busy sibling ``i`` is re-tested by ``enter(i)``
    and, if it is still live, yielded as ``(kids[i], state)``."""
    pos = lo
    for f in busy.nonzero()[0].tolist():
        f += lo
        if f > pos:
            count(slice(pos, f), grand[pos:f])
        state = enter(f)
        if state is not None:
            yield int(kids[f]), state
        pos = f + 1
    if hi > pos:
        count(slice(pos, hi), grand[pos:hi])


def gate_leaf_parents(
    kids: np.ndarray,
    Zr: np.ndarray,
    block: np.ndarray,
    V: np.ndarray,
    busy: Callable[[slice, np.ndarray, np.ndarray], np.ndarray],
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
    grandchildren (or one sibling).  Per chunk, one product of the
    siblings' columns, times each row of ``V``, with the factors ``Zr[1 +
    i0:]``, i0 the chunk's first sibling, gives every grandchild's inner
    product with every row of ``V``.  ``busy(chunk, sums, starts)`` gets
    them in the walker's one layout (see :func:`walk_tree`): a row per row
    of ``V`` and the grandchildren on the last axis, shape (w, C), sibling
    s's ``grand[s]`` children in walk order from ``starts[s]`` on.  Row v
    of a sibling's slice holds the terms of the sums its own product on its
    own support gives with ``V[v]``, plus terms of +0.0, in another order,
    so the two differ by rounding alone, at most n eps sum|V[v]| for n =
    len(rows).  ``busy`` returns a boolean per sibling:
    true for each that could change the search's state.  The chunk is then
    replayed in walk order:

    - ``count(run, grand[run])`` once for each run of idle siblings, which
      must count their visits against the live incumbents, as the walker
      would.  An idle sibling changes no incumbent, so the incumbents stand
      still across the run;
    - ``enter(i)`` for each busy sibling, which must re-test it against
      the live incumbents, raised by the siblings before it, and return its
      state, or None if it is no longer live.  A live sibling is yielded as
      ``(kids[i], state)``; the walker expands it before the replay goes on.

    The search's ``node`` supplies ``busy``, ``count`` and ``enter``.  The
    replay is the one loop that the chunk level at depth r - 3 runs too (see
    :func:`walk_tree`).
    """
    kids = kids[kids < len(Zr) - 1]
    grand = len(Zr) - 1 - kids
    w, nr = len(V), Zr.shape[1]

    for lo, hi in _chunks(grand.tolist(), _LEAF_GATE_CELLS):
        sib = kids[lo:hi]
        i0 = sib[0]
        G = Zr[1 + i0:]
        # The row count is named, not -1, so that an empty support reshapes.
        AV = (block[sib] * V[:, None]).reshape(w * len(sib), nr)
        sums = (AV @ G.T).reshape(w, len(sib), len(G))
        # Row-major, the valid cells are each sibling's children in walk
        # order: the walker's joined layout.
        valid = np.arange(len(G)) >= (sib - i0)[:, None]
        g = grand[lo:hi]
        bits = busy(slice(lo, hi), sums[:, valid], np.cumsum(g) - g)
        yield from _replay(lo, hi, bits, kids, grand, count, enter)


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
