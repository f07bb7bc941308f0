import numpy as np
import pytest

from selectree.itemsets import Dataset, column_score, walk_tree


@pytest.fixture
def tiny():
    """Three rows, three binary covariates, hand-checkable responses.

    Scores (r=2): {1}: 3, {2}: 1, {3}: 0, {1,2}: 2, {1,3}: 1, {2,3}: -1.
    Top-2 with signs: {1} (+, 3), {1,2} (+, 2).
    """
    Z = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    y = np.array([2.0, -1.0, 1.0])
    return Dataset(Z, y)


def random_instance(rng: np.random.Generator, n_max=30, d_max=10):
    """A small random dataset mixing binary / continuous Z and integer /
    continuous y, the shapes the oracle-equivalence criteria sweep."""
    n = int(rng.integers(5, n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    if rng.random() < 0.5:
        Z = (rng.random((n, d)) < rng.uniform(0.2, 0.8)).astype(np.float64)
    else:
        Z = rng.random((n, d))
    if rng.random() < 0.4:
        y = rng.integers(-3, 4, n).astype(np.float64)
    else:
        y = rng.standard_normal(n)
    return Dataset(Z, y)


def walk_every_node(Z, r, W, y):
    """Run ``walk_tree`` over the whole tree (no pruning) and record, per
    itemset: its column as the walk formed it, its row of the walk's own
    ``block @ W`` sums, and its ``column_score`` against y.  Insertion order
    is the walk's visiting order."""
    nodes = {}

    def expand(parent, start, block, state, leaves):
        sums = block @ W
        for i in range(block.shape[0]):
            nodes[parent + (start + 1 + i,)] = (block[i], sums[i], column_score(block[i], y))
            yield i, None

    walk_tree(np.ascontiguousarray(Z.T), r, expand, None)
    return nodes
