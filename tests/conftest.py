import dataclasses

import numpy as np
import pytest

from selectree.itemsets import Dataset, column_score, walk_tree
from selectree.screening import marginal_screen


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


def degenerate_designs():
    """Inputs handed straight to ``Dataset`` whose top 3 (r=2) includes
    identical columns, so the selected Gram matrix is singular: duplicate
    covariate columns, a constant all-ones column (so {1,3} equals {1}), and
    a single row."""
    rng = np.random.default_rng(3)
    Z = (rng.random((30, 5)) < 0.5).astype(np.float64)
    y = 2.0 * Z[:, 0] + 0.1 * rng.standard_normal(30)
    dup, ones = Z.copy(), Z.copy()
    dup[:, 1] = Z[:, 0]
    ones[:, 2] = 1.0
    return {
        "duplicate_columns": Dataset(dup, y),
        "all_ones_column": Dataset(ones, y),
        "single_row": Dataset(np.array([[1.0, 0.0, 1.0]]), np.array([0.7])),
    }


def unseeded(data, k, r):
    """``marginal_screen(data, k, r)`` with the runners-up stripped from its
    result, to hand ``infer`` as ``screened``: the truncation walk then
    seeds no gate and starts from the sign rows alone."""
    sel, metrics = marginal_screen(data, k, r)
    return dataclasses.replace(sel, runners_up=()), metrics


def record_expanded(monkeypatch, module):
    """Patch ``module.walk_tree`` so that the returned list records the
    parent of every node the walker hands to ``node``, in walk order."""
    seen = []
    walk = module.walk_tree

    def counting_walk(ZT, r, W, V, node, state):
        def counted(parent, *args):
            seen.append(parent)
            return node(parent, *args)

        return walk(ZT, r, W, V, counted, state)

    monkeypatch.setattr(module, "walk_tree", counting_walk)
    return seen


def walk_every_node(Z, r, W, y):
    """Run ``walk_tree`` over the whole tree (no pruning) and record, per
    itemset: its full column, formed from its parent's ``col`` as the
    searches form it, its row of the walker's ``block @ W[rows]`` sums on
    the parent's support, and its ``column_score`` against y.  Insertion
    order is the walk's visiting order."""
    nodes = {}
    ZT = np.ascontiguousarray(Z.T)

    def node(parent, start, col, sums, state, leaves):
        cols = ZT[start:] * col
        for i in range(cols.shape[0]):
            nodes[parent + (start + 1 + i,)] = (cols[i], sums[i], column_score(cols[i], y))
        return np.arange(len(cols)), lambda i: True, None, None

    walk_tree(ZT, r, W, None, node, None)
    return nodes
