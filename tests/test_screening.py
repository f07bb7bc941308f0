import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance, walk_every_node
from selectree import oracle
from selectree.itemsets import Dataset, Itemset, sign_split, total_feature_count
from selectree.screening import marginal_screen


class TestTinyExample:
    def test_selection(self, tiny):
        sel, metrics = marginal_screen(tiny, k=2, r=2)
        assert [it.indices for it in sel.selected] == [(1,), (1, 2)]
        assert sel.scores == (3.0, 2.0)
        assert sel.signs == (1, 1)
        assert sel.kth_abs_score == 2.0
        assert metrics.total_nodes == total_feature_count(3, 2) == 6

    def test_matches_oracle(self, tiny):
        sel, _ = marginal_screen(tiny, k=2, r=2)
        ref = oracle.oracle_screen(tiny, k=2, r=2)
        assert sel == ref

    def test_k_equals_D_selects_everything(self, tiny):
        sel, _ = marginal_screen(tiny, k=6, r=2)
        assert len(sel.selected) == 6
        # |score| descending with lexicographic ties
        magnitudes = [abs(s) for s in sel.scores]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_k_too_large(self, tiny):
        with pytest.raises(ValueError):
            marginal_screen(tiny, k=7, r=2)


class TestTieBreaking:
    def test_duplicate_columns_break_lexicographically(self):
        # Columns 1 and 2 are identical, so {1}, {2}, {1,2} all score the
        # same; the lexicographically smallest itemsets must win.
        Z = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        y = np.array([1.0, 1.0, -1.0])
        sel, _ = marginal_screen(Dataset(Z, y), k=3, r=2)
        assert [it.indices for it in sel.selected] == [(1,), (1, 2), (2,)]

    def test_prefix_beats_extension(self):
        Z = np.ones((2, 3))
        y = np.array([1.0, 1.0])
        sel, _ = marginal_screen(Dataset(Z, y), k=2, r=3)
        assert [it.indices for it in sel.selected] == [(1,), (1, 2)]

    def test_zero_scores_get_positive_sign(self):
        Z = np.array([[1.0], [1.0]])
        y = np.array([1.0, -1.0])
        sel, _ = marginal_screen(Dataset(Z, y), k=1, r=1)
        assert sel.scores == (0.0,)
        assert sel.signs == (1,)


class TestBound:
    def test_bound_dominates_descendant_scores(self):
        # The screening walk's subtree bound max(sy_pos, sy_neg), from its own
        # block @ W sums, covers the score of the node and every descendant.
        rng = np.random.default_rng(7)
        Z = rng.random((15, 6))
        y = rng.standard_normal(15)
        W = np.stack(sign_split(y), axis=1)
        nodes = walk_every_node(Z, 3, W, y)
        for itemset, (_, sums, _) in nodes.items():
            bound = max(sums[0], sums[1])
            for other, (_, _, score) in nodes.items():
                if other[: len(itemset)] == itemset:
                    assert abs(score) <= bound


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(25))
    def test_exact_equality_random_instances(self, seed):
        rng = np.random.default_rng(900 + seed)
        data = random_instance(rng)
        r = int(rng.integers(1, 4))
        D = total_feature_count(data.d, r)
        k = int(rng.integers(1, min(5, D) + 1))
        sel, _ = marginal_screen(data, k, r)
        ref = oracle.oracle_screen(data, k, r)
        assert sel.selected == ref.selected
        assert sel.signs == ref.signs
        assert sel.scores == ref.scores
        assert sel.kth_abs_score == ref.kth_abs_score

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_pruning_changes_nothing(self, seed):
        rng = np.random.default_rng(seed)
        data = random_instance(rng, n_max=15, d_max=7)
        pruned, mp = marginal_screen(data, k=3, r=3)
        full, mf = marginal_screen(data, k=3, r=3, prune=False)
        assert pruned == full
        assert mp.nodes_visited <= mf.nodes_visited
        assert mf.nodes_visited == mf.total_nodes


def test_metrics_accounting(tiny):
    _, metrics = marginal_screen(tiny, k=1, r=2)
    assert 0 < metrics.nodes_visited <= metrics.total_nodes
    assert metrics.elapsed >= 0.0


def test_selected_itemsets_are_itemset_instances(tiny):
    sel, _ = marginal_screen(tiny, k=2, r=2)
    assert all(isinstance(it, Itemset) for it in sel.selected)
