import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import walk_every_node
from selectree.itemsets import (
    ROOT,
    Dataset,
    Itemset,
    ModelConfig,
    feature_column,
    gate_leaf_parents,
    prune_floor,
    sign_split,
    total_feature_count,
    walk_tree,
)


class TestItemset:
    def test_ordering_is_lexicographic(self):
        assert Itemset((1, 3)) < Itemset((2,))
        assert Itemset((1, 2)) < Itemset((1, 2, 3))  # prefix first
        assert Itemset((2, 5)) > Itemset((2, 4, 9))

    def test_str(self):
        assert str(Itemset((1, 2))) == "{1,2}"
        assert str(ROOT) == "{}"

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Itemset((2, 1))
        with pytest.raises(ValueError):
            Itemset((1, 1))

    def test_rejects_zero_based(self):
        with pytest.raises(ValueError):
            Itemset((0, 1))

    def test_order(self):
        assert ROOT.order == 0
        assert Itemset((4, 7, 9)).order == 3


def _children(d, r):
    """Each node's children as ``walk_tree`` hands them to ``expand`` (row i
    of the block is ``parent + (start + 1 + i,)``) when it descends
    everywhere; a node it never expands has no children."""
    kids = {}

    def expand(parent, start, rows, col, state, leaves):
        kids[parent] = [Itemset(parent + (start + 1 + i,)) for i in range(d - start)]
        yield from ((i, None) for i in range(d - start))

    walk_tree(np.ones((d, 1)), r, expand, None)
    return lambda node: kids.get(node.indices, [])


class TestChildren:
    def test_root_children(self):
        assert _children(d=3, r=2)(ROOT) == [Itemset((1,)), Itemset((2,)), Itemset((3,))]

    def test_extends_past_max_index_only(self):
        assert _children(d=4, r=3)(Itemset((2,))) == [Itemset((2, 3)), Itemset((2, 4))]

    def test_order_cap(self):
        assert _children(d=5, r=2)(Itemset((1, 2))) == []

    @given(d=st.integers(1, 7), r=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_tree_enumerates_every_itemset_once(self, d, r):
        # Children append one index above the parent's largest, nothing goes
        # deeper than r, and an expand that descends everywhere visits every
        # itemset once, in lexicographic (= depth-first) order.
        seen = []

        def expand(parent, start, rows, col, state, leaves):
            assert state == len(parent)
            assert leaves == (len(parent) + 1 == r)
            assert col.tolist() == [1.0, 1.0]
            assert rows.tolist() == [0, 1]
            for i in range(d - start):
                seen.append(parent + (start + 1 + i,))
                yield i, state + 1

        walk_tree(np.ones((d, 2)), r, expand, 0)
        expected = sorted(
            c
            for rho in range(1, r + 1)
            for c in itertools.combinations(range(1, d + 1), rho)
        )
        assert seen == expected
        assert len(seen) == len(set(seen)) == total_feature_count(d, r)


class TestFeatureColumn:
    def test_products(self, tiny):
        np.testing.assert_array_equal(
            feature_column(Itemset((1, 2)), tiny.Z), [1.0, 0.0, 0.0]
        )
        np.testing.assert_array_equal(
            feature_column((2, 3), tiny.Z), [0.0, 1.0, 0.0]
        )

    def test_root_is_ones(self, tiny):
        np.testing.assert_array_equal(feature_column(ROOT, tiny.Z), np.ones(3))

    def test_out_of_range(self, tiny):
        with pytest.raises(IndexError):
            feature_column((4,), tiny.Z)


def test_total_feature_count_matches_binomials():
    assert total_feature_count(3, 2) == 6
    assert total_feature_count(10, 3) == 10 + 45 + 120
    assert total_feature_count(4, 9) == 15  # r clipped at d
    # exact big integers, no overflow
    assert total_feature_count(5000, 3) == 5000 + math.comb(5000, 2) + math.comb(5000, 3)


class TestPruneFloor:
    """A score or bound is kept iff it reaches ``prune_floor(incumbent, ysum)``."""

    @pytest.mark.parametrize("incumbent", [0.0, 3.0, 1e-300, 1e300])
    def test_a_tie_is_kept(self, incumbent):
        assert incumbent >= prune_floor(incumbent, 0.0)
        np.testing.assert_array_equal(
            np.array([incumbent]) >= prune_floor(np.array([incumbent]), 0.0), [True]
        )

    def test_minus_infinity_keeps_everything(self):
        assert prune_floor(-math.inf, 5.0) == -math.inf
        floors = prune_floor(np.array([[-np.inf, 1.0]]), 5.0)
        assert floors[0, 0] == -np.inf and floors[0, 1] < 1.0
        assert -np.inf >= floors[0, 0] and -1e308 >= floors[0, 0]

    @given(
        incumbent=st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) >= 1e-6),
        ysum=st.floats(0.0, 1e6).filter(lambda v: v == 0.0 or v >= 1e-6),
        e=st.integers(-60, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_power_of_two_scaling_is_exact(self, incumbent, ysum, e):
        # Every operand stays a normal float, so scaling by 2**e is exact.
        scale = 2.0 ** e
        assert prune_floor(incumbent * scale, ysum * scale) == prune_floor(incumbent, ysum) * scale
        arr = np.array([incumbent, -incumbent, -np.inf])
        np.testing.assert_array_equal(
            prune_floor(arr * scale, ysum * scale), prune_floor(arr, ysum) * scale
        )


def test_sign_split_partitions():
    v = np.array([1.5, -2.0, 0.0, 3.0])
    pos, neg = sign_split(v)
    np.testing.assert_array_equal(pos, [1.5, 0.0, 0.0, 3.0])
    np.testing.assert_array_equal(neg, [0.0, 2.0, 0.0, 0.0])
    np.testing.assert_array_equal(pos - neg, v)


class TestDataset:
    def test_rejects_out_of_range_covariates(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.2]]), np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([[-0.1]]), np.array([1.0]))

    def test_rejects_nan_covariates(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.5, np.nan]]), np.array([1.0]))

    def test_rejects_nonfinite_response(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.5]]), np.array([np.nan]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.eye(2), np.ones(3))

    def test_properties(self, tiny):
        assert (tiny.n, tiny.d) == (3, 3)
        assert tiny.Z.flags["C_CONTIGUOUS"]


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(r=0, k=1)
        with pytest.raises(ValueError):
            ModelConfig(r=1, k=0)
        with pytest.raises(ValueError):
            ModelConfig(r=1, k=1, sigma=0.0)
        with pytest.raises(ValueError):
            ModelConfig(r=1, k=1, alpha=1.0)
        with pytest.raises(ValueError):
            ModelConfig(r=1, k=1, covariance=np.ones((2, 3)))

    @pytest.mark.parametrize("sigma", [np.inf, np.nan, -1.0])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            ModelConfig(r=1, k=1, sigma=sigma)
        assert ModelConfig(r=1, k=1, sigma=1e300).sigma == 1e300

    def test_defaults(self):
        cfg = ModelConfig(r=3, k=10)
        assert cfg.sigma is None and cfg.alpha == 0.05


class TestNodeStats:
    """The per-node statistics the walks form: each child's full column,
    formed from its parent's ``col``, and its sign-partitioned sums as a row
    of ``block @ W[rows]`` on the parent's support (with the truncation's
    ``W``)."""

    @staticmethod
    def _W(y, c):
        y_pos, y_neg = sign_split(y)
        c_pos, c_neg = sign_split(c)
        return np.stack([y, c, y_pos, y_neg, c_pos, c_neg], axis=1)

    def test_matches_direct_sums(self, tiny):
        c = np.array([0.5, -0.25, 1.0])
        nodes = walk_every_node(tiny.Z, 3, self._W(tiny.y, c), tiny.y)
        for itemset, (col, sums, score) in nodes.items():
            assert score == float(feature_column(itemset, tiny.Z) @ tiny.y)
            assert sums[0] == pytest.approx(score)
            assert sums[2] - sums[3] == pytest.approx(score)
            assert sums[4] - sums[5] == pytest.approx(sums[1])
            assert (sums[2:] >= 0).all()

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 12),
        d=st.integers(1, 6),
        density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        binary=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_descend_equals_from_scratch(self, seed, n, d, density, binary):
        # The walk builds each column by one multiplication of its parent's.
        # The column every node carries, and each child's column formed from
        # it, is bit-identical to materializing it from scratch, and the rows
        # a node carries are exactly its column's nonzero support.
        rng = np.random.default_rng(seed)
        Z = rng.random((n, d)) * (rng.random((n, d)) < density)
        if binary:
            Z = (Z > 0).astype(np.float64)
        Z = Dataset(Z, np.zeros(n)).Z
        ZT = np.ascontiguousarray(Z.T)
        supports = {}

        def expand(parent, start, rows, col, state, leaves):
            supports[parent] = rows
            assert col.tobytes() == feature_column(parent, Z).tobytes()
            assert rows.tolist() == np.flatnonzero(col).tolist()
            cols = ZT[start:] * col
            for i in range(cols.shape[0]):
                child = parent + (start + 1 + i,)
                assert cols[i].tobytes() == feature_column(child, Z).tobytes()
                yield i, None

        walk_tree(ZT, 4, expand, None)
        assert supports[()].tolist() == list(range(n))
        for node, rows in supports.items():
            assert rows.tolist() == np.flatnonzero(feature_column(node, Z)).tolist()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_sums_shrink_down_the_tree(self, seed):
        # The pruning logic leans on this holding for the *computed* values,
        # not just in exact arithmetic: multiplying the column by a [0,1]
        # factor can only shrink each product, and the shared summation
        # order keeps the reduction monotone too.
        rng = np.random.default_rng(seed)
        n, d = 12, 5
        Z = rng.random((n, d))
        y = rng.standard_normal(n)
        c = rng.standard_normal(n)
        nodes = walk_every_node(Z, 3, self._W(y, c), y)
        for itemset, (_, sums, _) in nodes.items():
            if len(itemset) > 1:
                parent_sums = nodes[itemset[:-1]][1]
                assert (sums[2:] <= parent_sums[2:]).all()


class TestGateLeafParents:
    @staticmethod
    def _run(kids, m, flag, enter, calls, rows=2):
        # A node with m children on ``rows`` support rows; every yield is
        # logged between the calls around it.
        Zr = np.ones((m, rows))
        gen = gate_leaf_parents(
            np.array(kids), Zr, Zr.copy(), np.ones((1, rows)), flag,
            lambda run, grand: calls.append(("count", run.start, run.stop, grand.tolist())),
            enter,
        )
        for child, state in gen:
            calls.append(("yield", child, state))

    def test_chunks_and_replay_order(self):
        # The children of a node with 302 children have 301 - kid children
        # each: 300 grandchildren fill a chunk alone; 130 + 120 + 60 would
        # pass 256, so the next chunk is 130 and 120; the last holds 60, 5, 3.
        calls = []
        flags = {0: [False], 1: [False, True], 3: [True, False, True]}

        def flag(chunk, sums, valid):
            calls.append(("flag", chunk.start, chunk.stop))
            return np.array(flags[chunk.start])

        def enter(i):
            calls.append(("enter", i))
            return f"state{i}"

        self._run([1, 171, 181, 241, 296, 298], 302, flag, enter, calls)
        assert calls == [
            ("flag", 0, 1), ("count", 0, 1, [300]),
            ("flag", 1, 3), ("count", 1, 2, [130]), ("enter", 2), ("yield", 181, "state2"),
            ("flag", 3, 6), ("enter", 3), ("yield", 241, "state3"), ("count", 4, 5, [5]),
            ("enter", 5), ("yield", 298, "state5"),
        ]

    def test_last_child_is_dropped(self):
        # Child 4 of a node with five children has no children of its own.
        calls = []

        def flag(chunk, sums, valid):
            calls.append(("flag", chunk.start, chunk.stop))
            return np.ones(chunk.stop - chunk.start, dtype=bool)

        self._run([0, 2, 4], 5, flag, lambda i: i, calls)
        assert calls == [("flag", 0, 2), ("yield", 0, 0), ("yield", 2, 1)]

    def test_failed_retest_yields_nothing(self):
        calls = []
        flag = lambda chunk, sums, valid: np.ones(chunk.stop - chunk.start, dtype=bool)
        self._run([0, 1, 2], 6, flag, lambda i: None if i == 1 else i, calls)
        assert calls == [("yield", 0, 0), ("yield", 2, 2)]

    @pytest.mark.parametrize("rows", [7, 0])
    def test_sums_and_valid_cells(self, rows):
        # sums[v, s, g] is V[v]'s inner product with sibling s's column times
        # the grandchild factor Zr[1 + i0 + g]; valid marks the factors that
        # lie above sibling s.  An empty support gives zero sums.
        rng = np.random.default_rng(3)
        Zr = rng.random((9, rows))
        block = Zr * rng.random(rows)
        V = rng.standard_normal((3, rows))
        kids = np.array([2, 4, 5])
        seen = []

        def flag(chunk, sums, valid):
            seen.append((sums, valid))
            return np.zeros(chunk.stop - chunk.start, dtype=bool)

        list(gate_leaf_parents(kids, Zr, block, V, flag, lambda run, grand: None, None))
        (sums, valid), = seen
        assert sums.shape == (3, 3, 6) and valid.shape == (3, 6)
        for s, kid in enumerate(kids):
            for g in range(6):
                assert valid[s, g] == (3 + g > kid)
                want = V @ (block[kid] * Zr[3 + g])
                np.testing.assert_allclose(sums[:, s, g], want, rtol=1e-12, atol=1e-12)

    def test_no_children(self):
        Zr = np.ones((3, 2))
        assert list(gate_leaf_parents(np.array([], dtype=np.int64), Zr, Zr, Zr[:1],
                                      None, None, None)) == []
        # Only the last child: dropped before any chunk is formed.
        assert list(gate_leaf_parents(np.array([2]), Zr, Zr, Zr[:1], None, None, None)) == []
