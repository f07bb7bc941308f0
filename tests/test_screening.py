import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance, record_expanded, walk_every_node
from selectree import inference, oracle
from selectree.cli import binarize_table, emit_report, emit_screen
from selectree.experiments import SyntheticSpec, gen_synthetic
from selectree.inference import contrast_for_coefficient, infer, truncation_points
from selectree.itemsets import (
    Dataset,
    Itemset,
    ModelConfig,
    feature_column,
    sign_split,
    total_feature_count,
)
from selectree.screening import ScreeningResult, marginal_screen, rank


def _benchmark_shape(name, seed):
    """A seeded instance shaped like one of the benchmark's workloads, and
    its k (r is 3 for all three)."""
    rng = np.random.default_rng(seed)
    if name == "wide_sparse":  # n=400, d=100, sparsity 0.9, noise response
        Z = (rng.random((400, 100)) < 0.1).astype(np.float64)
        return Dataset(Z, 0.1 * rng.standard_normal(400)), 10
    if name == "tall_noise":  # 12,500 rows, 20 columns binarized into 40
        Z = rng.standard_normal((12_500, 20))
        y = rng.standard_normal(12_500)
        _, Zb = binarize_table([f"x{j}" for j in range(20)], Z)
        return Dataset(Zb, y), 30
    spec = SyntheticSpec(n=100, d=50, r=3, k=10, sparsity=0.5, sigma=0.1, seed=seed)
    return gen_synthetic(spec, 0), 10


# sha256 of the JSON and CSV reports of the seed-1 benchmark shapes (see
# ``TestBenchmarkShapes.test_report_bytes_are_pinned``).
_REPORT_SHA256 = {
    "wide_sparse": (
        "c5010f4722365f52772e274b38460ff47608bdc1ca4139fa245c0a17552a2b39",
        "bf62ec9eb964021781f2bd8f7309d05752a6cdcccec03b381b5e2f830a374b21",
    ),
    "tall_noise": (
        "d2c62ee0a388c785873c3ef155a8c46fee87c04de7b20a939929146f880e65bd",
        "ef642346bc67a0dd649818eae25c296d7b13613914301ffb6f0cab6347c9524c",
    ),
    "null_study": (
        "e1e2d91ee2184e4da89a72f221ad3e78b7921d5d7ce47ed52c19815d82b64fe8",
        "a575115601dccce123aa6b0f3de58e49d13d5518647b9185599e1f8bbbf7d90b",
    ),
}


def _assert_matches_oracle(data, k, r):
    ref = oracle.oracle_screen(data, k, r)
    for prune in (True, False):
        sel, _ = marginal_screen(data, k, r, prune=prune)
        assert sel.selected == ref.selected
        assert [s.hex() for s in sel.scores] == [s.hex() for s in ref.scores]
        assert sel.signs == ref.signs


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


    def test_rank_orders_by_abs_score_then_itemset(self):
        entries = [(1.0, (3,)), (-3.0, (2,)), (3.0, (1, 2, 3)), (3.0, (1, 3)),
                   (-3.0, (1, 2)), (-0.0, (1,)), (0.0, (4,))]
        got = sorted(entries, key=lambda e: rank(*e))
        assert got == [(-3.0, (1, 2)), (3.0, (1, 2, 3)), (3.0, (1, 3)), (-3.0, (2,)),
                       (1.0, (3,)), (-0.0, (1,)), (0.0, (4,))]
        assert rank(0.0, (1,)) == rank(-0.0, (1,))

    def test_signs_and_threshold_derive_from_scores(self):
        sel = ScreeningResult(
            selected=tuple(Itemset((j,)) for j in (1, 2, 3)), scores=(3.0, -2.0, -0.0)
        )
        assert sel.signs == (1, -1, 1)
        assert sel.kth_abs_score == 0.0 and not np.signbit(sel.kth_abs_score)
        assert ScreeningResult(sel.selected[:2], (3.0, -2.0)).kth_abs_score == 2.0


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


class TestBenchmarkShapes:
    @pytest.mark.parametrize(
        "name,visits",
        [("wide_sparse", 5011), ("tall_noise", 10320), ("null_study", 10211)],
    )
    def test_visit_counts_are_pinned(self, name, visits):
        # These are the counts of the walk that scored every child exactly
        # and bounded it from sums over all n rows.  A gate that let the
        # approximate scores or the support-compacted bounds decide a prune
        # the exact walk would not make moves them.
        data, k = _benchmark_shape(name, seed=1)
        _, metrics = marginal_screen(data, k, 3)
        assert (data.n, data.d) == {
            "wide_sparse": (400, 100), "tall_noise": (12_500, 40), "null_study": (100, 50)
        }[name]
        assert metrics.nodes_visited == visits

    @pytest.mark.parametrize(
        "name,exact", [("wide_sparse", 100), ("tall_noise", 96), ("null_study", 102)]
    )
    def test_exact_scores_are_pinned(self, name, exact):
        # The children the per-node walk scores exactly.  A leaf gate that
        # clears a leaf parent with such a child loses them.
        data, k = _benchmark_shape(name, seed=1)
        assert marginal_screen(data, k, 3)[1].exact_scores == exact

    def test_report_bytes_do_not_depend_on_blas_threads(self):
        # OpenBLAS splits a dot product of more than 10,000 rows across its
        # threads; the score kernel must not.  The tall_noise screen scores
        # 12,500 rows, and ``infer --sigma estimate`` would estimate the
        # noise from its selection's residual.  The wide_sparse report
        # covers the truncation walk's per-node products.
        code = (
            "import io, sys; sys.path[:0] = sys.argv[1:];"
            "from test_screening import (_benchmark_shape, marginal_screen, emit_screen,"
            " emit_report, infer, ModelConfig);"
            "from selectree.cli import estimate_sigma;"
            "data, k = _benchmark_shape('tall_noise', 1); buf = io.StringIO();"
            "sel = marginal_screen(data, k, 3)[0];"
            "emit_screen(sel, [f'z{j}' for j in range(40)], buf, 'json');"
            "print(buf.getvalue(), float.hex(estimate_sigma(data, sel)));"
            "data, k = _benchmark_shape('wide_sparse', 1); buf = io.StringIO();"
            "report = infer(data, ModelConfig(r=3, k=k, sigma=0.1));"
            "emit_report(report, [f'z{j}' for j in range(1, 101)], buf, 'json');"
            "print(buf.getvalue())"
        )
        tests = Path(__file__).resolve().parent
        paths = [str(tests), str(tests.parent / "src")]
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            out.append(subprocess.run([sys.executable, "-c", code, *paths], env=env,
                                      capture_output=True, text=True, check=True,
                                      timeout=300).stdout)
        assert out[0] == out[1] and '"score"' in out[0] and '"p_value"' in out[0]

    @pytest.mark.parametrize("name,reached", [("wide_sparse", 100), ("null_study", 67)])
    def test_truncation_reached_nodes_are_pinned(self, monkeypatch, name, reached):
        # The truncation nodes the pruned walk reaches, every one of which
        # the walker hands to ``node``.
        seen = record_expanded(monkeypatch, inference)
        data, k = _benchmark_shape(name, seed=1)
        infer(data, ModelConfig(r=3, k=k, sigma=0.1))
        assert len(seen) == reached

    def test_criterion_5_shape_counts_are_pinned(self):
        metrics = [marginal_screen(*_benchmark_shape("null_study", seed), 3)[1]
                   for seed in range(1, 11)]
        assert [m.nodes_visited for m in metrics] == [
            10211, 8181, 5387, 9546, 5151, 9316, 12298, 17425, 14520, 8521
        ]
        assert [m.exact_scores for m in metrics] == [102, 90, 68, 77, 60, 79, 86, 101, 110, 101]

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("name", ["wide_sparse", "tall_noise", "null_study"])
    def test_report_bytes_are_pinned(self, name, prune):
        # The bytes a refactor of the walks or of the writers must keep:
        # ``emit_report`` of ``infer`` (sigma 0.1, the shapes' noise level),
        # or ``emit_screen`` for the screening-only workload, in both formats.
        data, k = _benchmark_shape(name, seed=1)
        names = [f"z{j}" for j in range(1, data.d + 1)]
        if name == "tall_noise":
            result, emit = marginal_screen(data, k, 3, prune=prune)[0], emit_screen
        else:
            result = infer(data, ModelConfig(r=3, k=k, sigma=0.1), prune=prune)
            emit = emit_report
        for fmt, sha in zip(("json", "csv"), _REPORT_SHA256[name]):
            buf = io.StringIO()
            emit(result, names, buf, fmt)
            assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == sha


class TestGateHazards:
    """Inputs where the score gate and the subtree gate meet exact ties."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_ternary_response_on_binary_covariates(self, seed):
        # y in {-1, 0, 1} on 0/1 columns: scores are small integers, so many
        # tie at the k-th score, on both sides of the prune threshold.
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 16)), int(rng.integers(1, 7))
        Z = (rng.random((n, d)) < rng.uniform(0.2, 0.9)).astype(np.float64)
        y = rng.integers(-1, 2, n).astype(np.float64)
        r = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(8, total_feature_count(d, r)) + 1))
        _assert_matches_oracle(Dataset(Z, y), k, r)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_zero_response_with_zero_column(self, k):
        # Every score and bound is 0, so the threshold stays 0 and the
        # zero-support subtrees below column 1 must still be walked: their
        # itemsets come first lexicographically.
        Z = (np.random.default_rng(2).random((8, 4)) < 0.5).astype(np.float64)
        Z[:, 0] = 0.0
        data = Dataset(Z, np.zeros(8))
        _assert_matches_oracle(data, k, 3)
        sel, _ = marginal_screen(data, k, 3)
        assert [it.indices for it in sel.selected[:3]] == [(1,), (1, 2), (1, 2, 3)][:k]

    @pytest.mark.parametrize("y", [0.7, -2.0, 0.0])
    def test_single_row(self, y):
        Z = np.array([[1.0, 0.0, 0.5, 1.0]])
        for k in (1, 3, 6):
            _assert_matches_oracle(Dataset(Z, np.array([y])), k, 3)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_ties_at_the_kth_score(self, k):
        # Columns 1-3 are copies, so every itemset over them (and over them
        # with the all-ones column 4) scores 3, as does {4}; {5} scores 2.
        # Each k cuts the tie group at a different place.
        base = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        Z = np.column_stack([base, base, base, np.ones(6), [1, 1, 0, 0, 0, 0]])
        y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        _assert_matches_oracle(Dataset(Z, y), k, 3)

    def test_negative_zero_covariates(self):
        # -0.0 is stored as +0.0.  Otherwise np.dot over the one row would
        # score {1,2} as -0.0 from the full column [-0.0] but as +0.0 from the
        # column rebuilt off the empty support of {1}.
        data = Dataset(np.array([[-0.0, 1.0]]), np.array([1.0]))
        _assert_matches_oracle(data, 3, 2)
        sel, _ = marginal_screen(data, 3, 2)
        assert [(it.indices, s.hex()) for it, s in zip(sel.selected, sel.scores)] == [
            ((2,), "0x1.0000000000000p+0"), ((1,), "0x0.0p+0"), ((1, 2), "0x0.0p+0")
        ]


def _leaf_gate_case(name):
    """(data, k, r) of one ``TestScreeningLeafGate`` case."""
    if name == "margin":
        # k = 1 and {3} scores S on the last row, so the floor F stands from
        # the root on.  S is chosen so that {1,2}'s per-node approximate score
        # lands on F, while the gate's product, which multiplies in another
        # order, rounds just below it (OpenBLAS on x86-64).
        rng = np.random.default_rng(82)
        Z = np.zeros((6, 3))
        Z[:-1, 0], Z[:-1, 1], Z[-1, 2] = rng.uniform(0.2, 1, 5), rng.uniform(0.2, 1, 5), 1.0
        y = rng.uniform(0.1, 1, 5) * rng.choice([-1, 1], 5)
        return Dataset(Z, np.append(y, float.fromhex("0x1.c6ef4f52fd9f3p-2"))), 1, 2
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "root_children_are_leaf_parents":
        Z = (rng.random((40, 30)) < 0.5).astype(np.float64)
        return Dataset(Z, rng.standard_normal(40)), 5, 2
    if name == "one_child_chunks":
        # {1} has 299 children, more than one chunk holds.
        Z = (rng.random((12, 300)) < 0.3).astype(np.float64)
        return Dataset(Z, rng.standard_normal(12)), 4, 2
    if name == "top_fills_mid_chunk":
        # The root and {1} score 79 children; the top 150 fills while the
        # first chunk of {1}'s leaf parents is replayed, so the gate is off
        # for that chunk and on for the next ones of the same node.
        return Dataset(rng.random((30, 40)), rng.standard_normal(30)), 150, 3
    Z = (rng.random((20, 12)) < 0.5).astype(np.float64)
    if name == "zero_response":
        return Dataset(Z, np.zeros(20)), 6, 3
    return Dataset(Z, rng.integers(-1, 2, 20).astype(np.float64)), 6, 3  # ternary_response


class TestScreeningLeafGate:
    """The leaf gate of ``marginal_screen``: selections, scores and signs
    equal the unpruned walk's and the oracle's bit for bit, and
    ``nodes_visited`` and ``exact_scores`` are pinned to the counts of the
    walk that expanded each entered leaf parent on its own."""

    @pytest.mark.parametrize("name,visits,exact", [
        ("root_children_are_leaf_parents", 256, 36),
        ("one_child_chunks", 1307, 303),
        ("top_fills_mid_chunk", 10700, 855),
        ("zero_response", 298, 298),  # every score ties the threshold 0
        ("ternary_response", 172, 53),
        ("margin", 6, 4),  # the root's 3 children, then {1,2}
    ])
    def test_matches_the_unpruned_walk(self, name, visits, exact):
        data, k, r = _leaf_gate_case(name)
        _assert_matches_oracle(data, k, r)
        _, metrics = marginal_screen(data, k, r)
        assert (metrics.nodes_visited, metrics.exact_scores) == (visits, exact)


class TestGateCounter:
    def test_zero_response_scores_every_child(self):
        # Every child ties with the k-th best at 0, so the gate admits all.
        Z = (np.random.default_rng(5).random((10, 6)) < 0.5).astype(np.float64)
        _, metrics = marginal_screen(Dataset(Z, np.zeros(10)), 4, 3)
        assert metrics.exact_scores == metrics.nodes_visited == total_feature_count(6, 3)

    def test_noise_response_scores_few_children(self):
        data, k = _benchmark_shape("tall_noise", seed=1)
        _, metrics = marginal_screen(data, k, 3)
        assert k <= metrics.exact_scores < metrics.nodes_visited

    def test_unpruned_walk_scores_every_child(self, tiny):
        _, metrics = marginal_screen(tiny, 2, 2, prune=False)
        assert metrics.exact_scores == metrics.nodes_visited == 6

    def test_truncation_leaves_it_at_zero(self, tiny):
        sel, _ = marginal_screen(tiny, 2, 2)
        X = np.column_stack([feature_column(it, tiny.Z) for it in sel.selected])
        con = contrast_for_coefficient(X, tiny.y, 1, sigma=1.0)
        iv = truncation_points(sel, tiny, con, 2)
        assert iv.metrics.nodes_visited > 0
        assert iv.metrics.exact_scores == 0


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


def test_selected_itemsets_are_itemset_instances(tiny):
    sel, _ = marginal_screen(tiny, k=2, r=2)
    assert all(isinstance(it, Itemset) for it in sel.selected)
