"""The benchmark under perfbench/ wraps selectree functions by module
attribute and runs the oracle as its correctness gate; these checks keep the
names and call shapes it relies on working.  The benchmark's files are only
read, never changed."""

import collections
import importlib
import importlib.util
import os
import types

import numpy as np

from selectree import cli, experiments, inference, oracle
from selectree.itemsets import Dataset, feature_column
from selectree.screening import marginal_screen

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracer = _load_tracer()
    for mod, attr, _ in tracer.SPANS + tracer.COUNTS:
        module = importlib.import_module(f"selectree.{mod}")
        assert callable(getattr(module, attr)), f"selectree.{mod}.{attr}"


def test_oracle_screen_reads_only_z_y_d():
    # The tall_noise gate hands the oracle a namespace without ``n``.
    rng = np.random.default_rng(11)
    Z = (rng.random((40, 6)) < 0.4).astype(np.float64)
    y = rng.standard_normal(40)
    data = types.SimpleNamespace(Z=np.asfortranarray(Z), y=y, d=6)
    ref = oracle.oracle_screen(data, 5, 3)
    sel, _ = marginal_screen(Dataset(Z, y), 5, 3)
    assert ref == sel


def test_marginal_screen_reports_the_traced_metrics(tiny):
    # The tracer reads nodes_visited and total_nodes off the metrics half of
    # the traced screening.marginal_screen's (result, metrics) pair.
    result = marginal_screen(tiny, 2, 2)
    counts = collections.Counter()
    _load_tracer()._traversal_counts("screening.marginal_screen", result, counts)
    assert counts["screening.calls"] == 1
    assert counts["screening.nodes_visited"] == result[1].nodes_visited > 0
    assert counts["screening.total_nodes"] == result[1].total_nodes == 6


def test_truncation_points_reports_the_traced_metrics(tiny):
    # The tracer reads nodes_visited and total_nodes off the result of the
    # traced inference.truncation_points.
    sel, _ = marginal_screen(tiny, 2, 2)
    X = np.column_stack([feature_column(it, tiny.Z) for it in sel.selected])
    con = inference.contrast_for_coefficient(X, tiny.y, 1, sigma=1.0)
    iv = inference.truncation_points(sel, tiny, con, 2)
    counts = collections.Counter()
    _load_tracer()._traversal_counts("inference.truncation", iv, counts)
    assert counts["inference.truncation_calls"] == 1
    assert counts["inference.truncation_nodes_visited"] == iv.metrics.nodes_visited > 0
    assert counts["inference.truncation_total_nodes"] == iv.metrics.total_nodes == 2 * 6


def test_fpr_trial_is_traced_with_one_full_data_screening():
    # null_study's operation: PSI and OLS share one screening, SPLIT screens
    # its half, and the OLS and SPLIT routes still record their own spans.
    tracer = _load_tracer().Tracer()
    spec = experiments.SyntheticSpec(n=40, d=8, r=2, k=3, sparsity=0.5, sigma=0.3,
                                     seed=5, trials=1)
    modules = {"cli": cli, "inference": inference, "experiments": experiments}
    with tracer.active(modules):
        experiments.run_fpr_study(spec)
    assert tracer.counts["screening.calls"] == 2
    names = {span[0] for span in tracer.spans}
    assert {"experiments.ols", "experiments.split"} <= names
