"""In-memory spans and work counters around calls into selectree's layers.

The tracer never edits the package: it replaces, for the duration of a
``with`` block, the module attributes through which the pipeline looks up
each function (``marginal_screen`` is bound in ``cli``, ``inference`` and
``experiments``, so all three bindings are wrapped).  Span-wrapped functions
record (name, parent, start, end, operation); count-only functions, called
hundreds of times per operation, bump a counter and add no timing.
Counters read from returned ``TraversalMetrics`` do not depend on the
machine, so they repeat exactly between runs of the same inputs.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the layer is the prefix before the dot.
SPANS = (
    ("cli", "ingest_csv", "cli.ingest"),
    ("cli", "binarize_table", "cli.binarize"),
    ("cli", "estimate_sigma", "cli.estimate_sigma"),
    ("cli", "emit_report", "cli.emit"),
    ("cli", "emit_screen", "cli.emit"),
    ("cli", "marginal_screen", "screening.marginal_screen"),
    ("inference", "marginal_screen", "screening.marginal_screen"),
    ("experiments", "marginal_screen", "screening.marginal_screen"),
    ("cli", "infer", "inference.infer"),
    ("experiments", "infer", "inference.infer"),
    ("inference", "truncation_points", "inference.truncation"),
    ("inference", "contrast_for_coefficient", "inference.contrast"),
    ("inference", "selective_pvalue", "inference.pivot"),
    ("inference", "selective_interval", "inference.pivot"),
    ("experiments", "gen_synthetic", "experiments.gen"),
    ("experiments", "naive_ols_inference", "experiments.ols"),
    ("experiments", "split_inference", "experiments.split"),
)

# (module, attribute, counter name): call counts only.
COUNTS = (
    ("inference", "trunc_norm_cdf", "inference.cdf_calls"),
    ("cli", "feature_column", "itemsets.feature_column_calls"),
    ("inference", "feature_column", "itemsets.feature_column_calls"),
    ("experiments", "feature_column", "itemsets.feature_column_calls"),
)


def _traversal_counts(name: str, result, counts: Counter) -> None:
    """Pull the machine-independent work counters out of a layer's result."""
    if name == "screening.marginal_screen":
        metrics = result[1]
        counts["screening.calls"] += 1
        counts["screening.nodes_visited"] += metrics.nodes_visited
        counts["screening.total_nodes"] += metrics.total_nodes
    elif name == "inference.truncation":
        metrics = result.metrics
        counts["inference.truncation_calls"] += 1
        counts["inference.truncation_nodes_visited"] += metrics.nodes_visited
        counts["inference.truncation_total_nodes"] += metrics.total_nodes
    elif name == "cli.ingest":
        _, Z, y = result
        counts["cli.ingest_cells"] += Z.size + y.size


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, op]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None, self._op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            _traversal_counts(name, result, self.counts)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def op(self, index: int, fn):
        """Run one benchmark operation under a root span named ``bench.op``."""
        self._op = index
        idx = self._enter("bench.op")
        try:
            return fn()
        finally:
            self._exit(idx)

    @contextlib.contextmanager
    def active(self, modules: dict):
        """Install every wrapper for the duration of the block, then restore."""
        saved = []
        try:
            for table, wrap in ((SPANS, self.span), (COUNTS, self.counter)):
                for mod, attr, name in table:
                    module = modules[mod]
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's."""
        child = defaultdict(float)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def totals(self) -> dict[str, float]:
        """Total inclusive time per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, _, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "start": s, "end": e, "op": o}
            for n, p, s, e, o in self.spans
        ]

