"""Synthetic studies: error-rate comparisons and pruning-rate measurements.

Three inference routes test a top-k marginal screening:

* ``PSI``   -- selective inference conditional on the screening event
  (:func:`selectree.inference.infer`);
* ``OLS``   -- the naive route: z-test the features PSI's screening selected,
  on the same data, with no selection adjustment (known to over-reject);
* ``SPLIT`` -- data splitting: screen on one half, z-test on the held-out
  half (valid but uses half the data twice over).

One trial routine serves both studies, and the truth names the study: an
empty truth an FPR study of all three routes, any other a TPR study of PSI
and SPLIT.  Every trial screens its full data once and hands that selection
to PSI, and in an FPR trial to OLS; only SPLIT screens again, on its own
half.  Each route yields the itemsets it declares significant (OLS and SPLIT
through one z-test step), and one rule turns them into the trial's rate: the
share of the k selected features for FPR, and whether every truth itemset
was found for TPR.

Every trial draws its data from an independent counter-based RNG stream keyed
by ``(seed, trial_index)``, so studies are reproducible bit-for-bit regardless
of how trials are scheduled across processes.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .inference import (
    DegenerateTruncationError,
    SingularGramError,
    _gram,
    infer,
    ndtr,
)
from .itemsets import Dataset, Itemset, ModelConfig, feature_column, total_feature_count
from .screening import ScreeningResult, marginal_screen

METHODS = ("PSI", "OLS", "SPLIT")


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic study.

    ``truth`` maps itemsets to nonzero coefficients; the response is the sum
    of the corresponding feature columns plus N(0, sigma^2) noise.  ``sparsity``
    is the expected fraction of zeros in Z.
    """

    n: int
    d: int
    r: int
    k: int
    sparsity: float
    sigma: float
    truth: Mapping[Itemset, float] = field(default_factory=dict)
    alpha: float = 0.05
    seed: int = 0
    trials: int = 1

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n, d >= 1, got n={self.n}, d={self.d}")
        self.config()  # checks r, k >= 1, sigma and alpha
        if self.k > total_feature_count(self.d, self.r):
            raise ValueError(f"k={self.k} out of range for d={self.d}, r={self.r}")
        if not 0.0 <= self.sparsity < 1.0:
            # 1.0 would make every design column identically zero
            raise ValueError(f"sparsity must lie in [0, 1), got {self.sparsity}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        norm: dict[Itemset, float] = {}
        for key, coef in self.truth.items():
            it = key if isinstance(key, Itemset) else Itemset(tuple(sorted(key)))
            if len(it.indices) > self.r or (it.indices and it.indices[-1] > self.d):
                raise ValueError(f"truth itemset {it} exceeds d={self.d}, r={self.r}")
            if it in norm:
                raise ValueError(f"truth itemset {it} appears twice")
            if not math.isfinite(coef):
                raise ValueError(f"truth coefficient for {it} must be finite, got {coef}")
            if coef == 0.0:
                raise ValueError(f"truth coefficient for {it} must be nonzero")
            norm[it] = float(coef)
        object.__setattr__(self, "truth", norm)

    def config(self) -> ModelConfig:
        return ModelConfig(
            r=self.r, k=self.k, sigma=self.sigma, alpha=self.alpha
        )


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent counter-based stream for one trial."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.Philox(ss))


def gen_synthetic(spec: SyntheticSpec, trial_index: int) -> Dataset:
    """Draw one trial's dataset: Bernoulli(1 - sparsity) Z, then the noise."""
    rng = trial_rng(spec.seed, trial_index)
    Z = (rng.random((spec.n, spec.d)) < 1.0 - spec.sparsity).astype(np.float64)
    y = np.zeros(spec.n)
    # A finite truth whose response overflows is a numeric failure, not a
    # usage error: report it as one, without numpy's warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in sorted(spec.truth):
            y += spec.truth[it] * feature_column(it, Z)
        y += spec.sigma * rng.standard_normal(spec.n)
    if not np.isfinite(y).all():
        raise FloatingPointError("the response of the truth plus noise overflows")
    return Dataset(Z, y)


# ---------------------------------------------------------------------------
# the three inference routes
# ---------------------------------------------------------------------------

def _z_test(
    X: np.ndarray, y: np.ndarray, sigma: float, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Classical known-variance z-test per coefficient of y ~ X.

    Returns (p_values, significant mask).  Raises SingularGramError when the
    Gram matrix is not invertible to working precision.
    """
    G = _gram(X)
    coef = np.linalg.solve(G, X.T @ y)
    variances = sigma * sigma * np.linalg.inv(G).diagonal()
    z = coef / np.sqrt(variances)
    p = np.array([2.0 * ndtr(-abs(float(v))) for v in z])
    return p, p < alpha


def _significant(
    Z: np.ndarray, y: np.ndarray, selected: Sequence[Itemset], config: ModelConfig
) -> tuple[Itemset, ...]:
    """The itemsets of ``selected`` whose z-test of y ~ their columns of Z
    rejects at ``config.alpha``: the test step of the OLS and SPLIT routes."""
    X = np.column_stack([feature_column(it, Z) for it in selected])
    _, sig_mask = _z_test(X, y, config.sigma, config.alpha)
    return tuple(it for it, s in zip(selected, sig_mask) if s)


def naive_ols_inference(
    data: Dataset, config: ModelConfig, sel: ScreeningResult
) -> tuple[Itemset, ...]:
    """z-test the selection ``sel`` made on ``data``, on the same data, with
    no selection adjustment."""
    if config.sigma is None:
        raise ValueError("naive_ols_inference requires a known sigma")
    return _significant(data.Z, data.y, sel.selected, config)


def split_inference(data: Dataset, config: ModelConfig, seed) -> tuple[Itemset, ...]:
    """Screen on a seeded half of the rows, z-test on the held-out half.

    The screening half gets ceil(n/2) rows of a seeded permutation.  ``seed``
    is anything ``numpy.random.default_rng`` accepts.
    """
    if data.n < 2:
        raise ValueError("data splitting needs at least two rows")
    if config.sigma is None:
        raise ValueError("split_inference requires a known sigma")
    perm = np.random.default_rng(seed).permutation(data.n)
    cut = (data.n + 1) // 2
    screen_rows = np.sort(perm[:cut])
    test_rows = np.sort(perm[cut:])
    half = Dataset(data.Z[screen_rows], data.y[screen_rows])
    sel, _ = marginal_screen(half, config.k, config.r)
    return _significant(data.Z[test_rows], data.y[test_rows], sel.selected, config)


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudySummary:
    """Per-method rates with binomial standard errors.

    For an FPR study the rate is the mean over clean trials of k'/k (k' =
    features declared significant); for a TPR study it is the fraction of
    trials in which every truth itemset was detected.  ``pivots`` holds one
    PSI pivot per clean FPR trial -- that of the lexicographically smallest
    selected itemset -- for downstream uniformity diagnostics.
    """

    kind: str
    spec: SyntheticSpec
    rates: dict[str, float]
    std_errs: dict[str, float]
    trials_used: dict[str, int]
    failures: dict[str, int]
    pivots: tuple[float, ...] = ()

    def to_rows(self) -> list[dict]:
        return [
            {
                "study": self.kind,
                "method": m,
                "rate": self.rates[m],
                "std_err": self.std_errs[m],
                "trials": self.trials_used[m],
                "failures": self.failures[m],
            }
            for m in sorted(self.rates)
        ]


def _split_seed(spec: SyntheticSpec, trial_index: int) -> np.random.SeedSequence:
    # Disjoint from the data stream, which uses spawn_key=(trial_index,).
    return np.random.SeedSequence(entropy=spec.seed, spawn_key=(trial_index, 1))


def _methods(spec: SyntheticSpec) -> tuple[str, ...]:
    # The study an empty truth names is FPR, of all three routes; any other
    # is TPR, of PSI and SPLIT.
    return ("PSI", "SPLIT") if spec.truth else METHODS


def _trial(spec: SyntheticSpec, t: int) -> dict:
    """Trial ``t``: each route's rate, or None where it fails.

    In an FPR trial a route's rate is the share of the k features it
    declares significant; in a TPR trial it is 1.0 if the route declares
    every truth itemset significant, else 0.0.
    """
    data = gen_synthetic(spec, t)
    config = spec.config()
    screened = marginal_screen(data, config.k, config.r)
    out: dict = {}

    def psi():
        report = infer(data, config, screened=screened)
        if not spec.truth:
            # One pivot per trial, from the lexicographically smallest
            # selected itemset: that choice depends on y only through the
            # selection event itself, so under the null these pivots are
            # exactly Unif(0, 1).  (The top-|score| feature's pivot is NOT
            # uniform -- ranking within the selected set is extra
            # data-dependent selection.)
            out["pivot"] = min(report.features, key=lambda f: f.itemset).pivot
        return [f.itemset for f in report.features if f.significant]

    routes = {
        "PSI": psi,
        "OLS": lambda: naive_ols_inference(data, config, screened[0]),
        "SPLIT": lambda: split_inference(data, config, _split_seed(spec, t)),
    }
    for method in _methods(spec):
        try:
            found = routes[method]()
        except (SingularGramError, DegenerateTruncationError):
            out[method] = None
        else:
            out[method] = (float(set(spec.truth) <= set(found)) if spec.truth
                           else len(found) / spec.k)
    return out


def _map_trials(worker, spec: SyntheticSpec, threads: int) -> list[dict]:
    indices = range(spec.trials)
    if threads <= 1:
        return [worker(spec, t) for t in indices]
    # Imported here: the module costs every serial run's start-up ~27 ms.
    from concurrent.futures import ProcessPoolExecutor

    # The pool starts all its workers at once, so it gets no more than there
    # are trials.
    with ProcessPoolExecutor(max_workers=min(threads, spec.trials)) as pool:
        # Results collected in trial order: aggregates are identical no
        # matter how many workers ran.
        return list(pool.map(worker, [spec] * spec.trials, indices, chunksize=8))


def _study(spec: SyntheticSpec, threads: int) -> StudySummary:
    """Run the study ``spec.truth`` names and summarize each route's rates."""
    rows = _map_trials(_trial, spec, threads)
    denominator = 1 if spec.truth else spec.k
    rates, errs, used, fails = {}, {}, {}, {}
    for m in _methods(spec):
        vals = [row[m] for row in rows if row[m] is not None]
        used[m] = len(vals)
        fails[m] = spec.trials - len(vals)
        if not vals:
            rates[m] = errs[m] = math.nan
            continue
        p = sum(vals) / len(vals)
        rates[m] = p
        errs[m] = math.sqrt(max(p * (1.0 - p), 0.0) / (len(vals) * denominator))
    pivots = tuple(row["pivot"] for row in rows if "pivot" in row)
    kind = "tpr" if spec.truth else "fpr"
    return StudySummary(kind, spec, rates, errs, used, fails, pivots)


def run_fpr_study(spec: SyntheticSpec, threads: int = 1) -> StudySummary:
    """False-positive rates of the three routes on pure-noise data."""
    if spec.truth:
        raise ValueError("an FPR study requires an empty truth")
    return _study(spec, threads)


def run_tpr_study(spec: SyntheticSpec, threads: int = 1) -> StudySummary:
    """Detection rates of PSI and SPLIT for the planted truth itemsets."""
    if not spec.truth:
        raise ValueError("a TPR study requires a nonempty truth")
    return _study(spec, threads)


# ---------------------------------------------------------------------------
# pruning-rate / timing study
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerfRow:
    d: int
    r: int
    sparsity: float
    mean_elapsed: float
    sd_elapsed: float
    mean_visit_rate: float
    sd_visit_rate: float
    mean_screen_visit_rate: float
    sd_screen_visit_rate: float
    trials_used: int
    failures: int

    def to_row(self) -> dict:
        return {("trials" if key == "trials_used" else key): value
                for key, value in asdict(self).items()}


def _perf_trial(spec: SyntheticSpec, t: int, config: ModelConfig) -> dict:
    data = gen_synthetic(spec, t)
    try:
        t0 = time.perf_counter()
        report = infer(data, config)
        elapsed = time.perf_counter() - t0
    except (SingularGramError, DegenerateTruncationError):
        return {}
    rates = [
        f.interval.metrics.nodes_visited / f.interval.metrics.total_nodes
        for f in report.features
    ]
    screen = report.screen_metrics
    return {
        "elapsed": elapsed,
        "rate": sum(rates) / len(rates),
        "screen_rate": screen.nodes_visited / screen.total_nodes,
    }


def _mean_sd(values: list[float]) -> tuple[float, float]:
    """Mean and sample s.d. (population s.d. of a single value); NaN for none."""
    if not values:
        return math.nan, math.nan
    ddof = 1 if len(values) > 1 else 0
    return float(np.mean(values)), float(np.std(values, ddof=ddof))


def run_perf_study(
    base: SyntheticSpec,
    d_values: Sequence[int],
    r_values: Sequence[int],
    sparsity_values: Sequence[float],
    threads: int = 1,
) -> list[PerfRow]:
    """Timing and visit-rate table over a (d, r, sparsity) grid.

    The visit rate is the fraction of itemset-tree nodes the truncation walk
    actually touched, averaged over the k coefficients, then over trials.  At
    r = 1 it equals 1 exactly: the tree is a single level of d nodes and
    there is no subtree to skip.  The screen visit rate is the same fraction
    for the screening walk, averaged over trials.

    The grid's r caps the model, not the data: each (d, sparsity) cell draws
    one set of trials under ``base.r``'s truth and reuses it for every model
    order, so rows differ only in what the search was allowed to explore.
    """
    # Every cell's spec and model are built, and so checked, before any
    # trial runs: a bad grid value fails at once, not after earlier cells.
    specs = {(d, sp): replace(base, d=d, sparsity=sp) for d in d_values for sp in sparsity_values}
    configs = {r: replace(base.config(), r=r) for r in r_values}
    for d in d_values:
        for r in r_values:
            if base.k > total_feature_count(d, r):
                raise ValueError(f"k={base.k} out of range for d={d}, r={r}")
    out: list[PerfRow] = []
    for d in d_values:
        for r in r_values:
            for sp in sparsity_values:
                spec = specs[d, sp]
                worker = functools.partial(_perf_trial, config=configs[r])
                rows = [row for row in _map_trials(worker, spec, threads) if row]
                elapsed, rate, screen = (
                    _mean_sd([row[key] for row in rows])
                    for key in ("elapsed", "rate", "screen_rate")
                )
                # PerfRow's fields in order: the cell, three (mean, sd) pairs
                # and the trial counts.
                out.append(PerfRow(d, r, sp, *elapsed, *rate, *screen,
                                   len(rows), spec.trials - len(rows)))
    return out


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def write_rows_csv(rows: Sequence[dict], fh) -> None:
    import csv

    if not rows:
        raise ValueError("nothing to write")
    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def write_rows_json(rows: Sequence[dict], fh) -> None:
    import json

    json.dump(list(rows), fh, indent=2)
    fh.write("\n")
