"""End-to-end acceptance gate.

Each test exercises one release criterion at its stated tolerance and prints
a single ``[criterion N] PASS/FAIL`` line (via ``capsys.disabled`` so the
verdicts are visible in a normal ``pytest -v`` run).  The studies reuse
session-scoped fixtures so the expensive Monte-Carlo runs happen once.
"""

import io
import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import random_instance
from selectree import cli, oracle
from selectree.experiments import SyntheticSpec, gen_synthetic, run_fpr_study, run_perf_study, run_tpr_study
from selectree.inference import (
    DegenerateTruncationError,
    SingularGramError,
    contrast_for_coefficient,
    infer,
    selective_interval,
    trunc_norm_cdf,
    truncation_points,
)
from selectree.itemsets import Dataset, ModelConfig, feature_column, total_feature_count
from selectree.screening import marginal_screen


def _announce(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{label}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


def _close(a: float, b: float, rtol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
# shared instance banks


@pytest.fixture(scope="session")
def bank():
    """200 seeded instances with n <= 30, d <= 10, r <= 3, k <= 5."""
    instances = []
    for i in range(200):
        rng = np.random.default_rng(20_000 + i)
        data = random_instance(rng)
        r = int(rng.integers(1, 4))
        D = total_feature_count(data.d, r)
        k = int(rng.integers(1, min(5, D) + 1))
        instances.append((data, r, k))
    return instances


@pytest.fixture(scope="session")
def bank_screen(bank):
    t0 = time.perf_counter()
    mismatches = 0
    results = []
    for data, r, k in bank:
        sel, _ = marginal_screen(data, k, r)
        ref = oracle.oracle_screen(data, k, r)
        same = (
            sel.selected == ref.selected
            and sel.signs == ref.signs
            and sel.scores == ref.scores
        )
        mismatches += not same
        results.append(sel)
    return {"mismatches": mismatches, "selections": results,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def bank_truncation(bank, bank_screen):
    t0 = time.perf_counter()
    disagreements = 0
    intervals = 0
    membership_violations = 0
    for (data, r, k), sel in zip(bank, bank_screen["selections"]):
        X = np.column_stack([feature_column(it, data.Z) for it in sel.selected])
        for j in range(1, k + 1):
            try:
                con = contrast_for_coefficient(X, data.y, j, sigma=1.0)
            except SingularGramError:
                continue
            ref = oracle.oracle_truncation(sel, data, con, r)
            try:
                iv = truncation_points(sel, data, con, r)
            except DegenerateTruncationError:
                # only acceptable when the exact window really has no width
                if ref.v_minus < ref.v_plus - 1e-9 * max(
                    1.0, abs(ref.v_minus), abs(ref.v_plus)
                ):
                    disagreements += 1
                continue
            intervals += 1
            if not (
                _close(iv.v_minus, ref.v_minus, 1e-9)
                and _close(iv.v_plus, ref.v_plus, 1e-9)
            ):
                disagreements += 1
            if not iv.v_minus <= con.eta_y <= iv.v_plus:
                membership_violations += 1
    return {"disagreements": disagreements, "intervals": intervals,
            "membership_violations": membership_violations,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def neutrality_bank():
    """50 pruning-neutrality instances, three of them at d=200, r=3, k=10."""

    def _run(data, config):
        buf = io.StringIO()
        names = [f"z{i}" for i in range(1, data.d + 1)]
        try:
            report = infer(data, config, prune=True)
            cli.emit_report(report, names, buf, "json")
            fast = buf.getvalue()
        except (DegenerateTruncationError, SingularGramError) as exc:
            fast = f"{type(exc).__name__}: {exc}"
            report = None
        buf = io.StringIO()
        try:
            full_report = infer(data, config, prune=False)
            cli.emit_report(full_report, names, buf, "json")
            full = buf.getvalue()
        except (DegenerateTruncationError, SingularGramError) as exc:
            full = f"{type(exc).__name__}: {exc}"
        return fast, full, report

    t0 = time.perf_counter()
    mismatch = 0
    big = 0
    reports = []
    for i in range(50):
        rng = np.random.default_rng(91_000 + i)
        if i < 3:
            n, d, r, k = 100, 200, 3, 10
            Z = (rng.random((n, d)) < 0.1).astype(np.float64)
            data = Dataset(Z, rng.standard_normal(n))
            big += 1
        else:
            data = random_instance(rng, n_max=40, d_max=12)
            r = int(rng.integers(1, 4))
            k = int(rng.integers(1, min(6, total_feature_count(data.d, r)) + 1))
        fast, full, report = _run(data, ModelConfig(r=r, k=k, sigma=1.0))
        if fast != full:
            mismatch += 1
        if report is not None:
            reports.append(report)
    return {"mismatch": mismatch, "big": big, "reports": reports,
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def fpr_study():
    spec = SyntheticSpec(
        n=100, d=50, r=3, k=10, sparsity=0.5, sigma=0.1, alpha=0.05,
        seed=51, trials=500,
    )
    t0 = time.perf_counter()
    out = run_fpr_study(spec)
    return out, time.perf_counter() - t0


# --------------------------------------------------------------------------
# the criteria


def test_criterion_1_screening_matches_oracle(bank_screen, capsys):
    ok = bank_screen["mismatches"] == 0 and bank_screen["elapsed"] < 60.0
    _announce(
        capsys, "criterion 1", ok,
        f"200/200 instances screened identically to brute force "
        f"(sets, signs, scores exact) in {bank_screen['elapsed']:.1f}s",
    )


def test_criterion_2_truncation_matches_oracle(bank_truncation, capsys):
    ok = (
        bank_truncation["disagreements"] == 0
        and bank_truncation["elapsed"] < 120.0
    )
    _announce(
        capsys, "criterion 2", ok,
        f"{bank_truncation['intervals']} truncation windows within 1e-9 "
        f"relative of brute force in {bank_truncation['elapsed']:.1f}s",
    )


def test_criterion_3_pruning_neutrality(neutrality_bank, capsys):
    ok = neutrality_bank["mismatch"] == 0
    _announce(
        capsys, "criterion 3", ok,
        f"50/50 instances ({neutrality_bank['big']} at d=200, r=3, k=10) "
        f"produced byte-identical reports with pruning on and off "
        f"in {neutrality_bank['elapsed']:.1f}s",
    )


def test_criterion_4_membership(bank_truncation, neutrality_bank, capsys):
    violations = bank_truncation["membership_violations"]
    count = bank_truncation["intervals"]
    for report in neutrality_bank["reports"]:
        for f in report.features:
            count += 1
            if not f.interval.v_minus <= f.beta_hat <= f.interval.v_plus:
                violations += 1
    _announce(
        capsys, "criterion 4", violations == 0,
        f"v_minus <= eta'y <= v_plus held on {count - violations}/{count} windows",
    )


def test_criterion_5_false_positive_rates(fpr_study, capsys):
    out, elapsed = fpr_study
    psi, ols, split = out.rates["PSI"], out.rates["OLS"], out.rates["SPLIT"]
    ok = (
        abs(psi - 0.05) <= 0.02
        and abs(split - 0.05) <= 0.02
        and ols > 0.10
        and elapsed < 600.0
    )
    _announce(
        capsys, "criterion 5", ok,
        f"null FPR over 500 trials: PSI {psi:.4f} and SPLIT {split:.4f} "
        f"within 0.05 +/- 0.02; OLS {ols:.4f} > 0.10; {elapsed:.0f}s",
    )


def test_criterion_6_pivot_uniformity(fpr_study, capsys):
    out, _ = fpr_study
    stat, p = stats.kstest(np.asarray(out.pivots), "uniform")
    ok = p >= 0.01 and len(out.pivots) == out.trials_used["PSI"]
    _announce(
        capsys, "criterion 6", ok,
        f"KS test of {len(out.pivots)} null pivots against Unif(0,1): "
        f"stat {stat:.4f}, p {p:.4f} >= 0.01",
    )


def test_criterion_7_detection_dominance(capsys):
    spec = SyntheticSpec(
        n=100, d=50, r=3, k=10, sparsity=0.5, sigma=0.1, alpha=0.05,
        truth={(1, 2, 3): 1.0}, seed=51, trials=200,
    )
    t0 = time.perf_counter()
    out = run_tpr_study(spec)
    elapsed = time.perf_counter() - t0
    psi, split = out.rates["PSI"], out.rates["SPLIT"]
    ok = psi >= split - 0.02
    _announce(
        capsys, "criterion 7", ok,
        f"TPR over 200 trials: PSI {psi:.4f} >= SPLIT {split:.4f} - 0.02; "
        f"{elapsed:.0f}s",
    )


def test_criterion_8_visit_rates(capsys):
    base = SyntheticSpec(
        n=100, d=100, r=3, k=10, sparsity=0.9, sigma=0.1,
        truth={(1, 2, 3): 1.0}, seed=7, trials=10,
    )
    rows = run_perf_study(base, d_values=[100], r_values=[1, 3], sparsity_values=[0.9])
    by_r = {row.r: row for row in rows}
    rate3 = by_r[3].mean_visit_rate
    lo, hi = 0.4 * 1.29e-2, 3.0 * 1.29e-2
    ok = (
        lo <= rate3 <= hi
        and by_r[1].mean_visit_rate == 1.0
        and by_r[3].failures == 0
    )
    _announce(
        capsys, "criterion 8", ok,
        f"visited-node rate at d=100, r=3, sparsity=0.9: {rate3:.3e} in "
        f"[{lo:.2e}, {hi:.2e}] over 10 trials; r=1 rate exactly "
        f"{by_r[1].mean_visit_rate}; mean elapsed {by_r[3].mean_elapsed:.2f}s "
        f"(reported, not gated)",
    )


def test_criterion_9_scale(capsys):
    spec = SyntheticSpec(
        n=100, d=5000, r=3, k=10, sparsity=0.9, sigma=0.1, seed=1, trials=1
    )
    data = gen_synthetic(spec, 0)
    t0 = time.perf_counter()
    report = infer(data, spec.config())
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0 and len(report.features) == 10
    _announce(
        capsys, "criterion 9", ok,
        f"full inference at d=5000, r=3, k=10 (D = "
        f"{total_feature_count(5000, 3):.2e} features) in {elapsed:.1f}s < 300s",
    )


def test_criterion_11_selective_ci_coverage(capsys):
    # At a planted truth the pivot at the true eta_j'mu is Unif(0, 1) given
    # the selection event, so the CI covers eta_j'mu with probability
    # 1 - alpha.  One feature per trial, the lexicographically smallest
    # selected itemset as in criterion 6, keeps the trials independent.
    spec = SyntheticSpec(
        n=100, d=40, r=3, k=8, sparsity=0.5, sigma=0.3, alpha=0.1,
        truth={(1, 2, 3): 1.0}, seed=11, trials=400,
    )
    config = spec.config()
    covered, pivots, failed = 0, [], 0
    t0 = time.perf_counter()
    for t in range(spec.trials):
        data = gen_synthetic(spec, t)
        try:
            report = infer(data, config)
        except (SingularGramError, DegenerateTruncationError):
            failed += 1
            continue
        j, f = min(enumerate(report.features), key=lambda jf: jf[1].itemset)
        X_S = np.column_stack([feature_column(it, data.Z) for it in report.screening.selected])
        con = contrast_for_coefficient(X_S, data.y, j + 1, sigma=spec.sigma)
        mu = sum(beta * feature_column(it, data.Z) for it, beta in spec.truth.items())
        target = float(con.eta @ mu)
        covered += f.ci_low <= target <= f.ci_high
        pivots.append(trunc_norm_cdf(
            con.eta_y, target, con.eta_var, f.interval.v_minus, f.interval.v_plus
        ))
    elapsed = time.perf_counter() - t0
    used = len(pivots)
    binom_p = stats.binomtest(covered, used, 1.0 - spec.alpha).pvalue
    _, ks_p = stats.kstest(np.asarray(pivots), "uniform")
    ok = binom_p >= 0.01 and ks_p >= 0.01
    _announce(
        capsys, "criterion 11", ok,
        f"selective CI covered eta'mu in {covered}/{used} trials "
        f"({covered / used:.4f}, binomial p {binom_p:.3f} >= 0.01 against "
        f"{1.0 - spec.alpha}); KS p of the pivots at eta'mu {ks_p:.3f} >= 0.01; "
        f"{failed} failed trials skipped; {elapsed:.0f}s",
    )


def _cdf_grid():
    """10^4 evaluation points, half of them in windows beyond 6 sigma."""
    rng = np.random.default_rng(77)
    cases = []
    # bulk windows of widely varying width and placement
    for _ in range(3000):
        v = rng.uniform(-6.0, 5.0)
        width = 10.0 ** rng.uniform(-9, 1)
        mean = rng.uniform(-3.0, 3.0)
        sd = 10.0 ** rng.uniform(-2, 2)
        q = rng.uniform(0.05, 0.95)
        cases.append((mean + sd * (v + q * width), mean, sd * sd,
                      mean + sd * v, mean + sd * (v + width)))
    # one-sided windows
    for _ in range(1500):
        v = rng.uniform(-8.0, 8.0)
        q = rng.uniform(0.05, 3.0)
        if rng.random() < 0.5:
            cases.append((v + q, 0.0, 1.0, v, math.inf))
        else:
            cases.append((v - q, 0.0, 1.0, -math.inf, v))
    # windows entirely beyond six sigma, both tails
    for _ in range(5500):
        a = rng.uniform(6.0, 12.0)
        width = 10.0 ** rng.uniform(-9, 0)
        q = rng.uniform(0.05, 0.95)
        x, v, w = a + q * width, a, a + width
        if rng.random() < 0.5:
            cases.append((x, 0.0, 1.0, v, w))
        else:
            cases.append((-x, 0.0, 1.0, -w, -v))
    # a handful of pinned hard points
    cases += [
        (8.5, 0.0, 1.0, 8.0, 9.0),
        (-8.5, 0.0, 1.0, -9.0, -8.0),
        (7.0 + 1e-13, 0.0, 1.0, 7.0, 7.0 + 2e-13),
        (10.0, 0.0, 1.0, 6.5, math.inf),
    ]
    return cases


def test_criterion_10_numerics(capsys):
    cases = _cdf_grid()
    worst = 0.0
    for x, mean, var, v, w in cases:
        got = trunc_norm_cdf(x, mean, var, v, w)
        want = oracle.reference_trunc_norm_cdf(x, mean, var, v, w)
        worst = max(worst, abs(got - want))

    # interval endpoints must invert the pivot
    worst_pivot = 0.0
    checked = 0
    for i in range(30):
        rng = np.random.default_rng(6200 + i)
        data = random_instance(rng)
        r = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(5, total_feature_count(data.d, r)) + 1))
        sel, _ = marginal_screen(data, k, r)
        X = np.column_stack([feature_column(it, data.Z) for it in sel.selected])
        j = int(rng.integers(1, k + 1))
        try:
            con = contrast_for_coefficient(X, data.y, j, sigma=1.0)
            iv = truncation_points(sel, data, con, r)
        except (SingularGramError, DegenerateTruncationError):
            continue
        alpha = 0.1
        lo, hi = selective_interval(con.eta_y, con.eta_var, iv, alpha)
        for mean, target in ((lo, 1.0 - alpha / 2.0), (hi, alpha / 2.0)):
            if not math.isfinite(mean):
                continue
            piv = trunc_norm_cdf(con.eta_y, mean, con.eta_var, iv.v_minus, iv.v_plus)
            worst_pivot = max(worst_pivot, abs(piv - target))
            checked += 1
    ok = worst <= 1e-10 and worst_pivot <= 1e-6 and checked >= 20
    _announce(
        capsys, "criterion 10", ok,
        f"truncated-normal CDF within {worst:.2e} of the high-precision "
        f"reference on {len(cases)} points (tolerance 1e-10); {checked} CI "
        f"endpoints satisfy their pivot equations within {worst_pivot:.2e} "
        f"(tolerance 1e-6)",
    )


def test_fixture_pipeline(tmp_path, capsys):
    """Real-data path: ingest, binarize, subsample, estimate sigma, infer."""
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    base = [
        "infer", "--input", cli_fixture_path(), "--binarize",
        "--max-rows", "1000", "--order", "3", "--topk", "10",
        "--sigma", "estimate", "--seed", "0",
    ]
    rc_a = cli.main(base + ["--output", str(out_a)])
    rc_b = cli.main(base + ["--no-prune", "--output", str(out_b)])
    rows = cli.parse_report(out_a, "json") if rc_a == 0 else []
    planted = [r for r in rows if r["itemset"] == ["c1>1", "c2>1"]]
    ok = (
        rc_a == 0
        and rc_b == 0
        and out_a.read_bytes() == out_b.read_bytes()
        and bool(planted)
        and planted[0]["significant"]
        and 1.0 < planted[0]["beta_hat"] < 3.0
    )
    beta = planted[0]["beta_hat"] if planted else math.nan
    _announce(
        capsys, "fixture pipeline", ok,
        f"planted c1>1*c2>1 recovered significant with beta_hat {beta:.3f} "
        f"(true effect 2.0); prune/no-prune outputs byte-identical",
    )


def cli_fixture_path() -> str:
    import os

    return os.path.join(os.path.dirname(__file__), "data", "interactions.csv")
