"""Command-line interface: CSV ingestion, real-data preprocessing, and the
screen/infer/synth/perf commands.

Exit codes: 0 success, 1 usage error (including an ``--output`` path that
cannot be written), 2 data error (unreadable or malformed input), 3 numeric
degeneracy (collapsed truncation window, singular Gram matrix, zero residual
variance, a linear-algebra routine that did not converge, an underflowed
truncated-Normal CDF, or an observation that violates its own selection
event).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import sys

import numpy as np

from .experiments import (
    SyntheticSpec,
    run_fpr_study,
    run_perf_study,
    run_tpr_study,
    write_rows_csv,
    write_rows_json,
)
from .inference import (
    DegenerateTruncationError,
    InferenceReport,
    InternalConsistencyError,
    SingularGramError,
    infer,
)
from .itemsets import Dataset, ModelConfig, feature_column
from .screening import ScreeningResult, marginal_screen

REPORT_FIELDS = (
    "itemset",
    "beta_hat",
    "v_minus",
    "v_plus",
    "pivot",
    "p_value",
    "ci_low",
    "ci_high",
    "significant",
)


class DataError(Exception):
    """Unreadable, malformed, or out-of-contract input data."""


class SigmaEstimationError(Exception):
    """The residual noise estimate is unusable (n <= k or zero residual)."""


# ---------------------------------------------------------------------------
# ingestion and preprocessing
# ---------------------------------------------------------------------------

def _parse_cell(cell: str, line_no: int, col_no: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(
            f"line {line_no}, column {col_no}: non-numeric cell {cell!r}"
        ) from None


def _csv_rows(fh):
    """``csv.reader`` rows; a line it cannot split is a DataError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None


def _header_names(first: list[str]) -> list[str] | None:
    """Covariate names when the first row has a non-numeric cell, else None."""
    try:
        [float(cell) for cell in first]
        return None
    except ValueError:
        return [cell.strip() for cell in first[:-1]]


# float() rejects these four ASCII separators around a number, while numpy's
# parser strips them as whitespace.  In UTF-8 their bytes mean nothing else.
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _loadtxt_rows(fh) -> tuple[list[str] | None, np.ndarray] | None:
    """(names, table) from one C-level ``np.loadtxt`` pass over the lines
    after the header, or None when the file needs the per-cell loop."""
    first = next((row for row in _csv_rows(fh) if row), None)
    if first is None:
        return None
    names = _header_names(first)
    if names is None:
        fh.seek(0)
        lines = fh
    else:
        # loadtxt warns when it finds no rows, so a header followed only by
        # empty lines goes to the loop.  On either branch loadtxt meets a
        # non-empty line: it gives at least one row or raises.
        line = next((line for line in fh if line.strip("\r\n")), None)
        if line is None:
            return None
        lines = itertools.chain([line], fh)
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"',
                           ndmin=2, dtype=np.float64)
    except UnicodeDecodeError:
        raise  # the loop's re-read would stop at the same byte
    except ValueError:
        return None
    return (names, table) if table.shape[1] >= 2 else None


def _parse_rows(fh, path) -> tuple[list[str] | None, np.ndarray]:
    """(names, table) by ``csv.reader`` and ``float()`` on every cell, raising
    DataError with the line and column of the first bad cell."""
    rows = [(i + 1, row) for i, row in enumerate(_csv_rows(fh)) if row]
    if not rows:
        raise DataError(f"{path}: empty file")

    names = _header_names(rows[0][1])
    if names is not None:
        rows = rows[1:]
        if not rows:
            raise DataError(f"{path}: header but no data rows")

    width = len(rows[0][1])
    if width < 2:
        raise DataError(f"{path}: need at least one covariate and a response")
    table = np.empty((len(rows), width))
    for i, (line_no, row) in enumerate(rows):
        if len(row) != width:
            raise DataError(
                f"line {line_no}: expected {width} cells, got {len(row)}"
            )
        for j, cell in enumerate(row):
            table[i, j] = _parse_cell(cell, line_no, j + 1)
    return names, table


def ingest_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse a UTF-8 CSV of covariate columns with the response last.

    Returns (covariate names, Z raw, y).  The header is auto-detected: a
    first row with any non-numeric cell is treated as names.  Headerless
    files get default names z1..zd.  A leading byte-order mark is skipped.

    One ``np.loadtxt`` pass parses the table.  When it rejects the file, or
    the file holds a character the two parsers read differently, the
    per-cell loop reads it again from the start: it accepts the number forms
    only ``float()`` knows (``1_000``, non-ASCII digits) and raises every
    DataError with its line and column.  Both paths give the same floats.
    """
    try:
        raw = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with raw:
        fast = not any(
            sep in chunk
            for chunk in iter(lambda: raw.read(1 << 20), b"")
            for sep in _NUMPY_ONLY_SPACE
        )
        raw.seek(0)
        fh = io.TextIOWrapper(raw, encoding="utf-8-sig", newline="")
        try:
            parsed = _loadtxt_rows(fh) if fast else None
            if parsed is None:
                fh.seek(0)
                parsed = _parse_rows(fh, path)
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    names, table = parsed
    if names is not None and len(names) + 1 != table.shape[1]:
        raise DataError(f"{path}: header has {len(names) + 1} cells, data rows have "
                        f"{table.shape[1]}")
    if not np.isfinite(table).all():
        bad = np.argwhere(~np.isfinite(table))[0]
        raise DataError(
            f"non-finite value at data row {bad[0] + 1}, column {bad[1] + 1}"
        )
    if names is None:
        names = [f"z{j}" for j in range(1, table.shape[1])]
    return names, table[:, :-1], table[:, -1]


def binarize_continuous(column: np.ndarray, name: str) -> list[tuple[str, np.ndarray]]:
    """Standardize to mean 0 / variance 1, then threshold at +-1.

    Returns the two indicator columns [(name>1, ...), (name<-1, ...)].
    """
    mu = float(np.mean(column))
    sd = float(np.std(column))
    if sd == 0.0:
        raise DataError(f"column {name!r} has zero variance; cannot standardize")
    z = (column - mu) / sd
    return [
        (f"{name}>1", (z > 1.0).astype(np.float64)),
        (f"{name}<-1", (z < -1.0).astype(np.float64)),
    ]


def binarize_table(
    names: list[str], Z: np.ndarray
) -> tuple[list[str], np.ndarray]:
    """Binarize every covariate column, dropping duplicate results.

    Duplicates (identical binary columns) are collapsed keeping the first,
    since co-selecting two copies guarantees a singular Gram matrix.
    """
    out_names: list[str] = []
    cols: list[np.ndarray] = []
    seen: dict[bytes, str] = {}
    for j, name in enumerate(names):
        for new_name, col in binarize_continuous(Z[:, j], name):
            key = col.tobytes()
            if key in seen:
                continue
            seen[key] = new_name
            out_names.append(new_name)
            cols.append(col)
    if not cols:
        raise DataError("binarization left no covariate columns")
    return out_names, np.column_stack(cols)


def subsample(Z: np.ndarray, y: np.ndarray, max_rows: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform row sample without replacement; rows stay in order."""
    n = Z.shape[0]
    if max_rows >= n:
        return Z, y
    idx = np.sort(np.random.default_rng(seed).choice(n, size=max_rows, replace=False))
    return Z[idx], y[idx]


def estimate_sigma(data: Dataset, sel: ScreeningResult) -> float:
    """Residual noise scale sqrt(RSS / (n - k)) of the selected-column fit."""
    k = len(sel.selected)
    if data.n <= k:
        raise SigmaEstimationError(
            f"cannot estimate noise: n = {data.n} rows but k = {k} columns"
        )
    X = np.column_stack([feature_column(it, data.Z) for it in sel.selected])
    resid = data.y - X @ np.linalg.lstsq(X, data.y, rcond=None)[0]
    sigma = math.sqrt(float(resid @ resid) / (data.n - k))
    # An (almost) exact fit leaves only rounding noise in the residual; any
    # inference at that scale would be meaningless.
    if sigma <= 1e-12 * math.sqrt(float(data.y @ data.y) / data.n):
        raise SigmaEstimationError(
            f"residual estimate {sigma:.3g} is indistinguishable from an exact fit"
        )
    return sigma


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _cell(value, fmt: str) -> str:
    """One report value as text: numbers at 17 significant digits,
    infinities as inf/-inf (a JSON string in JSON), booleans as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if math.isinf(value):
        word = "inf" if value > 0 else "-inf"
        return f'"{word}"' if fmt == "json" else word
    return f"{value:.17g}"


def _write_records(fh, fmt: str, fields: tuple[str, ...], records) -> None:
    """Write ``(itemset names, values of fields[1:])`` records as a JSON array
    of one-line objects or as CSV with the itemset joined by "*"; names are
    escaped by JSON rules and the CSV cells quoted by CSV rules."""
    if fmt == "json":
        lines = []
        for items, values in records:
            names = (json.dumps(name, ensure_ascii=False) for name in items)
            cells = [f'"{fields[0]}": [' + ", ".join(names) + "]"]
            cells += [f'"{key}": {_cell(v, fmt)}' for key, v in zip(fields[1:], values)]
            lines.append("  {" + ", ".join(cells) + "}")
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
    elif fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for items, values in records:
            writer.writerow(["*".join(items)] + [_cell(v, fmt) for v in values])
    else:
        raise ValueError(f"unknown format {fmt!r}")


def emit_report(report: InferenceReport, names: list[str], fh, fmt: str) -> None:
    """Write one record per selected feature, floats at 17 significant
    digits, infinities as "inf"/"-inf" strings."""
    _write_records(fh, fmt, REPORT_FIELDS, [
        (
            [names[i - 1] for i in f.itemset.indices],
            (f.beta_hat, f.interval.v_minus, f.interval.v_plus, f.pivot,
             f.p_value, f.ci_low, f.ci_high, f.significant),
        )
        for f in report.features
    ])


def parse_report(path, fmt: str) -> list[dict]:
    """Read back an emitted report; inverse of emit_report."""
    def scalar(text: str):
        return float(text) if text not in ("true", "false") else text == "true"

    records = []
    if fmt == "json":
        with open(path) as fh:
            for raw in json.load(fh):
                rec = {"itemset": raw["itemset"]}
                for key in REPORT_FIELDS[1:]:
                    val = raw[key]
                    rec[key] = float(val) if isinstance(val, str) else val
                records.append(rec)
    elif fmt == "csv":
        with open(path, newline="") as fh:
            for raw in csv.DictReader(fh):
                rec = {"itemset": raw["itemset"].split("*")}
                for key in REPORT_FIELDS[1:]:
                    rec[key] = scalar(raw[key])
                records.append(rec)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return records


def emit_screen(sel: ScreeningResult, names: list[str], fh, fmt: str) -> None:
    """Write one record per selected feature: its score and sign."""
    _write_records(fh, fmt, ("itemset", "score", "sign"), [
        ([names[i - 1] for i in it.indices], (score, sign))
        for it, score, sign in zip(sel.selected, sel.scores, sel.signs)
    ])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sigma_arg(text: str):
    if text == "estimate":
        return text
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--sigma expects a number or 'estimate', got {text!r}"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError("--sigma must be positive")
    return value


def _truth_arg(text: str) -> dict:
    """Parse '1,2,3:1.0;4:0.5' into {(1,2,3): 1.0, (4,): 0.5}."""
    truth = {}
    if not text:
        return truth
    for part in text.split(";"):
        try:
            indices, coef = part.split(":")
            key = tuple(int(tok) for tok in indices.split(","))
            truth[key] = float(coef)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad --truth term {part!r}; expected e.g. '1,2,3:1.0'"
            ) from None
    return truth


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def _add_data_flags(sub, k_default: int) -> None:
    sub.add_argument("--input", required=True, help="CSV: covariates, response last")
    sub.add_argument("--order", type=int, default=3, metavar="R")
    sub.add_argument("--topk", type=int, default=k_default, metavar="K")
    sub.add_argument("--max-rows", type=_positive_int, default=None, metavar="N")
    sub.add_argument("--binarize", action="store_true",
                     help="standardize each covariate and recode as >1 / <-1 indicators")


def _add_common_flags(sub) -> None:
    sub.add_argument("--output", default=None, help="default: stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--seed", type=int, default=0, metavar="N")


def _add_study_flags(sub) -> None:
    _add_common_flags(sub)
    sub.add_argument("--threads", type=int, default=1, metavar="N",
                     help="worker processes running the trials")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="selectree")
    commands = parser.add_subparsers(dest="command", required=True)

    screen = commands.add_parser("screen", parents=[], description="Top-k screening only.")
    _add_data_flags(screen, k_default=30)
    _add_common_flags(screen)

    inf = commands.add_parser("infer", description="Screening plus selective inference.")
    _add_data_flags(inf, k_default=30)
    inf.add_argument("--alpha", type=float, default=0.05, metavar="A")
    inf.add_argument("--sigma", type=_sigma_arg, default="estimate",
                     help="noise level, or 'estimate' for the residual estimate")
    inf.add_argument("--no-prune", action="store_true",
                     help="disable subtree skipping (output must be identical)")
    _add_common_flags(inf)

    synth = commands.add_parser(
        "synth", description="Synthetic error-rate study (FPR when --truth is empty, else TPR)."
    )
    synth.add_argument("--rows", type=int, default=100, metavar="N")
    synth.add_argument("--cols", type=int, default=50, metavar="D")
    synth.add_argument("--order", type=int, default=3, metavar="R")
    synth.add_argument("--topk", type=int, default=10, metavar="K")
    synth.add_argument("--alpha", type=float, default=0.05, metavar="A")
    synth.add_argument("--sigma", type=float, default=0.1, metavar="S")
    synth.add_argument("--sparsity", type=float, default=0.5)
    synth.add_argument("--trials", type=int, default=100)
    synth.add_argument("--truth", type=_truth_arg, default={},
                       help="planted coefficients, e.g. '1,2,3:1.0'")
    _add_study_flags(synth)

    perf = commands.add_parser("perf", description="Timing / visit-rate grid study.")
    perf.add_argument("--rows", type=int, default=100, metavar="N")
    perf.add_argument("--topk", type=int, default=10, metavar="K")
    perf.add_argument("--alpha", type=float, default=0.05, metavar="A")
    perf.add_argument("--sigma", type=float, default=0.1, metavar="S")
    perf.add_argument("--trials", type=int, default=10)
    perf.add_argument("--truth", type=_truth_arg, default={(1, 2, 3): 1.0})
    perf.add_argument("--cols-list", type=_int_list, default=[100], metavar="D,D,...")
    perf.add_argument("--order-list", type=_int_list, default=[1, 2, 3], metavar="R,R,...")
    perf.add_argument("--sparsity-list", type=_float_list, default=[0.5, 0.9])
    _add_study_flags(perf)

    return parser


# ---------------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------------

def _load_dataset(ns) -> tuple[list[str], Dataset]:
    names, Z, y = ingest_csv(ns.input)
    if ns.max_rows is not None:
        Z, y = subsample(Z, y, ns.max_rows, ns.seed)
    if ns.binarize:
        names, Z = binarize_table(names, Z)
    try:
        return names, Dataset(Z, y)
    except ValueError as exc:
        hint = " (is --binarize missing?)" if "[0, 1]" in str(exc) else ""
        raise DataError(f"{ns.input}: {exc}{hint}") from None


def _output(ns):
    """The ``--output`` file, closed on exit, or stdout when it is unset."""
    if ns.output is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(ns.output, "w")
    except OSError as exc:
        # main reports a ValueError as a usage error (exit 1)
        raise ValueError(f"cannot write {ns.output}: {exc.strerror}") from None


def _cmd_screen(ns) -> int:
    names, data = _load_dataset(ns)
    sel, _ = marginal_screen(data, ns.topk, ns.order)
    with _output(ns) as fh:
        emit_screen(sel, names, fh, ns.format)
    return 0


def _cmd_infer(ns) -> int:
    names, data = _load_dataset(ns)
    prune = not ns.no_prune
    sigma = ns.sigma
    screened = None
    if sigma == "estimate":
        screened = marginal_screen(data, ns.topk, ns.order, prune=prune)
        sigma = estimate_sigma(data, screened[0])
    config = ModelConfig(r=ns.order, k=ns.topk, sigma=sigma, alpha=ns.alpha)
    report = infer(data, config, prune=prune, screened=screened)
    with _output(ns) as fh:
        emit_report(report, names, fh, ns.format)
    return 0


def _write_rows(rows, ns) -> None:
    with _output(ns) as fh:
        if ns.format == "json":
            write_rows_json(rows, fh)
        else:
            write_rows_csv(rows, fh)


def _cmd_synth(ns) -> int:
    spec = SyntheticSpec(
        n=ns.rows,
        d=ns.cols,
        r=ns.order,
        k=ns.topk,
        sparsity=ns.sparsity,
        sigma=ns.sigma,
        truth=ns.truth,
        alpha=ns.alpha,
        seed=ns.seed,
        trials=ns.trials,
    )
    study = run_tpr_study if spec.truth else run_fpr_study
    summary = study(spec, threads=ns.threads)
    _write_rows(summary.to_rows(), ns)
    return 0


def _cmd_perf(ns) -> int:
    max_r = max(ns.order_list)
    spec = SyntheticSpec(
        n=ns.rows,
        d=min(ns.cols_list),
        r=max_r,
        k=ns.topk,
        sparsity=ns.sparsity_list[0],
        sigma=ns.sigma,
        truth=ns.truth,
        alpha=ns.alpha,
        seed=ns.seed,
        trials=ns.trials,
    )
    rows = run_perf_study(
        spec, ns.cols_list, ns.order_list, ns.sparsity_list, threads=ns.threads
    )
    _write_rows([row.to_row() for row in rows], ns)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; keep the int contract
        return exc.code if isinstance(exc.code, int) else 1
    handler = {
        "screen": _cmd_screen,
        "infer": _cmd_infer,
        "synth": _cmd_synth,
        "perf": _cmd_perf,
    }[ns.command]
    try:
        return handler(ns)
    except DataError as exc:
        print(f"selectree: data error: {exc}", file=sys.stderr)
        return 2
    except (
        DegenerateTruncationError,
        SingularGramError,
        SigmaEstimationError,
        InternalConsistencyError,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as exc:
        print(f"selectree: degenerate instance: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"selectree: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
