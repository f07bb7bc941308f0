import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from conftest import degenerate_designs
from selectree import cli, inference
from selectree.cli import (
    DataError,
    SigmaEstimationError,
    binarize_table,
    emit_report,
    emit_screen,
    estimate_sigma,
    ingest_csv,
    main,
    parse_report,
    subsample,
)
from selectree.inference import infer
from selectree.itemsets import Dataset, ModelConfig
from selectree.oracle import oracle_screen
from selectree.screening import marginal_screen

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "interactions.csv")


def _write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestIngest:
    def test_header_detected(self, tmp_path):
        p = _write(tmp_path, "a,b,y\n1,0,2.5\n0,1,-1\n")
        names, Z, y = ingest_csv(p)
        assert names == ["a", "b"]
        assert_array_equal(Z, [[1.0, 0.0], [0.0, 1.0]])
        assert_array_equal(y, [2.5, -1.0])

    def test_headerless_gets_default_names(self, tmp_path):
        p = _write(tmp_path, "1,0,2.5\n0,1,-1\n")
        names, Z, y = ingest_csv(p)
        assert names == ["z1", "z2"]
        assert Z.shape == (2, 2)

    def test_ragged_row_reports_line_number(self, tmp_path):
        p = _write(tmp_path, "a,b,y\n1,0,2\n1,0\n")
        with pytest.raises(DataError, match="line 3"):
            ingest_csv(p)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        p = _write(tmp_path, "a,b,y\n1,oops,2\n")
        with pytest.raises(DataError, match="line 2, column 2"):
            ingest_csv(p)

    def test_non_finite_rejected(self, tmp_path):
        p = _write(tmp_path, "a,b,y\n1,inf,2\n")
        with pytest.raises(DataError):
            ingest_csv(p)

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(_write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(DataError):
            ingest_csv(_write(tmp_path, "a,b,y\n"))

    def test_single_column_is_an_error(self, tmp_path):
        # need at least one covariate beside the response
        with pytest.raises(DataError):
            ingest_csv(_write(tmp_path, "1\n2\n"))


def _ingest_by_loop(path):
    """ingest_csv with the loadtxt pass switched off: the per-cell loop alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_loadtxt_rows", lambda fh: None)
        return ingest_csv(path)


@contextlib.contextmanager
def _counting_loop():
    """Record each file the per-cell loop reads inside the block."""
    calls = []
    parse_rows = cli._parse_rows

    def counting(fh, path):
        calls.append(path)
        return parse_rows(fh, path)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse_rows", counting)
        yield calls


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308]),
)


@st.composite
def _csv_text(draw):
    """A finite table written with repr, optionally with a header, CRLF line
    ends, blank lines, quoted cells and space- or tab-padded cells."""
    width = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(_FINITE, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(f"v{j}" for j in range(width))] if draw(st.booleans()) else []
    for row in rows:
        cells = []
        for value in row:
            cell = repr(value)
            style = draw(st.sampled_from(["plain", "quoted", "padded"]))
            if style == "quoted":
                cell = f'"{cell}"'
            elif style == "padded":
                cell = draw(st.sampled_from([" ", "\t", "  "])) + cell + draw(
                    st.sampled_from(["", " ", "\t"]))
            cells.append(cell)
        if draw(st.booleans()):
            lines.append("")
        lines.append(",".join(cells))
    return eol.join(lines) + eol


class TestIngestPaths:
    """ingest_csv parses with one np.loadtxt pass and falls back to the
    per-cell loop for Python-only number forms and for every error."""

    @given(text=_csv_text())
    @settings(max_examples=150, deadline=None)
    def test_loadtxt_pass_matches_the_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("ingest") / "t.csv"
        path.write_bytes(text.encode())
        with _counting_loop() as loops:
            names, Z, y = ingest_csv(path)
        ref_names, ref_Z, ref_y = _ingest_by_loop(path)
        assert loops == []
        assert names == ref_names
        assert Z.shape == ref_Z.shape and Z.tobytes() == ref_Z.tobytes()
        assert y.tobytes() == ref_y.tobytes()

    @pytest.mark.parametrize("text, value", [
        ("a,b,y\n1_000,0,2\n", 1000.0),
        ("a,b,y\n١,0,2\n", 1.0),
        ("﻿1_000,0,2\n", 1000.0),
    ], ids=["underscore", "arabic-indic digit", "bom"])
    def test_python_only_number_forms_are_read_by_the_loop(self, tmp_path, text, value):
        with _counting_loop() as loops:
            _, Z, _ = ingest_csv(_write(tmp_path, text))
        assert len(loops) == 1
        assert Z[0, 0] == value

    @pytest.mark.parametrize("text, match", [
        ("a,b,y\n1,0,2\n   \n0,1,1\n", "line 3: expected 3 cells, got 1"),
        ("a,b,y\n#1,0,2\n", "line 2, column 1: non-numeric cell '#1'"),
        ("a,b,y\n1,0,2\n1,0,2,\n", "line 3: expected 3 cells, got 4"),
        ("a,b,y\n1,0,2\n1,0\n", "line 3: expected 3 cells, got 2"),
        ("a,b,y\n1,oops,2\n", "line 2, column 2: non-numeric cell 'oops'"),
        ("a,b,y\n1,0\x1c,2\n", "line 2, column 2: non-numeric cell"),
        ('a,b,y\n"1\n",0,2\n1,x,2\n', "line 4, column 2: non-numeric cell 'x'"),
        ('a,b,y\n"1\n",0,2\n1,0\n', "line 4: expected 3 cells, got 2"),
        ("", "empty file"),
        ("\n\r\n", "empty file"),
        ("a,b,y\n", "header but no data rows"),
        ("a,b,y\n\n\r\n", "header but no data rows"),
        ("1\n2\n", "need at least one covariate"),
    ], ids=["whitespace line", "hash line", "trailing comma", "ragged row",
            "non-numeric", "separator padding", "after a two-line cell",
            "ragged after a two-line cell", "empty", "blank lines only",
            "header only", "header and blank lines", "one column"])
    def test_errors_come_from_the_loop(self, tmp_path, text, match):
        path = _write(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught, _counting_loop() as loops:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match=match):
                ingest_csv(path)
        assert len(loops) == 1
        assert caught == []

    def test_non_finite_value_is_caught_after_the_loadtxt_pass(self, tmp_path):
        path = _write(tmp_path, "a,b,y\n1,0,2\n1,inf,2\n")
        with _counting_loop() as loops:
            with pytest.raises(DataError, match="data row 2, column 2"):
                ingest_csv(path)
        assert loops == []

    @pytest.mark.parametrize("text, match, loops", [
        ("a,b,y\n1,0,1,2\n0,1,1,3\n", "header has 3 cells, data rows have 4", 0),
        ("a,b,y\n1_000,0,1,2\n0,1,1,3\n", "header has 3 cells, data rows have 4", 1),
        ("a,b,c,y\n1,0,2\n0,1,3\n", "header has 4 cells, data rows have 3", 0),
        ("a,b,c,y\n1_000,0,2\n0,1,3\n", "header has 4 cells, data rows have 3", 1),
    ], ids=["short header", "short header in loop", "long header", "long header in loop"])
    def test_header_width_must_match_the_rows(self, tmp_path, text, match, loops):
        with _counting_loop() as calls:
            with pytest.raises(DataError, match=match):
                ingest_csv(_write(tmp_path, text))
        assert len(calls) == loops

    _HUGE = '"' + "1" * 200_000 + '"'

    @pytest.mark.parametrize("text, match, loops", [
        (f"a,{_HUGE},y\n1,0,2\n", "line 1: field larger than field limit", 0),
        (f"a,b,y\n1_000,0,2\n0,{_HUGE},2\n", "line 3: field larger than field limit", 1),
    ], ids=["header", "data row in loop"])
    def test_oversized_field_is_a_data_error(self, tmp_path, text, match, loops):
        path = _write(tmp_path, text)
        with _counting_loop() as calls:
            with pytest.raises(DataError, match=match):
                ingest_csv(path)
        assert len(calls) == loops
        with pytest.raises(DataError, match=match):
            _ingest_by_loop(path)

    @pytest.mark.parametrize("text, names", [
        ("﻿1,2,3\n4,5,6\n", ["z1", "z2"]),
        ("﻿a,b,y\n1,2,3\n4,5,6\n", ["a", "b"]),
    ], ids=["headerless", "header"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text, names):
        got_names, Z, y = ingest_csv(_write(tmp_path, text))
        assert got_names == names
        assert_array_equal(Z, [[1.0, 2.0], [4.0, 5.0]])
        assert_array_equal(y, [3.0, 6.0])

    @pytest.mark.parametrize("data, loops", [
        (bytes(range(256)) * 4, 1),
        ("café,b,y\n1,0,2\n".encode("latin-1"), 0),
        (b"a,b,y\n" + b"1,0,2\n" * 20_000 + "é,0,2\n".encode("latin-1"), 0),
        (b"a,b,y\n1_000,0,2\n" + b"1,0,2\n" * 20_000 + b"\xff,0,2\n", 1),
    ], ids=["binary", "latin-1 header", "latin-1 in loadtxt", "invalid byte in loop"])
    def test_non_utf8_is_a_data_error(self, tmp_path, data, loops):
        p = tmp_path / "bad.csv"
        p.write_bytes(data)
        with _counting_loop() as calls:
            with pytest.raises(DataError, match="not UTF-8"):
                ingest_csv(p)
        assert len(calls) == loops


def _binarize_reference(names, Z):
    """binarize_table column by column: np.mean / np.std of each column, the
    +-1 thresholds, and the first copy of duplicate indicators kept."""
    out_names, cols, seen = [], [], set()
    for j, name in enumerate(names):
        mu, sd = float(np.mean(Z[:, j])), float(np.std(Z[:, j]))
        if sd == 0.0:
            raise DataError(f"column {name!r} has zero variance; cannot standardize")
        z = (Z[:, j] - mu) / sd
        for cut, col in ((">1", z > 1.0), ("<-1", z < -1.0)):
            col = col.astype(np.float64)
            if col.tobytes() not in seen:
                seen.add(col.tobytes())
                out_names.append(name + cut)
                cols.append(col)
    return out_names, np.column_stack(cols)


@st.composite
def _tables(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    cols = []
    for _ in range(d):
        kind = draw(st.sampled_from(("normal", "integer", "constant", "copy")))
        if kind == "copy" and cols:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))].copy())
            continue
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "constant":
            col = np.full(n, draw(st.floats(-1e3, 1e3)))
        elif kind == "integer":
            col = rng.integers(-3, 4, n).astype(np.float64)
        else:
            col = rng.standard_normal(n)
        scale = 10.0 ** draw(st.integers(-8, 8))
        cols.append(col * scale + draw(st.floats(-1e3, 1e3)))
    return [f"c{j}" for j in range(d)], np.column_stack(cols)


class TestBinarize:
    def test_indicator_pair(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(500) * 2.0 + 1.0
        names, out = binarize_table(["v"], col[:, None])
        assert names == ["v>1", "v<-1"]
        z = (col - col.mean()) / col.std()
        assert_array_equal(out[:, 0], (z > 1.0).astype(np.float64))
        assert_array_equal(out[:, 1], (z < -1.0).astype(np.float64))

    def test_constant_column_rejected(self):
        with pytest.raises(DataError, match="zero variance"):
            binarize_table(["flat"], np.full((10, 1), 3.3))

    def test_first_constant_column_is_named(self):
        Z = np.column_stack([np.arange(6.0), np.full(6, 2.0), np.zeros(6)])
        with pytest.raises(DataError, match="^column 'b' has zero variance"):
            binarize_table(["a", "b", "c"], Z)

    @given(_tables())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_column_reference(self, table):
        names, Z = table
        try:
            want = _binarize_reference(names, Z)
        except DataError as exc:
            with pytest.raises(DataError, match=f"^{re.escape(str(exc))}$"):
                binarize_table(names, Z)
            return
        got = binarize_table(names, Z)
        assert got[0] == want[0]
        assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
        assert got[1].tobytes() == want[1].tobytes()

    def test_table_binarizes_every_column(self):
        # a balanced 0/1 column standardizes to exactly +-1, so both of its
        # indicators are empty and collapse to a single zero column
        Z = np.array([[0.0, 2.0], [1.0, -2.0], [1.0, 0.0], [0.0, 1.0]])
        names, out = binarize_table(["b", "c"], Z)
        assert names == ["b>1", "c>1", "c<-1"]
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert_array_equal(out[:, 1], [1.0, 0.0, 0.0, 0.0])
        assert_array_equal(out[:, 2], [0.0, 1.0, 0.0, 0.0])

    def test_table_drops_duplicate_indicator_columns(self):
        # two perfectly correlated continuous columns binarize identically;
        # only the first copy survives
        base = np.array([3.0, -3.0, 0.5, -0.5, 0.0, 0.2])
        Z = np.column_stack([base, base])
        names, out = binarize_table(["u", "v"], Z)
        assert names == ["u>1", "u<-1"]
        assert out.shape == (6, 2)


class TestSubsample:
    def test_identity_when_enough_budget(self):
        Z = np.arange(12.0).reshape(6, 2)
        y = np.arange(6.0)
        Z2, y2 = subsample(Z, y, max_rows=6, seed=0)
        assert Z2 is Z and y2 is y

    def test_deterministic_and_order_preserving(self):
        Z = np.arange(40.0).reshape(20, 2)
        y = np.arange(20.0)
        Z2, y2 = subsample(Z, y, max_rows=7, seed=42)
        Z3, y3 = subsample(Z, y, max_rows=7, seed=42)
        assert_array_equal(Z2, Z3)
        assert Z2.shape == (7, 2)
        # rows keep their original relative order
        assert list(y2) == sorted(y2)
        rows = {tuple(row) for row in Z}
        assert all(tuple(row) in rows for row in Z2)


class TestEstimateSigma:
    def test_matches_residual_formula(self):
        rng = np.random.default_rng(5)
        Z = (rng.random((60, 6)) < 0.5).astype(np.float64)
        y = rng.standard_normal(60)
        data = Dataset(Z, y)
        sel, _ = marginal_screen(data, k=3, r=2)
        got = estimate_sigma(data, sel)
        from selectree.itemsets import feature_column

        X = np.column_stack([feature_column(it, Z) for it in sel.selected])
        resid = y - X @ np.linalg.lstsq(X, y, rcond=None)[0]
        want = math.sqrt(float(resid @ resid) / (60 - 3))
        assert got == pytest.approx(want, rel=1e-12)

    def test_recovers_noise_scale(self):
        rng = np.random.default_rng(9)
        Z = (rng.random((1000, 8)) < 0.5).astype(np.float64)
        y = 0.25 * rng.standard_normal(1000)
        data = Dataset(Z, y)
        sel, _ = marginal_screen(data, k=4, r=2)
        assert estimate_sigma(data, sel) == pytest.approx(0.25, rel=0.1)

    def test_exact_fit_is_degenerate(self):
        Z = (np.random.default_rng(3).random((30, 4)) < 0.5).astype(np.float64)
        y = Z[:, 0].copy()
        data = Dataset(Z, y)
        sel, _ = marginal_screen(data, k=1, r=1)
        with pytest.raises(SigmaEstimationError):
            estimate_sigma(data, sel)

    def test_too_few_rows(self):
        Z = np.eye(3)
        y = np.array([1.0, 2.0, 3.0])
        data = Dataset(Z, y)
        sel, _ = marginal_screen(data, k=3, r=1)
        with pytest.raises(SigmaEstimationError):
            estimate_sigma(data, sel)


class TestReportRoundTrip:
    @pytest.fixture()
    def report(self, tiny):
        return infer(tiny, ModelConfig(r=2, k=2, sigma=1.0))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_round_trip(self, tmp_path, report, fmt):
        # The second set needs JSON escapes and CSV quoting.
        for names in (["a", "b", "c"], ['a"b\\', "x,1\n", "c"]):
            path = tmp_path / f"r.{fmt}"
            with open(path, "w") as fh:
                emit_report(report, names, fh, fmt)
            rows = parse_report(path, fmt)
            assert len(rows) == len(report.features)
            for row, feat in zip(rows, report.features):
                assert row["itemset"] == [names[i - 1] for i in feat.itemset.indices]
                assert row["beta_hat"] == feat.beta_hat
                assert row["pivot"] == feat.pivot
                assert row["significant"] == feat.significant

    def test_infinite_endpoints_serialized_as_words(self, tmp_path, report):
        # force one infinite CI endpoint through the writer
        import dataclasses

        feat = dataclasses.replace(report.features[0], ci_high=math.inf)
        doctored = dataclasses.replace(report, features=(feat,) + report.features[1:])
        path = tmp_path / "r.json"
        with open(path, "w") as fh:
            emit_report(doctored, ["a", "b", "c"], fh, "json")
        text = path.read_text()
        assert '"inf"' in text
        assert json.loads(text)  # stays valid JSON
        rows = parse_report(path, "json")
        assert rows[0]["ci_high"] == math.inf

    def test_seventeen_digit_floats_survive(self, tmp_path, report):
        path = tmp_path / "r.csv"
        with open(path, "w") as fh:
            emit_report(report, ["a", "b", "c"], fh, "csv")
        rows = parse_report(path, "csv")
        assert rows[0]["v_minus"] == report.features[0].interval.v_minus

    def test_itemset_names_joined_with_star(self, tmp_path, report):
        path = tmp_path / "r.csv"
        with open(path, "w") as fh:
            emit_report(report, ["a", "b", "c"], fh, "csv")
        raw_col = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert raw_col == ["a", "a*b"]
        # the parser splits the joined names back into lists
        assert [r["itemset"] for r in parse_report(path, "csv")] == [["a"], ["a", "b"]]

    def test_json_and_csv_agree(self, tmp_path, report):
        names = ["a", "b", "c"]
        pj, pc = tmp_path / "r.json", tmp_path / "r.csv"
        with open(pj, "w") as fh:
            emit_report(report, names, fh, "json")
        with open(pc, "w") as fh:
            emit_report(report, names, fh, "csv")
        assert parse_report(pj, "json") == parse_report(pc, "csv")

    @pytest.mark.parametrize("emit", [emit_report, emit_screen])
    def test_unknown_format_is_rejected(self, report, emit):
        what = report if emit is emit_report else report.screening
        fh = io.StringIO()
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            emit(what, ["a", "b", "c"], fh, "xml")
        assert fh.getvalue() == ""


class TestAllZeroResponse:
    """y == 0: every score ties at 0 and every truncation window collapses."""

    @pytest.fixture()
    def data(self):
        rng = np.random.default_rng(4)
        return Dataset((rng.random((12, 4)) < 0.5).astype(np.float64), np.zeros(12))

    @pytest.fixture()
    def path(self, tmp_path, data):
        lines = ["a,b,c,d,y"] + [
            ",".join(f"{v:g}" for v in row) + ",0" for row in data.Z
        ]
        return _write(tmp_path, "\n".join(lines) + "\n")

    def test_infer_raises_degenerate_truncation(self, data):
        with pytest.raises(inference.DegenerateTruncationError):
            infer(data, ModelConfig(r=2, k=3, sigma=1.0))

    @pytest.mark.parametrize(
        "sigma,reason", [("1", "collapsed"), ("estimate", "exact fit")]
    )
    def test_cli_infer_exits_3(self, path, capsys, sigma, reason):
        rc = main(["infer", "--input", path, "--topk", "3", "--order", "2",
                   "--sigma", sigma])
        err = capsys.readouterr().err
        assert rc == 3
        assert "degenerate instance" in err and reason in err
        assert "Traceback" not in err

    def test_cli_screen_keeps_the_first_itemsets(self, path, data, tmp_path):
        out = tmp_path / "sel.json"
        rc = main(["screen", "--input", path, "--topk", "3", "--order", "2",
                   "--output", str(out)])
        assert rc == 0
        ref = oracle_screen(data, 3, 2)
        assert [it.indices for it in ref.selected] == [(1,), (1, 2), (1, 3)]
        assert ref.scores == (0.0,) * 3 and ref.signs == (1,) * 3
        rows = json.loads(out.read_text())
        assert [row["itemset"] for row in rows] == [["a"], ["a", "b"], ["a", "c"]]
        assert [(row["score"], row["sign"]) for row in rows] == [(0.0, 1)] * 3


@pytest.mark.parametrize("name", sorted(degenerate_designs()))
def test_degenerate_design_infer_exits_3(tmp_path, capsys, name):
    data = degenerate_designs()[name]
    lines = [",".join(f"z{j}" for j in range(1, data.d + 1)) + ",y"] + [
        ",".join(repr(float(v)) for v in row) + "," + repr(float(t))
        for row, t in zip(data.Z, data.y)
    ]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    rc = main(["infer", "--input", path, "--topk", "3", "--order", "2", "--sigma", "1"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "singular Gram matrix" in err
    assert "Traceback" not in err


class TestMainExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["infer", "--no-such-flag"]) == 1

    def test_missing_file_is_2(self, capsys):
        assert main(["screen", "--input", "/nonexistent/x.csv"]) == 2

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_rows_below_one_is_1(self, tmp_path, capsys, value):
        p = _write(tmp_path, "a,b,y\n1,0,2\n0,1,1\n")
        assert main(["screen", "--input", p, "--max-rows", value]) == 1
        err = capsys.readouterr().err
        assert "--max-rows: must be at least 1" in err and "Traceback" not in err

    def test_unwritable_output_is_1(self, tmp_path, capsys):
        p = _write(tmp_path, "a,b,y\n1,0,2\n0,1,1\n")
        out = tmp_path / "no" / "such" / "dir.json"
        assert main(["screen", "--input", p, "--topk", "1", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"selectree: error: cannot write {out}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("data", [bytes(range(256)), "é,b,y\n1,0,2\n".encode("latin-1")],
                             ids=["binary", "latin-1"])
    def test_non_utf8_file_is_2(self, tmp_path, capsys, data):
        p = tmp_path / "bad.csv"
        p.write_bytes(data)
        assert main(["screen", "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"data error: cannot read {p}: not UTF-8 text" in err

    @pytest.mark.parametrize("text, match", [
        ("a,b,y\n1,0,1,2\n0,1,1,3\n", "header has 3 cells, data rows have 4"),
        ('a,"' + "1" * 200_000 + '",y\n1,0,2\n', "line 1: field larger than field limit"),
    ], ids=["header width", "oversized field"])
    def test_malformed_csv_is_2(self, tmp_path, capsys, text, match):
        p = _write(tmp_path, text)
        assert main(["screen", "--input", p, "--topk", "3", "--order", "2"]) == 2
        err = capsys.readouterr().err
        assert match in err and "Traceback" not in err

    def test_bad_k_is_1(self, tmp_path, capsys):
        p = _write(tmp_path, "a,b,y\n1,0,2\n0,1,1\n")
        assert main(["screen", "--input", p, "--topk", "0"]) == 1

    @pytest.mark.parametrize("command", ["screen", "infer"])
    @pytest.mark.parametrize("flag", ["--order", "--topk"])
    def test_order_and_topk_below_one_fail_before_reading(self, capsys, command, flag):
        # The input does not exist: a parse error must come first (exit 1,
        # not the missing file's 2) and name the flag.
        assert main([command, "--input", "/nonexistent/x.csv", flag, "0"]) == 1
        err = capsys.readouterr().err
        assert f"{flag}: must be at least 1, got 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_sigma_must_be_finite_and_positive(self, capsys, value):
        rc = main(["infer", "--binarize", "--input", FIXTURE, "--topk", "2", "--order", "2",
                   "--sigma", value])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"--sigma: must be finite and positive, got '{value}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "perf"])
    @pytest.mark.parametrize("value, message", [
        ("inf", "must be finite and positive, got 'inf'"),
        ("nan", "must be finite and positive, got 'nan'"),
        ("0", "must be finite and positive, got '0'"),
        ("-0.5", "must be finite and positive, got '-0.5'"),
        ("abc", "expected a number, got 'abc'"),
    ])
    def test_study_sigma_must_be_finite_and_positive(self, capsys, command, value, message):
        # A parse error, before any trial runs: not the "response contains
        # non-finite entries" of a dataset the user never gave.
        rc = main([command, "--rows", "20", "--topk", "2", "--trials", "1",
                   "--sigma", value])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"--sigma: {message}" in err
        assert "response" not in err and "Traceback" not in err

    @pytest.mark.parametrize("value, message", [
        ("1.5", "must lie in (0, 1), got '1.5'"),
        ("nan", "must lie in (0, 1), got 'nan'"),
        ("0", "must lie in (0, 1), got '0'"),
        ("1", "must lie in (0, 1), got '1'"),
        ("-inf", "must lie in (0, 1), got '-inf'"),
        ("abc", "expected a number, got 'abc'"),
    ])
    def test_alpha_fails_before_reading(self, capsys, monkeypatch, value, message):
        # A parse error (exit 1, naming the flag) before the CSV is read:
        # the input does not exist, and nothing may be screened.
        monkeypatch.setattr(cli, "marginal_screen", None)
        rc = main(["infer", "--input", "/nonexistent/x.csv", "--sigma", "1", f"--alpha={value}"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"--alpha: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "perf"])
    @pytest.mark.parametrize("value", ["1.5", "nan", "0"])
    def test_study_alpha_fails_before_any_trial(self, capsys, monkeypatch, command, value):
        # A parse error: no spec is built and no trial runs.
        monkeypatch.setattr(cli, "SyntheticSpec", None)
        rc = main([command, "--rows", "20", "--topk", "2", "--trials", "1", "--alpha", value])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"--alpha: must lie in (0, 1), got '{value}'" in err
        assert "Traceback" not in err

    def test_alpha_inside_the_unit_interval_is_kept(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["infer", "--binarize", "--input", FIXTURE, "--topk", "2", "--order", "2",
                     "--sigma", "1", "--alpha", "0.2", "--format", "csv",
                     "--output", str(out)]) == 0
        assert out.read_text().count("\n") == 3

    @pytest.mark.parametrize("command", ["synth", "perf"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_study_threads_below_one_is_1(self, capsys, command, value):
        rc = main([command, "--rows", "20", "--topk", "2", "--trials", "1",
                   "--threads", value])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"--threads: must be at least 1, got {value}" in err
        assert "Traceback" not in err

    _STUDY_SHAPE = {
        "synth": ["--cols", "5", "--order", "2"],
        "perf": ["--cols-list", "5", "--order-list", "2", "--sparsity-list", "0.5"],
    }

    @pytest.mark.parametrize("command", ["synth", "perf"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_study_truth_must_be_finite(self, capsys, command, value):
        # The coefficient is named, with no numpy warning and not as the
        # "response contains non-finite entries" of a response the user
        # never gave.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--rows", "20", "--topk", "2", "--trials", "1",
                       *self._STUDY_SHAPE[command], "--truth", f"1:{value}"])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"truth coefficient for {{1}} must be finite, got {float(value)}" in err
        assert "response" not in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "perf"])
    def test_study_truth_whose_response_overflows_is_3(self, capsys, command):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--rows", "20", "--topk", "2", "--trials", "1",
                       *self._STUDY_SHAPE[command], "--truth", "1,2:1e308;1:1e308"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == ("selectree: degenerate instance: "
                       "the response of the truth plus noise overflows\n")

    @pytest.mark.parametrize("command", ["synth", "perf"])
    def test_study_truth_itemset_given_twice_is_1(self, capsys, command):
        rc = main([command, "--rows", "20", "--topk", "2", "--trials", "1",
                   *self._STUDY_SHAPE[command], "--truth", "3:1.0;3:-1.0"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "argument --truth: itemset {3} appears twice" in err
        assert "Traceback" not in err

    def test_truth_itemset_given_twice_in_another_order_is_1(self, capsys):
        rc = main(["synth", "--rows", "20", "--topk", "2", "--trials", "1",
                   *self._STUDY_SHAPE["synth"], "--truth", "1,2:1.0;2,1:3.0"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "selectree: error: truth itemset {1,2} appears twice\n"

    def test_truth_arg_rejects_a_repeated_itemset(self):
        with pytest.raises(argparse.ArgumentTypeError, match=r"itemset \{3\} appears twice"):
            cli._truth_arg("3:1.0;3:-1.0")
        assert cli._truth_arg("1,2:1.0;2,3:-1.0") == {(1, 2): 1.0, (2, 3): -1.0}

    @pytest.mark.parametrize("command", ["screen", "infer"])
    def test_response_whose_absolute_sum_overflows_is_3(self, tmp_path, capsys, command):
        # Each response entry is finite; the sum of their absolute values,
        # which bounds every score, is not.
        rows = [f"{(i >> 1) & 1},{(i >> 2) & 1},{(-1) ** i * 1.5e308!r}" for i in range(12)]
        p = _write(tmp_path, "a,b,y\n" + "\n".join(rows) + "\n")
        args = [command, "--input", p, "--topk", "2", "--order", "2"]
        if command == "infer":
            args += ["--sigma", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(args)
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == ""
        assert err == "selectree: degenerate instance: the sum of |y| overflows\n"

    def test_sigma_whose_square_overflows_is_3(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["infer", "--binarize", "--input", FIXTURE, "--topk", "2", "--order", "2",
                       "--sigma", "1e300"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("selectree: degenerate instance: eta^T Sigma eta = ")
        assert err.endswith(": the noise covariance overflows\n") and err.count("\n") == 1

    def test_continuous_data_without_binarize_is_2(self, tmp_path, capsys):
        p = _write(tmp_path, "a,b,y\n5.5,0,2\n0,1,1\n")
        rc = main(["screen", "--input", p])
        assert rc == 2
        assert "--binarize" in capsys.readouterr().err

    def test_sigma_degenerate_is_3(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        Z = (rng.random((30, 4)) < 0.5).astype(np.float64)
        lines = ["a,b,c,d,y"]
        for row, target in zip(Z, Z[:, 0]):
            lines.append(",".join(f"{v:g}" for v in row) + f",{target:g}")
        p = _write(tmp_path, "\n".join(lines) + "\n")
        assert main(["infer", "--input", p, "--topk", "1", "--order", "1"]) == 3


    @pytest.mark.parametrize(
        "error", [np.linalg.LinAlgError("SVD did not converge"),
                  FloatingPointError("truncated CDF denominator underflowed"),
                  inference.InternalConsistencyError("observation violates its own "
                                                     "selection event")],
        ids=["LinAlgError", "FloatingPointError", "InternalConsistencyError"],
    )
    def test_numeric_failure_in_infer_is_3(self, tmp_path, capsys, monkeypatch, error):
        def failing_infer(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "infer", failing_infer)
        p = _write(tmp_path, "a,b,c,y\n1,1,0,2\n0,1,1,-1\n1,0,1,1\n")
        rc = main(["infer", "--input", p, "--topk", "2", "--order", "2", "--sigma", "1.0"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "degenerate instance" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["screen", "infer"])
    def test_threads_is_not_a_flag_of_single_run_commands(self, tmp_path, capsys, command):
        p = _write(tmp_path, "a,b,y\n1,1,2\n0,1,-1\n1,0,1\n")
        args = [command, "--input", p, "--topk", "1", "--order", "1", "--sigma", "1.0"]
        if command == "screen":
            args = args[:-2]
        assert main(args) == 0
        assert main(args + ["--threads", "2"]) == 1
        assert "--threads" in capsys.readouterr().err


class TestMainEndToEnd:
    def test_screen_json(self, tmp_path, capsys):
        p = _write(tmp_path, "a,b,y\n1,1,2\n0,1,-1\n1,0,1\n")
        out = tmp_path / "sel.json"
        rc = main(
            ["screen", "--input", p, "--topk", "2", "--order", "2",
             "--output", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [row["itemset"] for row in doc] == [["a"], ["a", "b"]]
        assert [row["score"] for row in doc] == [3.0, 2.0]
        assert [row["sign"] for row in doc] == [1, 1]

    def test_infer_with_known_sigma(self, tmp_path):
        # same matrix as the `tiny` fixture, so the window is known exactly
        p = _write(tmp_path, "a,b,c,y\n1,1,0,2\n0,1,1,-1\n1,0,1,1\n")
        out = tmp_path / "rep.json"
        rc = main(
            ["infer", "--input", p, "--topk", "2", "--order", "2",
             "--sigma", "1.0", "--output", str(out)]
        )
        assert rc == 0
        rows = parse_report(out, "json")
        assert [row["itemset"] for row in rows] == [["a"], ["a", "b"]]
        assert rows[0]["v_minus"] == -0.5
        assert rows[0]["v_plus"] == 2.0

    def test_prune_toggle_output_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = [
            "infer", "--input", FIXTURE, "--binarize", "--max-rows", "400",
            "--order", "2", "--topk", "5", "--sigma", "estimate",
        ]
        assert main(base + ["--output", str(a)]) == 0
        assert main(base + ["--no-prune", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sigma_estimate_screens_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_screen(*args, **kwargs):
            calls.append(args)
            return marginal_screen(*args, **kwargs)

        monkeypatch.setattr(cli, "marginal_screen", counting_screen)
        monkeypatch.setattr(inference, "marginal_screen", counting_screen)
        out = tmp_path / "rep.json"
        rc = main(
            ["infer", "--input", FIXTURE, "--binarize", "--max-rows", "200",
             "--order", "2", "--topk", "4", "--sigma", "estimate",
             "--output", str(out)]
        )
        assert rc == 0
        assert len(calls) == 1

    def test_fixture_pipeline_finds_planted_pair(self, tmp_path):
        out = tmp_path / "rep.csv"
        rc = main(
            ["infer", "--input", FIXTURE, "--binarize", "--max-rows", "1000",
             "--order", "2", "--topk", "8", "--format", "csv",
             "--output", str(out)]
        )
        assert rc == 0
        rows = parse_report(out, "csv")
        planted = [r for r in rows if r["itemset"] == ["c1>1", "c2>1"]]
        assert planted and planted[0]["significant"]

    def test_stdout_default(self, tmp_path, capsys):
        p = _write(tmp_path, "a,b,y\n1,1,2\n0,1,-1\n1,0,1\n")
        assert main(["screen", "--input", p, "--topk", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["itemset"] == ["a"]

    def test_synth_fpr_csv(self, tmp_path):
        out = tmp_path / "study.csv"
        rc = main(
            ["synth", "--rows", "40", "--cols", "8", "--order", "2",
             "--topk", "3", "--sigma", "0.3", "--trials", "4",
             "--seed", "5", "--format", "csv", "--output", str(out)]
        )
        assert rc == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("study,method,")
        assert {line.split(",")[1] for line in text[1:]} == {"PSI", "OLS", "SPLIT"}

    def test_perf_csv(self, tmp_path):
        out = tmp_path / "perf.csv"
        rc = main(
            ["perf", "--rows", "40", "--topk", "2", "--sigma", "0.3",
             "--trials", "2", "--cols-list", "8", "--order-list", "1,2",
             "--sparsity-list", "0.5", "--truth", "1,2:1.0",
             "--format", "csv", "--output", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header + one row per model order
        assert lines[0].split(",")[:3] == ["d", "r", "sparsity"]

    def test_perf_orders_below_the_truth(self, tmp_path):
        # The default truth {1,2,3} is of order 3; the grid's orders cap the
        # model, not the data, so orders 1 and 2 still run.
        out = tmp_path / "perf.csv"
        rc = main(
            ["perf", "--rows", "40", "--topk", "2", "--trials", "1", "--cols-list", "8",
             "--order-list", "1,2", "--sparsity-list", "0.5", "--format", "csv",
             "--output", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["1", "2"]


class TestStudyOutputs:
    """The bytes a refactor of the studies must keep, on small grids whose
    rates are neither 0 nor 1."""

    STUDIES = {
        "fpr": ["synth", "--rows", "40", "--cols", "8", "--order", "2", "--topk", "3",
                "--sigma", "0.3", "--alpha", "0.3", "--trials", "10", "--seed", "5"],
        "tpr": ["synth", "--rows", "60", "--cols", "8", "--order", "2", "--topk", "3",
                "--sigma", "0.5", "--trials", "10", "--seed", "2",
                "--truth", "1,2:1.0;3:-0.8"],
        "perf": ["perf", "--rows", "40", "--topk", "2", "--sigma", "0.3", "--trials", "2",
                 "--cols-list", "6,8", "--order-list", "1,2,3",
                 "--sparsity-list", "0.5,0.8", "--truth", "1,2:1.0"],
    }
    # sha256 of each study's output; perf's without its two timing columns.
    SHA256 = {
        ("fpr", "json"):
            "fba5e02159b00098fe95ec8213e6816212007c4e13e0b2710278a95d5bc241f4",
        ("fpr", "csv"):
            "2c2c41fc8e6ed8f5828afa5d6f48ff8869e4b488576cc5a599c3d9d1686c18d3",
        ("tpr", "json"):
            "c6d415daf4f8b959cdcf486ade14ee4ba865983eedc19b5250b89bb65055d7af",
        ("tpr", "csv"):
            "187b10b785a35c78ec75383f38c368a67df77507d23c97e30f65e8efa91c5ace",
        ("perf", "json"):
            "6a281470454a451649cf67ba861ece1036dcdc814a2311abd7842dff1ae887c1",
        ("perf", "csv"):
            "2147e2573491b7bae76e04ad1464fd0f1ea15e8362bd9512e3b6e6edf7221f6d",
    }
    TIMING = ("mean_elapsed", "sd_elapsed")

    def _untimed(self, text, fmt):
        if fmt == "json":
            rows = json.loads(text)
            return json.dumps([{k: v for k, v in row.items() if k not in self.TIMING}
                               for row in rows])
        rows = list(csv.reader(io.StringIO(text)))
        keep = [i for i, name in enumerate(rows[0]) if name not in self.TIMING]
        return "\n".join(",".join(row[i] for i in keep) for row in rows)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("study", ["fpr", "tpr", "perf"])
    def test_study_output_bytes_are_pinned(self, capsys, study, fmt):
        assert main(self.STUDIES[study] + ["--format", fmt]) == 0
        text = capsys.readouterr().out
        if study == "perf":
            text = self._untimed(text, fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256[study, fmt]


def test_import_loads_no_scipy_and_no_process_pool():
    # Every selectree process pays for what the CLI's import path loads: the
    # pivot needs only Phi and log Phi, and a serial study no process pool.
    code = (
        "import sys, selectree.cli, selectree.experiments;"
        "print(*sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert run.stdout.split() == []


def test_oracle_import_loads_no_mpmath():
    # mpmath is a test dependency: only the oracle's reference CDF loads it.
    code = (
        "import sys, selectree.oracle;"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert run.stdout.split() == []
