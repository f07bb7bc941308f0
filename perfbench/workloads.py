"""The three seeded workloads: inputs, one operation, and the correctness gate.

Every input comes from a counter-based Philox stream keyed by
(benchmark seed, workload id, instance index), the same construction as
``selectree.experiments.trial_rng``, so a seed names the inputs exactly and
instance ``i`` does not depend on how many instances a run gets through.
The program under test only ever sees the generated CSV files (``cli``
workloads) or the generated study specs (``null_study``).  The frozen
baseline package runs the same operations on the same inputs.
"""

from __future__ import annotations

import io
import json
import os
import types

import numpy as np


def stream(seed: int, workload_id: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(workload_id, index))
    return np.random.Generator(np.random.Philox(ss))


def write_csv(path: str, names: list[str], Z: np.ndarray, y: np.ndarray) -> None:
    """Covariates then the response, floats in shortest round-trip form."""
    binary = bool(np.all((Z == 0.0) | (Z == 1.0)))
    with open(path, "w") as fh:
        fh.write(",".join(names + ["y"]) + "\n")
        step = 4096
        for lo in range(0, Z.shape[0], step):
            rows = Z[lo:lo + step]
            cells = np.where(rows > 0, "1", "0").tolist() if binary else [
                [repr(v) for v in row] for row in rows.tolist()
            ]
            fh.write("".join(
                ",".join(row) + "," + repr(v) + "\n"
                for row, v in zip(cells, y[lo:lo + step].tolist())
            ))


class CliWorkload:
    """Operations are ``selectree.cli.main`` calls on generated CSV files."""

    entry_span = "cli.main"

    def __init__(self, st, workdir: str):
        self.st = st  # the selectree modules, by name
        self.workdir = workdir
        self.paths: list[str] = []

    def argv(self, path: str, out: str) -> list[str]:
        raise NotImplementedError

    def generate(self, seed: int, index: int):
        raise NotImplementedError

    def setup(self, seed: int, instances: int | None = None) -> None:
        count = self.instances if instances is None else instances
        self.paths = []
        for i in range(count):
            names, Z, y = self.generate(seed, i)
            path = os.path.join(self.workdir, f"{type(self).__name__}-{i}.csv")
            write_csv(path, names, Z, y)
            self.paths.append(path)

    def setup_like(self, other: "CliWorkload", seed: int) -> None:
        """Take ``other``'s input files instead of writing them again."""
        self.paths = list(other.paths)

    def entry(self):
        return self.st["cli"].main

    def op(self, i: int, main) -> tuple[bool, bytes]:
        """Run operation ``i`` through ``main``; returns (succeeded, output)."""
        out = os.path.join(self.workdir, "op-output")
        if os.path.exists(out):
            os.remove(out)
        code = main(self.argv(self.paths[self.instance_of(i)], out))
        if code != 0:
            return False, b""
        with open(out, "rb") as fh:
            return True, fh.read()

    def instance_of(self, i: int) -> int:
        return i % len(self.paths)


class WideSparse(CliWorkload):
    """``selectree infer`` with --sigma estimate on wide, sparse binary data."""

    name = "wide_sparse"
    workload_id = 1
    n, d, sparsity, noise = 400, 100, 0.9, 0.1
    instances = 32
    trace_ops = 3
    warm_shape = dict(d=40)

    def generate(self, seed, index):
        rng = stream(seed, self.workload_id, index)
        Z = (rng.random((self.n, self.d)) < 1.0 - self.sparsity).astype(np.float64)
        y = self.noise * rng.standard_normal(self.n)
        return [f"z{j}" for j in range(1, self.d + 1)], Z, y

    def argv(self, path, out):
        return ["infer", "--input", path, "--output", out, "--format", "json",
                "--order", "3", "--topk", "10"]

    def check(self, outputs: dict[int, bytes]) -> list[str]:
        errors = []
        for inst, data in outputs.items():
            path = os.path.join(self.workdir, "check-report.json")
            with open(path, "wb") as fh:
                fh.write(data)
            records = self.st["cli"].parse_report(path, "json")
            if len(records) != 10:
                errors.append(f"instance {inst}: {len(records)} records, expected 10")
            for rec in records:
                if not rec["v_minus"] <= rec["beta_hat"] <= rec["v_plus"]:
                    errors.append(f"instance {inst}: beta_hat outside [v_minus, v_plus]")
                if not 0.0 <= rec["p_value"] <= 1.0:
                    errors.append(f"instance {inst}: p_value {rec['p_value']} outside [0, 1]")
                if not rec["ci_low"] <= rec["ci_high"]:
                    errors.append(f"instance {inst}: ci_low > ci_high")
        return errors


class TallNoise(CliWorkload):
    """``selectree screen --binarize`` on a tall CSV with a pure-noise response."""

    name = "tall_noise"
    workload_id = 2
    n, d = 12_500, 20
    instances = 1
    trace_ops = 1
    warm_shape = dict(n=2000, d=4)
    k = 30

    def generate(self, seed, index):
        rng = stream(seed, self.workload_id, index)
        Z = rng.standard_normal((self.n, self.d))
        y = rng.standard_normal(self.n)
        return [f"x{j}" for j in range(1, self.d + 1)], Z, y

    def argv(self, path, out):
        return ["screen", "--binarize", "--input", path, "--output", out,
                "--format", "json", "--order", "3", "--topk", str(self.k)]

    def check(self, outputs: dict[int, bytes]) -> list[str]:
        cli, oracle, itemsets = self.st["cli"], self.st["oracle"], self.st["itemsets"]
        names, Z, y = cli.ingest_csv(self.paths[0])
        names, Z = cli.binarize_table(names, Z)
        data = itemsets.Dataset(Z, y)
        # The oracle reads one column at a time; a column-major copy of the
        # same floats gives it bit-identical columns several times faster.
        data = types.SimpleNamespace(Z=np.asfortranarray(data.Z), y=data.y, d=data.d)
        sel = oracle.oracle_screen(data, self.k, 3)
        expected = [
            ([names[i - 1] for i in it.indices], score, sign)
            for it, score, sign in zip(sel.selected, sel.scores, sel.signs)
        ]
        got = [
            (row["itemset"], row["score"], row["sign"])
            for row in json.loads(outputs[0])
        ]
        return [] if got == expected else ["screen top-k differs from oracle_screen"]


class NullStudy:
    """A one-trial false-positive study as ``selectree synth --trials 1``
    runs it, threads=1."""

    name = "null_study"
    workload_id = 3
    shape = dict(n=100, d=50, r=3, k=10, sparsity=0.5, sigma=0.1, alpha=0.05)
    trials = 1
    instances = 256
    trace_ops = 3
    warm_shape = dict(shape=dict(shape, d=12))
    entry_span = "experiments.run_fpr_study"

    def __init__(self, st, workdir: str):
        self.st = st
        self.workdir = workdir
        self.specs: list = []

    def setup(self, seed: int, instances: int | None = None) -> None:
        count = self.instances if instances is None else instances
        spec_cls = self.st["experiments"].SyntheticSpec
        self.specs = [
            spec_cls(seed=int(stream(seed, self.workload_id, i).integers(2**32)),
                     trials=self.trials, **self.shape)
            for i in range(count)
        ]

    def setup_like(self, other: "NullStudy", seed: int) -> None:
        """Build the same specs with this package's own spec class."""
        self.setup(seed, len(other.specs))

    def instance_of(self, i: int) -> int:
        return i % len(self.specs)

    def entry(self):
        return self.st["experiments"].run_fpr_study

    def op(self, i: int, study) -> tuple[bool, bytes]:
        ex = self.st["experiments"]
        summary = study(self.specs[self.instance_of(i)], threads=1)
        fh = io.StringIO()
        ex.write_rows_json(summary.to_rows() + [{"pivots": list(summary.pivots)}], fh)
        # A trial whose OLS or SPLIT fit is singular still completes: the
        # study reports it under "failures", inside the digested output.
        return True, fh.getvalue().encode()

    def check(self, outputs: dict[int, bytes]) -> list[str]:
        errors = []
        for inst, data in outputs.items():
            rows = json.loads(data)
            for row in rows[:-1]:
                if row["trials"] and not 0.0 <= row["rate"] <= 1.0:
                    errors.append(f"operation {inst}: {row['method']} rate {row['rate']}")
            if not all(0.0 <= p <= 1.0 for p in rows[-1]["pivots"]):
                errors.append(f"operation {inst}: pivot outside [0, 1]")
        # Pruning must not change a byte of the PSI report.
        inst = min(outputs)
        ex, cli, inference = self.st["experiments"], self.st["cli"], self.st["inference"]
        spec = self.specs[inst]
        data = ex.gen_synthetic(spec, 0)
        names = [f"z{j}" for j in range(1, spec.d + 1)]
        reports = []
        for prune in (True, False):
            try:
                report = inference.infer(data, spec.config(), prune=prune)
            except (inference.SingularGramError, inference.DegenerateTruncationError) as exc:
                reports.append(type(exc).__name__.encode())
                continue
            fh = io.StringIO()
            cli.emit_report(report, names, fh, "json")
            reports.append(fh.getvalue().encode())
        if reports[0] != reports[1]:
            errors.append(f"operation {inst}: prune=False changed the PSI report")
        return errors


WORKLOADS = {w.name: w for w in (WideSparse, TallNoise, NullStudy)}
