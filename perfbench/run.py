"""selectree benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload wide_sparse --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``./src``.  With ``--trace 0`` the timed loop runs pairs of operations on the
same input, one by the package under test and one by the frozen copy of the
package in ``perfbench/baseline``, and the last stdout line carries the
end-to-end metrics (wall_ratio, setup_s, peak_rss_mb); with ``--trace 1`` it
carries the per-layer metrics of a separate traced run.  Earlier lines print
every metric by name and unit, the raw wall and CPU seconds, the failure
fraction, the output digest and the environment.  A full record (and, traced,
every span) is written under ``perfbench/.bench_out/``.  The exit code is non-zero when
any correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracer import Tracer  # stdlib only; workloads needs numpy and loads later

SETUPS = 3  # set-up is repeated and its median reported
MIN_OPS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("cli", "inference", "itemsets", "experiments", "oracle")
# Frozen copy of src/selectree (without the test-only oracle) taken when the
# benchmark was defined.  Machine speed on a shared host drifts by 20-30%
# over minutes; timing each operation against the same operation run by this
# copy right next to it cancels the drift.  Never edit it.
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline", "selectree")
BASELINE_MODULES = ("cli", "inference", "itemsets", "experiments")
LAYERS = ("bench", "cli", "screening", "inference", "experiments")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str, np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    task_dir = "/proc/self/task"
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "os_threads": len(os.listdir(task_dir)) if os.path.isdir(task_dir) else None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def time_imports(src: str) -> float:
    """Wall seconds for a fresh interpreter to import the package."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import selectree.cli, selectree.experiments"],
        env=env, check=True, timeout=120,
    )
    return time.perf_counter() - t0


def load_baseline() -> dict:
    """Import the frozen copy as the package ``selectree_baseline``."""
    spec = importlib.util.spec_from_file_location(
        "selectree_baseline", os.path.join(BASELINE, "__init__.py"),
        submodule_search_locations=[BASELINE],
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return {name: importlib.import_module(f"selectree_baseline.{name}")
            for name in BASELINE_MODULES}


def setup(wl, warm, seed: int, src: str) -> float:
    """One full set-up: imports, input generation and CSV writing, warm-up."""
    imports = time_imports(src)
    t0 = time.perf_counter()
    wl.setup(seed)
    warm.setup(seed, instances=1)
    ok, _ = warm.op(0, warm.entry())
    if not ok:
        raise RuntimeError("warm-up operation failed")
    return imports + (time.perf_counter() - t0)


def run_op(wl, i: int, entry, op_span=None):
    """One timed operation: (wall, cpu, ok, output).  Each starts on a
    collected heap, as a fresh ``selectree`` process would, so no operation
    pays for collecting the garbage of the one before it.  ``op_span``
    (``Tracer.op``) wraps the operation itself, not the collection."""
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        if op_span is None:
            ok, out = wl.op(i, entry)
        else:
            ok, out = op_span(i, lambda: wl.op(i, entry))
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        ok, out = False, b""
    return time.perf_counter() - w0, time.process_time() - c0, ok, out


class Outputs:
    """First output per instance; any repeat must match it byte for byte."""

    def __init__(self, wl):
        self.wl = wl
        self.first: dict[int, bytes] = {}
        self.repeats = 0
        self.errors: list[str] = []

    def add(self, i: int, ok: bool, out: bytes) -> None:
        if not ok:
            return
        inst = self.wl.instance_of(i)
        if inst not in self.first:
            self.first[inst] = out
            return
        self.repeats += 1
        if out != self.first[inst]:
            self.errors.append(f"instance {inst}: repeat output differs")

    def digest(self) -> str:
        """sha256 over the per-instance output digests, in instance order."""
        return hashlib.sha256(b"".join(
            hashlib.sha256(self.first[k]).hexdigest().encode() for k in sorted(self.first)
        )).hexdigest()


def measure(wl, ref, seconds: float, outputs):
    """Pairs of one operation by the package and the same operation by the
    baseline, in alternating order, until ``seconds`` have passed (at least
    MIN_OPS pairs).  Returns the package's walls and CPU times, the baseline's
    walls, the per-pair wall ratios and the failures of each side."""
    entry, ref_entry = wl.entry(), ref.entry()
    walls, cpus, ref_walls, ratios = [], [], [], []
    fails = ref_fails = 0
    t0 = time.perf_counter()
    i = 0
    while i < MIN_OPS or time.perf_counter() - t0 < seconds:
        if i % 2 == 0:
            wall, cpu, ok, out = run_op(wl, i, entry)
            ref_wall, _, ref_ok, _ = run_op(ref, i, ref_entry)
        else:
            ref_wall, _, ref_ok, _ = run_op(ref, i, ref_entry)
            wall, cpu, ok, out = run_op(wl, i, entry)
        walls.append(wall)
        cpus.append(cpu)
        ref_walls.append(ref_wall)
        fails += not ok
        ref_fails += not ref_ok
        if ok and ref_ok:
            ratios.append(wall / ref_wall)
        outputs.add(i, ok, out)
        i += 1
    return walls, cpus, ref_walls, ratios, fails, ref_fails


def traced(wl, seconds: float, modules: dict):
    """Rounds over the first ``trace_ops`` operations, each run untraced and
    traced in alternating order, while another round fits in ``seconds``."""
    tracer = Tracer()
    entry = wl.entry()
    traced_entry = tracer.span(wl.entry_span, entry)
    outputs = Outputs(wl)
    untraced, fails, rounds, attempted = [], 0, 0, 0
    round_counts = []
    t0 = time.perf_counter()
    while rounds < 1 or (time.perf_counter() - t0) * (rounds + 1) / rounds <= seconds:
        before = dict(tracer.counts)
        for j in range(wl.trace_ops):
            order = (False, True) if (rounds + j) % 2 == 0 else (True, False)
            for is_traced in order:
                attempted += 1
                if is_traced:
                    with tracer.active(modules):
                        _, _, ok, out = run_op(wl, j, traced_entry, tracer.op)
                else:
                    wall, _, ok, out = run_op(wl, j, entry)
                    untraced.append(wall)
                fails += not ok
                outputs.add(j, ok, out)
        round_counts.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
        rounds += 1
    if any(c != round_counts[0] for c in round_counts):
        outputs.errors.append("work counters differ between rounds of the same operations")
    return tracer, untraced, rounds, attempted, fails, outputs


def layer_metrics(tracer, untraced: list[float], rounds: int, ops_per_round: int) -> dict:
    """Per-operation means over every traced operation."""
    ops = rounds * ops_per_round
    total = tracer.totals()
    self_t = tracer.self_times()
    c = {k: v / rounds for k, v in tracer.counts.items()}  # per round, exact

    def per_op(name):
        return total.get(name, 0.0) / ops

    def ratio(a, b):
        return a / b if b else 0.0

    scr_nodes = c.get("screening.nodes_visited", 0)
    tr_nodes = c.get("inference.truncation_nodes_visited", 0)
    m = {
        "cli.ingest_s": (per_op("cli.ingest"), "s"),
        "cli.ingest_cells_per_s": (ratio(c.get("cli.ingest_cells", 0) * rounds, total.get("cli.ingest", 0.0)), "1/s"),
        "cli.binarize_s": (per_op("cli.binarize"), "s"),
        "cli.estimate_sigma_s": (per_op("cli.estimate_sigma"), "s"),
        "cli.emit_s": (per_op("cli.emit"), "s"),
        "screening.s": (per_op("screening.marginal_screen"), "s"),
        "screening.calls": (c.get("screening.calls", 0) / ops_per_round, "count"),
        "screening.nodes_visited": (scr_nodes / ops_per_round, "count"),
        "screening.visit_rate": (ratio(scr_nodes, c.get("screening.total_nodes", 0)), "ratio"),
        "screening.us_per_node": (ratio(1e6 * total.get("screening.marginal_screen", 0.0), scr_nodes * rounds), "us"),
        "inference.truncation_s": (per_op("inference.truncation"), "s"),
        "inference.truncation_calls": (c.get("inference.truncation_calls", 0) / ops_per_round, "count"),
        "inference.truncation_nodes_visited": (tr_nodes / ops_per_round, "count"),
        "inference.truncation_visit_rate": (ratio(tr_nodes, c.get("inference.truncation_total_nodes", 0)), "ratio"),
        "inference.truncation_us_per_visit": (ratio(1e6 * total.get("inference.truncation", 0.0), tr_nodes * rounds), "us"),
        "inference.contrast_s": (per_op("inference.contrast"), "s"),
        "inference.pivot_s": (per_op("inference.pivot"), "s"),
        "inference.cdf_calls": (c.get("inference.cdf_calls", 0) / ops_per_round, "count"),
        "inference.infer_self_s": (self_t.get("inference.infer", 0.0) / ops, "s"),
        "itemsets.feature_column_calls": (c.get("itemsets.feature_column_calls", 0) / ops_per_round, "count"),
        "experiments.gen_s": (per_op("experiments.gen"), "s"),
        "experiments.ols_s": (self_t.get("experiments.ols", 0.0) / ops, "s"),
        "experiments.split_s": (self_t.get("experiments.split", 0.0) / ops, "s"),
    }
    for layer in LAYERS:
        own = sum(v for k, v in self_t.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (own / ops, "s")
    traced_wall = per_op("bench.op")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (statistics.fmean(untraced), "s")
    m["trace.overhead_s"] = (traced_wall - statistics.fmean(untraced), "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "selectree", "__init__.py")):
        print(f"benchmark: no selectree sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    # Fixed before numpy loads BLAS: one thread, the same on every run.
    for key in BLAS_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, src)

    import numpy as np
    import scipy

    import workloads

    modules = {name: importlib.import_module(f"selectree.{name}") for name in MODULES}
    if not os.path.abspath(modules["cli"].__file__).startswith(src + os.sep):
        print(f"benchmark: selectree imported from {modules['cli'].__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".bench_out")
    workdir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "warm"), exist_ok=True)
    try:
        wl = cls(modules, workdir)
        warm = cls(modules, os.path.join(workdir, "warm"))
        vars(warm).update(cls.warm_shape)
        setups = [setup(wl, warm, args.seed, src) for _ in range(SETUPS)]

        if args.trace:
            tr, untraced, rounds, attempted, fails, outputs = traced(wl, args.seconds, modules)
            metrics = layer_metrics(tr, untraced, rounds, wl.trace_ops)
            spans = tr.dump()
            info = {}
        else:
            # Peak memory is read before the baseline loads, so it is the
            # package's own: set-up plus one full operation.
            outputs = Outputs(wl)
            _, _, ok, out = run_op(wl, 0, wl.entry())
            outputs.add(0, ok, out)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ref = cls(load_baseline(), os.path.join(workdir, "baseline"))
            os.makedirs(ref.workdir, exist_ok=True)
            ref.setup_like(wl, args.seed)
            if not run_op(ref, 0, ref.entry())[2]:
                raise RuntimeError("baseline warm-up operation failed")
            walls, cpus, ref_walls, ratios, fails, ref_fails = measure(
                wl, ref, args.seconds, outputs)
            attempted = len(walls)
            if not ratios:
                raise RuntimeError("no pair of operations succeeded on both sides")
            metrics = {
                "wall_ratio": (statistics.median(ratios), "ratio"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            info = {
                "wall_s": (statistics.median(walls), "s"),
                "cpu_s": (statistics.median(cpus), "s"),
                "baseline_wall_s": (statistics.median(ref_walls), "s"),
                "pairs": (len(ratios), "count"),
                "baseline_failed": (ref_fails, "count"),
            }
            spans = None

        if outputs.repeats == 0 and outputs.first:
            # Every run checks at least one repeat for byte identity.
            inst = min(outputs.first)
            _, _, ok, out = run_op(wl, inst, wl.entry())
            outputs.add(inst, ok, out)
        errors = list(outputs.errors)
        if not outputs.first:
            errors.append("no operation succeeded")
        else:
            errors += wl.check(outputs.first)
        env = environment(root, np, scipy)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not errors
    for err in errors:
        print(f"benchmark: check failed: {err}", file=sys.stderr)
    digest = outputs.digest()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_s_each": setups,
        "output_digest": digest,
        "instances": len(outputs.first),
        "repeats_checked": outputs.repeats,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not args.trace:
        record["info"] = {k: {"value": v, "unit": u} for k, (v, u) in info.items()}
        record["ops"] = {"wall_s": walls, "cpu_s": cpus, "baseline_wall_s": ref_walls,
                         "wall_ratio": ratios}
    else:
        record["spans"] = spans
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"output_digest {digest} over {len(outputs.first)} instances, "
          f"{outputs.repeats} repeats checked")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} fail_frac {fails / attempted:.6g} ratio ({fails}/{attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": fails,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
