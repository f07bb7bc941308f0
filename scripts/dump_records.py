#!/usr/bin/env python3
"""Print every output byte the search stages produce on seeded instances.

For each seed the script builds five instances: a small random one (binary
or continuous Z, integer or Gaussian y, r = 1..4), a tie-heavy one (binary
Z, y in {-1, 0, 1}, r = 2..4), the criterion-5 shape (n=100, d=50, r=3,
sparsity 0.5), a sparse wide one (n=200, d=40, r=3, sparsity 0.9) and an
order-4 one (n=60, d=16, r=4).  Each runs with pruning on and off, and
prints one line per record:

- ``screen``: the selected itemsets, their scores as float.hex, then
  ``nodes_visited``, ``exact_scores`` and ``settled``;
- ``window``: per selected feature, the truncation window as float.hex,
  its active constraints, then ``nodes_visited`` and ``settled``;
- ``infer``: per selected feature, the pivot, p-value and CI as float.hex;
- ``error``: a typed error's class and message, where a stage raises one.

The work counters follow `` | `` at the end of a line; everything before
it must be the same with pruning on and off.  Two source trees give the
same bytes iff ``diff`` finds no line between their dumps:

    python scripts/dump_records.py --seeds 5 > new.txt
    python scripts/dump_records.py --seeds 5 --src ../other/src > old.txt
    diff old.txt new.txt
"""

import argparse
import sys
from pathlib import Path

import numpy as np


def _instances(seed, st):
    """(name, data, r, k, sigma) per instance of one seed."""
    Dataset, ex = st.itemsets.Dataset, st.experiments
    rng = np.random.default_rng(seed)
    n, d, r = int(rng.integers(5, 31)), int(rng.integers(2, 11)), int(rng.integers(1, 5))
    if rng.random() < 0.5:
        Z = (rng.random((n, d)) < rng.uniform(0.2, 0.8)).astype(np.float64)
    else:
        Z = rng.random((n, d))
    y = rng.integers(-3, 4, n).astype(np.float64) if rng.random() < 0.4 else rng.standard_normal(n)
    D = st.itemsets.total_feature_count(d, r)
    yield "random", Dataset(Z, y), r, int(rng.integers(1, min(5, D) + 1)), 1.0

    r = 2 + seed % 3
    n, d = int(rng.integers(6, 25)), int(rng.integers(r + 1, 9))
    Z = (rng.random((n, d)) < rng.uniform(0.3, 0.8)).astype(np.float64)
    y = rng.integers(-1, 2, n).astype(np.float64)
    yield "ternary", Dataset(Z, y), r, int(rng.integers(1, 5)), 1.0

    for name, shape in (
        ("criterion5", dict(n=100, d=50, r=3, k=10, sparsity=0.5)),
        ("sparse", dict(n=200, d=40, r=3, k=10, sparsity=0.9)),
        ("order4", dict(n=60, d=16, r=4, k=6, sparsity=0.5)),
    ):
        spec = ex.SyntheticSpec(sigma=0.1, seed=seed, **shape)
        yield name, ex.gen_synthetic(spec, 0), spec.r, spec.k, spec.sigma


def _constraint(ac):
    if ac is None:
        return "none"
    if ac.kind == "sign":
        return f"sign{ac.j}"
    return f"{ac.case}{ac.j}~{ac.ell}"


def _records(st, data, r, k, sigma, prune):
    """The lines of one instance at one pruning setting."""
    errors = (
        ValueError,  # SingularGramError is one
        st.inference.DegenerateTruncationError,
        st.inference.InternalConsistencyError,
    )
    tag = f"prune={int(prune)}"
    try:
        sel, sm = st.screening.marginal_screen(data, k, r, prune=prune)
    except errors as exc:
        yield f"error {tag} screen {type(exc).__name__}: {exc}"
        return
    yield (
        f"screen {tag} "
        + " ".join(f"{it}={float.hex(s)}" for it, s in zip(sel.selected, sel.scores))
        + f" | visited={sm.nodes_visited} exact={sm.exact_scores} settled={sm.settled}"
    )
    config = st.itemsets.ModelConfig(r=r, k=k, sigma=sigma)
    try:
        report = st.inference.infer(data, config, prune=prune, screened=(sel, sm))
    except errors as exc:
        yield f"error {tag} infer {type(exc).__name__}: {exc}"
        return
    for f in report.features:
        iv = f.interval
        lo, hi = iv.argmin_info
        yield (
            f"window {tag} {f.itemset} {float.hex(iv.v_minus)} {float.hex(iv.v_plus)} "
            f"{_constraint(lo)} {_constraint(hi)} | visited={iv.metrics.nodes_visited} "
            f"settled={iv.metrics.settled}"
        )
        yield (
            f"infer {tag} {f.itemset} pivot={float.hex(f.pivot)} p={float.hex(f.p_value)} "
            f"ci={float.hex(f.ci_low)},{float.hex(f.ci_high)}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seeds", type=int, default=5, help="seeds 0..N-1 (default 5)")
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src",
        help="the source tree holding the selectree package (default: this repo's src)",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(args.src))
    import selectree.experiments
    import selectree.inference
    import selectree.itemsets
    import selectree.screening

    st = selectree
    for seed in range(args.seeds):
        for name, data, r, k, sigma in _instances(seed, st):
            print(f"# seed={seed} {name} n={data.n} d={data.d} r={r} k={k}")
            for prune in (True, False):
                for line in _records(st, data, r, k, sigma, prune):
                    print(line)


if __name__ == "__main__":
    main()
