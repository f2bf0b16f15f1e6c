"""Record the exact reference outputs that ``check.py`` compares against.

Run once at the commit whose outputs are the reference (the benchmark's
seed commit), from the repository root:

    python3 perfbench/record_refs.py

It writes ``perfbench/ref/classify_pool.json`` (the classify pool and each
curve's pinned outputs, in order of the latency measured here)
and ``perfbench/ref/refs.json``.  Re-recording at a
later commit would make the exact checks compare that commit with itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from twotor import arithmetic, cli, real_density  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

# Each curve's latency is taken relative to a reference curve of middling cost
# timed right after it, and the median of LATENCY_REPEATS such ratios is kept.
# Machine speed on a shared host drifts by tens of percent over seconds; the
# ratio cancels much of it: two recordings ordered the pool with a rank
# correlation of 0.99 this way, against 0.96 for the least of three plain
# timings, so the strata drawn from the order depend less on when a curve
# happened to be timed.
LATENCY_REFERENCE = (622641, -49085983840)
LATENCY_REPEATS = 3


def run(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"reference op {argv} exited {rc}")
    return json.loads(out.getvalue())


def main() -> int:
    workloads.REF_DIR.mkdir(exist_ok=True)
    pool = workloads.generate_pool()
    refs, ratios = {}, {}
    for _ in range(LATENCY_REPEATS):
        for a, b in pool:
            t0 = time.perf_counter()
            refs[a, b] = check.classify_ref(run(["classify", str(a), str(b)]))
            t1 = time.perf_counter()
            run(["classify", *map(str, LATENCY_REFERENCE)])
            t2 = time.perf_counter()
            ratios.setdefault((a, b), []).append((t1 - t0) / (t2 - t1))
    latency = {key: statistics.median(r) for key, r in ratios.items()}
    # sorted by latency, so that workloads.classify_ops can sample by cost stratum
    curves = [refs[key] for key in sorted(pool, key=latency.get)]
    with open(workloads.REF_DIR / "classify_pool.json", "w") as fh:
        json.dump({"generator": workloads.WORKLOADS["classify"]["generator"],
                   "sieve_limit_after_pool": arithmetic._sieve.limit,
                   "curves": curves}, fh, separators=(",", ":"))
        fh.write("\n")

    census_argv = workloads.fixed_ops("census")[0]
    rep = run(census_argv)["report"]
    index_rows = run(["tails", "index", "--grid", "1e4,1e5", "--workers", "1"])["tails"]
    euler = run(["euler", "--family", "cubefree", "--tol", "0.01"])["euler"]
    quad = run(["real-density", "--method", "quad", "--z", "1e6"])["area"]
    refs = {
        "census": {"argv": census_argv, "cutoffs": rep["cutoffs"], "counts": rep["counts"],
                   "total_curves": rep["total_curves"]},
        "tails_index": {str(r["X"]): r["count"] for r in index_rows},
        "euler": {euler["family"]: {"tol": euler["tol"], "euler_product": euler["euler_product"]}},
        "lp_sweep_rows": len(run(["lp", "--sweep"])["rows"]),
        "real_density": {"z": quad["Z"], "quad": quad["value"],
                         "truncated": real_density.truncated_area_quadrature(quad["Z"])},
    }
    with open(workloads.REF_DIR / "refs.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
