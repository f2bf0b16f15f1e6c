"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload classify --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --save perfbench/results/baseline.json

For every end-to-end metric (``--trace 0``) or per-layer metric
(``--trace 1``) it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the bound ``BENCHMARK.json`` fixes.  ``--save`` merges the rows,
the raw values and the environment stamp into a results file under the
workload's name; a later change quotes those rows as its "before".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env: "))[5:])
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="results file to merge the rows into")
    args = parser.parse_args()

    names = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
             else [args.workload])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    saved = {}
    for name in names:
        runs, env = [], None
        for seed in args.seeds:
            res, env = run_once(name, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **res})
            print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()), flush=True)
        rows = {}
        for key, m in runs[0]["metrics"].items():
            row = summarize([r["metrics"][key]["value"] for r in runs])
            row["unit"] = m["unit"]
            row["bound"] = bounds.get(key)
            rows[key] = row
            bound = f"{row['bound']:.3f}" if row["bound"] is not None else "-"
            print(f"{name}: {key:40s} median {row['median']:.6g} {row['unit']:6s} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.4f} "
                  f"bound {bound}", flush=True)
        saved[name] = {"trace": args.trace, "seconds": args.seconds, "seeds": args.seeds,
                       "all_correct": all(r["correct"] for r in runs),
                       "rows": rows, "runs": runs, "env": env}
    if args.save:
        path = Path(args.save)
        doc = json.loads(path.read_text()) if path.exists() else {}
        for name, entry in saved.items():
            doc.setdefault(f"trace{args.trace}", {})[name] = entry
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
