"""One job: import twotor.cli in a fresh process and run an op list through main().

Reads ``{"ops": [...], "mode": "plain" | "trace" | "profile", "spans": path}``
as JSON on stdin and writes one JSON document to stdout when done:

- ``setup_s``: time of ``import twotor.cli``, scaled to reference host
  speed (``hostspeed.py``); ``setup_wall_s`` is the same interval unscaled.
- ``job_s``: start of the first op to the end of the last op, scaled;
  ``job_wall_s`` unscaled.
- ``kernel_median_s``: the sampler kernel's median duration in this process.
- ``peak_rss_kib``: this process's peak resident memory (``ru_maxrss``).
- ``ops``: per op its wall start and end, its scaled latency, exit code,
  captured stdout/stderr and any exception the op raised.
- ``trace`` (mode "trace"): per-layer metrics (times scaled like
  ``job_s``), wrapper call counts and whether every wrapper was removed
  again; spans are written to ``spans``.
- ``profile`` (mode "profile"): cProfile ``ncalls`` for the functions the
  trace would wrap.

Run by ``run.py``; the program is imported from ``src/`` of the checkout.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import hostspeed  # noqa: E402


def _run_ops(cli, ops, sampler, before_op=None):
    """Run the ops through ``cli.main``; the sampler is stopped when the last op ends."""
    results = []
    for i, argv in enumerate(ops):
        if before_op is not None:
            before_op(i)
        out, err = io.StringIO(), io.StringIO()
        exc = None
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as e:  # an op that raises is a failed op, not a failed job
            exc = f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        results.append({"argv": argv, "t0": t0, "t1": t1, "rc": rc, "exc": exc,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    sampler.stop()
    return results


def main() -> int:
    req = json.load(sys.stdin)
    mode = req.get("mode", "plain")
    sys.path.insert(0, str(ROOT / "src"))

    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        import twotor.cli as cli
        t1 = time.perf_counter()
    except BaseException:
        sampler.stop()
        raise

    doc = {}
    ops = req["ops"]
    if mode == "trace":
        import tracer

        rec = tracer.Recorder()
        rec.install()
        try:
            results = _run_ops(cli, ops, sampler, before_op=rec.set_op)
        finally:
            rec.uninstall()
        doc["trace"] = {
            "metrics": rec.layer_metrics(ops, sampler.clock),
            "calls": rec.call_counts(),
            "wrappers_removed": rec.verify_removed(),
        }
        if req.get("spans"):
            rec.dump(req["spans"])
    elif mode == "profile":
        import cProfile
        import pstats

        import tracer

        prof = cProfile.Profile()
        prof.enable()
        try:
            results = _run_ops(cli, ops, sampler)
        finally:
            prof.disable()
        doc["profile"] = tracer.profile_ncalls(pstats.Stats(prof))
    else:
        results = _run_ops(cli, ops, sampler)

    scaled = (sampler.clock([op["t1"] for op in results])
              - sampler.clock([op["t0"] for op in results]))
    for op, scaled_s in zip(results, scaled.tolist()):
        op["scaled_s"] = scaled_s
    doc["ops"] = results
    doc["setup_s"] = sampler.scaled(t0, t1)
    doc["setup_wall_s"] = t1 - t0
    if results:
        doc["job_s"] = sampler.scaled(results[0]["t0"], results[-1]["t1"])
        doc["job_wall_s"] = results[-1]["t1"] - results[0]["t0"]
    else:
        doc["job_s"] = doc["job_wall_s"] = 0.0
    doc["kernel_median_s"] = sampler.kernel_median_s()
    doc["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
