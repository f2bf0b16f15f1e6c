"""Correctness checks for op outputs; a failed check counts the op as failed.

Outputs that ROADMAP guardrails pin are compared exactly with references
recorded at the seed commit (``ref/``): census CondPoly counts and
``total_curves``, index tail counts, the LP optimum against its
certificate, and for each classify op the minimal pair, the conductor
polynomial, the Tate conductor and the per-prime symbols and exponents.

Outputs that are expected to change by convention (Szpiro tails, averaged
Szpiro ratios, Euler constants, quadrature and Monte Carlo areas) are only
checked by invariants and brackets, so a correct fix is not a failure.
"""

from __future__ import annotations

import json
import math

import workloads

# Monte Carlo estimates must sit within this many standard errors of the
# recorded truncated area (a 6-sigma miss has probability about 2e-9).
MC_SIGMAS = 6.0


def load_refs() -> dict:
    with open(workloads.REF_DIR / "refs.json") as fh:
        refs = json.load(fh)
    refs["classify"] = {(e[0], e[1]): e for e in workloads.load_pool()}
    return refs


def _finite_pos(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) and x > 0


def _frac(d) -> tuple:
    return d["num"], d["den"]


def classify_ref(doc: dict) -> list:
    """The exactly pinned part of a classify report, in pool-entry layout."""
    inv = doc["invariants"]
    local = [[r["p"], r["symbol"], r["conductor_exponent"]] for r in doc["local"]]
    return [inv["a"], inv["b"], inv["minimal_a"], inv["minimal_b"], inv["cond_poly"],
            inv["conductor"], local]


def _check_classify(argv, doc, refs):
    key = (int(argv[1]), int(argv[2]))
    ref = refs["classify"].get(key)
    if ref is None:
        return f"no reference for curve {key}"
    got = classify_ref(doc)
    if got != ref:
        return f"classify {key}: got {got}, reference {ref}"
    inv = doc["invariants"]
    for k in ("szpiro_ratio", "avg_szpiro"):
        if not _finite_pos(inv.get(k)):
            return f"classify {key}: {k} = {inv.get(k)!r} is not a finite positive ratio"
    return None


def _check_census(argv, doc, refs):
    ref = refs["census"]
    if argv != ref["argv"]:
        return f"no reference for {argv}"
    rep = doc["report"]
    for k in ("cutoffs", "counts", "total_curves"):
        if rep[k] != ref[k]:
            return f"census {k}: got {rep[k]}, reference {ref[k]}"
    if not all(_finite_pos(x) for x in rep["predicted"] + rep["ratios"]):
        return "census: predicted counts or ratios are not finite positive numbers"
    return None


def _check_tails(argv, doc, refs):
    kind = argv[1]
    for row in doc["tails"]:
        X, n = row["X"], row["count"]
        if not isinstance(n, int) or n < 0:
            return f"tails {kind} X={X}: count {n!r}"
        if not math.isclose(row["count_over_X34"], n / X**0.75, rel_tol=1e-12):
            return f"tails {kind} X={X}: count_over_X34 is not count / X^(3/4)"
        if kind == "index":
            want = refs["tails_index"].get(str(X))
            if want is None:
                return f"no index tail reference at X={X}"
            if n != want:
                return f"tails index X={X}: got {n}, reference {want}"
    return None


def _check_euler(argv, doc, refs):
    row = doc["euler"]
    ref = refs["euler"].get(row["family"])
    if ref is None or row["tol"] != ref["tol"]:
        return f"no Euler reference for {row['family']} at tol {row['tol']}"
    tol, want, got = ref["tol"], ref["euler_product"], row["euler_product"]
    # today's truncated product, widened by its tail bound (sum |f_p - 1| <= tol)
    if not want * math.exp(-tol) <= got <= want * math.exp(tol):
        return f"euler product {got} outside {want} * exp(+-{tol})"
    if not math.isclose(row["dirichlet_index_sum"], got, rel_tol=1e-9):
        return f"dirichlet sum {row['dirichlet_index_sum']} != euler product {got}"
    if not _finite_pos(row["mt1_constant"]) or not _finite_pos(row["mt1_constant"] / got):
        return f"mt1 constant {row['mt1_constant']!r} is not finite positive"
    return None


def _check_lp(argv, doc, refs):
    rows = doc["rows"]
    if len(rows) != refs["lp_sweep_rows"]:
        return f"lp sweep: {len(rows)} rows, reference {refs['lp_sweep_rows']}"
    for r in rows:
        if _frac(r["certificate"]) != _frac(r["simplex"]) or r["match"] is not True:
            return f"lp: simplex {r['simplex']} != certificate {r['certificate']}"
    return None


def _check_real_density(argv, doc, refs):
    area = doc["area"]
    ref = refs["real_density"]
    if area["Z"] != ref["z"]:
        return f"no real-density reference at Z={area['Z']}"
    if area["method"] == "quad":
        budget = 2 * area["error"] * area["Z"] ** 0.75
        if not abs(area["value"] - ref["quad"]) <= budget:
            return (f"quadrature area {area['value']} differs from {ref['quad']} "
                    f"by more than {budget}")
    elif area["method"] == "mc":
        if not _finite_pos(area["error"]):
            return f"Monte Carlo error {area['error']!r}"
        if not abs(area["value"] - ref["truncated"]) <= MC_SIGMAS * area["error"]:
            return (f"Monte Carlo area {area['value']} is more than {MC_SIGMAS} standard "
                    f"errors from the truncated area {ref['truncated']}")
    else:
        return f"no check for method {area['method']}"
    return None


_CHECKS = {
    "classify": _check_classify,
    "census": _check_census,
    "tails": _check_tails,
    "euler": _check_euler,
    "lp": _check_lp,
    "real-density": _check_real_density,
}


def check_op(argv: list, rc, exc, stdout: str, refs: dict):
    """None when the op succeeded with a correct output, else the reason it failed."""
    if exc is not None:
        return f"raised {exc}"
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        return f"output is not JSON: {e}"
    if doc.get("manifest", {}).get("subcommand") != argv[0]:
        return "manifest names another subcommand"
    check = _CHECKS.get(argv[0])
    if check is None:
        return f"no correctness check for {argv[0]}"
    try:
        return check(argv, doc, refs)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return f"malformed output: {type(e).__name__}: {e}"
