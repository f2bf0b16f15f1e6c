"""Batch front end: subcommands wiring configs to the library modules.

Every run emits a report plus a manifest (subcommand, config echo, seed,
wall time, version, config hash) so outputs are self-describing.  JSON goes
to stdout by default; --out picks CSV or JSON by file extension.  CSV files
carry the manifest in '#'-prefixed comment lines above the header row.
JSON reports are written by ``_write``, one recursive writer whose bytes are
those of ``json.dumps(report, indent=2, sort_keys=True)``, the tests' oracle.
It writes the types a report holds and hands json any other value, a path no
report may take: json's indent encoder is pure Python, twice the cost, and
leaves a reference cycle per call.  A CSV report builds no JSON text.

Exit codes: 0 success, 2 configuration error, 3 internal check failure
(an oracle disagreement; never silently swallowed).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__ as _VERSION
from . import arithmetic as ar
from . import census
from . import curve_core as cc
from . import local_density
from . import lp_bounds
from . import real_density


class ConfigError(ValueError):
    pass


class OracleMismatch(AssertionError):
    """A cross-check between two independent computations failed."""


# ---------------------------------------------------------------------------
# Manifest and serialization.
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    seed: Optional[int]
    wall_time_s: float
    version: str
    input_hashes: dict


def _canonical_config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in sorted(cfg.items())}


def _build_manifest(args: argparse.Namespace, wall_time_s: float) -> RunManifest:
    cfg = _canonical_config(args)
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return RunManifest(
        subcommand=args.subcommand,
        config=cfg,
        seed=getattr(args, "seed", None),
        wall_time_s=wall_time_s,
        version=_VERSION,
        input_hashes={"config_sha256": hashlib.sha256(blob.encode()).hexdigest()},
    )


def _encode(x):
    """The values of a report that JSON has no type for, as values it has.

    ``_write`` sends anything that is not a str, number, bool, None, list,
    tuple or dict here, and writes what comes back in its place.
    """
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: getattr(x, f.name) for f in fields(x)}  # nested ones come back here
    if hasattr(x, "item"):  # numpy scalar
        return x.item()
    return str(x)


_quote = json.encoder.encode_basestring_ascii


def _write(o, append, newline: str) -> None:
    """Append the JSON text of ``o`` to a report, in pieces, through ``append``.

    The text is byte for byte ``json.dumps(o, indent=2, sort_keys=True,
    default=_encode)``.  ``newline`` is the line break and indent of o's own
    line; o's items go one level deeper.  A report is a tree, so there is no
    check for cycles.  Written here are the exact types a report holds (str,
    int, finite float, None, bool, list, tuple, dicts keyed by str) and what
    ``_encode`` maps.  Any other JSON value (a subclass of those types, NaN
    or +-inf, a dict keyed by int, float, bool or None) is handed to json
    whole.  No report may take that path: json's indent encoder is pure
    Python, twice the cost, and leaves a reference cycle on every call, which
    keeps the text alive until the cyclic GC runs.
    """
    t = type(o)
    if t is str:
        append(_quote(o))
    elif t is int:
        append(int.__repr__(o))  # past 4300 digits: ValueError, as in json
    elif t is dict and o and isinstance((items := sorted(o.items()))[0][0], str):
        # json's order, on the keys as given; a str sorts against str alone
        inner = newline + "  "
        sep = "{" + inner
        for key, value in items:
            append(sep)
            append(_quote(key))
            append(": ")
            sep = "," + inner
            _write(value, append, inner)
        append(newline)
        append("}")
    elif (t is list or t is tuple) and o:
        inner = newline + "  "
        sep = "[" + inner
        for value in o:
            append(sep)
            sep = "," + inner
            _write(value, append, inner)
        append(newline)
        append("]")
    elif t is float and o - o == 0.0:  # finite: inf - inf and NaN - NaN are NaN
        append(float.__repr__(o))
    elif o is None:
        append("null")
    elif o is True or o is False:
        append("true" if o else "false")
    elif (t is dict or t is list or t is tuple) and not o:
        append("{}" if t is dict else "[]")
    elif isinstance(o, (str, int, float, list, tuple, dict)):
        append(json.dumps(o, indent=2, sort_keys=True, default=_encode).replace("\n", newline))
    else:
        _write(_encode(o), append, newline)


def _emit(out: Optional[str], manifest: RunManifest, scalars: dict,
          header: list, rows: list, payload: dict) -> None:
    if out is None or out.endswith(".json"):
        chunks = []
        _write({"manifest": manifest, **payload}, chunks.append, "\n")
        chunks.append("\n")
        if out is None:
            sys.stdout.write("".join(chunks))
        else:
            Path(out).write_text("".join(chunks))
        return
    import csv  # here, not at import: no JSON report needs it

    buf = io.StringIO()
    for key in ("subcommand", "version", "seed"):
        buf.write(f"# {key}: {getattr(manifest, key)}\n")
    cfg_blob = json.dumps(manifest.config, sort_keys=True, separators=(",", ":"))
    buf.write(f"# config: {cfg_blob}\n")
    buf.write(f"# config_sha256: {manifest.input_hashes['config_sha256']}\n")
    buf.write(f"# wall_time_s: {manifest.wall_time_s!r}\n")
    for k, v in scalars.items():
        buf.write(f"# {k}: {v}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(x) for x in row])
    Path(out).write_text(buf.getvalue())


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (scalars, header, rows, payload).
# ---------------------------------------------------------------------------


def _cmd_classify(args):
    red = cc.reduction(cc.CurveParams(args.a, args.b))
    m = red.minimal
    c4, c6 = cc.c_invariants(m)
    inv = {
        "a": args.a,
        "b": args.b,
        "minimal_a": m.a,
        "minimal_b": m.b,
        "delta": cc.discriminant(m),
        "cond_poly": cc.conductor_polynomial(m),
        "c4": c4,
        "c6": c6,
        "in_family": cc.in_family(m),
        "conductor": red.conductor,
        "index_prime_to_6": red.index_6,
    }
    # the ratios divide by the log of the prime-to-6 conductor: it must exceed 1
    if red.conductor_6 > 1:
        inv["szpiro_ratio"] = red.szpiro_ratio()
        inv["avg_szpiro"] = red.avg_szpiro()

    header = ["p", "v_a", "v_b", "v_c", "v_disc", "v_disc_min",
              "symbol", "conductor_exponent"]
    local = [{k: str(r.symbol) if k == "symbol" else getattr(r, k) for k in header}
             for r in red.local]
    rows = [list(row.values()) for row in local]
    return inv, header, rows, {"invariants": inv, "local": local}


_FAMILY_NAMES = {family.lower(): family for family in local_density.FAMILIES}
_ORDER_NAMES = {"condpoly": "CondPoly", "conductor": "Conductor"}


def _parse_bound(text: str) -> int:
    """An integral height bound >= 1, written 10000 or 1e4, parsed exactly."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ConfigError(f"bad bound {text!r}") from None
    # the int64 cap also keeps int() from expanding an exponent such as 1e999999999
    if not value.is_finite() or value != value.to_integral_value() or value >= 1 << 63:
        raise ConfigError(f"bound {text!r} is not an integer below 2^63")
    if value < 1:
        raise ConfigError(f"bound {text!r} is below 1")
    return int(value)


def _finite_float(text: str) -> float:
    """A float that is neither nan nor +-inf: NaN passes every range check."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_grid(text: Optional[str]) -> Optional[tuple]:
    if text is None:
        return None
    return tuple(_parse_bound(tok) for tok in text.split(","))


def _cmd_census(args):
    config = census.CensusConfig(
        X=_parse_bound(args.x),
        family=_FAMILY_NAMES[args.family.lower()],
        kappa=args.kappa,
        order_by=_ORDER_NAMES[args.order_by.lower()],
        index_cap=args.index_cap,
        good_reduction_filter=not args.all_residues,
        workers=args.workers,
    )
    report = census.run_census(
        config, cutoffs=_parse_grid(args.grid), euler_tol=args.euler_tol
    )
    tails_text = ";".join(f"{k}={report.tails[k]}" for k in sorted(report.tails))
    header = ["X", "count", "predicted", "ratio", "tails"]
    rows = [
        [x, n, pred, ratio, tails_text]
        for x, n, pred, ratio in zip(
            report.cutoffs, report.counts, report.predicted, report.ratios)
    ]
    anomalies, oracle = report.anomalies, report.anomalies["predicate_oracle_2_3"]
    scalars = {"total_curves": report.total_curves,
               "out_of_list_symbols": anomalies["out_of_list_symbols"],
               "index_cap_overflow": anomalies["index_cap_overflow"],
               "predicate_oracle_2_3.family_curves": oracle["family_curves"],
               "predicate_oracle_2_3.bad_at_2": oracle["bad_at_2"]}
    return scalars, header, rows, {"report": report}


_CLASS_CHOICES = ("Good", "III", "I0*", "III*", "semistable")


def _cmd_local_density(args):
    cls = args.klass
    k = args.k
    closed = local_density.density_kodaira(args.p, cls, k)
    row = {"p": args.p, "class": cls, "k": k, "density": closed}
    if args.check:
        empirical = local_density.density_empirical(args.p, args.m, cls, k)
        row["empirical"] = empirical
        row["match"] = empirical == closed
        if empirical != closed:
            raise OracleMismatch(
                f"density mismatch at p={args.p} {cls}: "
                f"closed {closed} vs counted {empirical}")
    header = list(row)
    return {}, header, [list(row.values())], {"density": row}


def _cmd_real_density(args):
    if args.method == "closed":
        value, err = real_density.area_closed_form(args.z), 0.0
    elif args.method == "quad":
        value, err = real_density.area_quadrature(args.z, args.tol), args.tol
    else:
        value, err = real_density.area_monte_carlo(args.z, args.samples, args.seed)
    row = {"method": args.method, "Z": args.z, "value": value, "error": err}
    return {}, list(row), [list(row.values())], {"area": row}


def _cmd_lp(args):
    rows = (lp_bounds.sweep_grid() if args.sweep
            else lp_bounds.sweep_grid([args.delta], [args.r]))
    header = ["delta", "r", "certificate", "simplex", "match"]
    payload = {"rows": [dict(zip(header, r)) for r in rows]}
    if not all(r[4] for r in rows):
        raise OracleMismatch("simplex optimum disagrees with the certificate value")
    return {}, header, [list(r) for r in rows], payload


def _cmd_tails(args):
    grid = _parse_grid(args.grid) or (_parse_bound(args.x),)
    if args.kind == "index":
        counts = census.tail_counts_index(grid, args.delta, workers=args.workers)
        params = f"delta={args.delta}"
    else:
        counts = census.tail_counts_szpiro(grid, args.theta, args.kappa,
                                           workers=args.workers)
        params = f"theta={args.theta};kappa={args.kappa}"
    rows = [[args.kind, X, params, n, n / X**0.75] for X, n in zip(grid, counts)]
    header = ["kind", "X", "params", "count", "count_over_X34"]
    payload = {"tails": [dict(zip(header, r)) for r in rows]}
    return {}, header, rows, payload


def _cmd_euler(args):
    family = _FAMILY_NAMES[args.family.lower()]
    tol = args.tol if args.tol is not None else local_density.DEFAULT_TOL
    product, cutoff = local_density.euler_product(family, tol)
    dirichlet, dcutoff = local_density.dirichlet_index_sum(family, tol)
    row = {
        "family": family,
        "tol": tol,
        "euler_product": product,
        "product_cutoff": cutoff,
        "dirichlet_index_sum": dirichlet,
        "dirichlet_cutoff": dcutoff,
        "mt1_constant": local_density.MT1_PREFACTOR * product,
    }
    return {}, list(row), [list(row.values())], {"euler": row}


# ---------------------------------------------------------------------------
# Parser and dispatch.
# ---------------------------------------------------------------------------


def _out_path(text: str) -> str:
    """An --out path; its suffix picks the format, so it is checked before any work."""
    if not text.endswith((".csv", ".json")):
        raise argparse.ArgumentTypeError(f"must end in .csv or .json: {text!r}")
    return text


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built at the first call.

    It holds no per-call state, so every ``main`` call reuses it: a parse
    makes a fresh namespace from the fixed defaults, and help width and
    stderr are read when a message is printed.
    """
    parser = argparse.ArgumentParser(
        prog="twotor",
        description="Census and verification tools for y^2 = x(x^2+ax+b).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=_out_path,
                        help="output file (.csv or .json); default JSON to stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("classify", help="invariants and per-prime reduction table")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.set_defaults(func=_cmd_classify)

    p = add("census", help="count curves against the X^{3/4} prediction")
    p.add_argument("--x", required=True, help="height bound, e.g. 1e6")
    p.add_argument("--family", default="condpoly",
                   choices=sorted(_FAMILY_NAMES) + sorted(_FAMILY_NAMES.values()))
    p.add_argument("--kappa", type=_finite_float, default=None)
    p.add_argument("--order-by", default="condpoly", dest="order_by",
                   choices=sorted(_ORDER_NAMES) + sorted(_ORDER_NAMES.values()))
    p.add_argument("--index-cap", type=int, default=10**4, dest="index_cap")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--grid", help="comma-separated cutoffs, e.g. 1e4,1e5,1e6")
    p.add_argument("--euler-tol", type=_finite_float, default=None, dest="euler_tol")
    p.add_argument("--all-residues", action="store_true",
                   help="disable the good-reduction residue filter")
    p.set_defaults(func=_cmd_census)

    p = add("local-density", help="closed-form vs counted p-adic density")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--class", dest="klass", required=True, choices=_CLASS_CHOICES)
    p.add_argument("--k", type=int, default=None,
                   help="index power for semistable, 1 <= k <= 10000")
    p.add_argument("--m", type=int, default=None,
                   help="grid exponent, with p^(2m) <= 2e9; "
                        "default the smallest the class needs")
    p.add_argument("--check", action="store_true",
                   help="also count residues and compare exactly")
    p.set_defaults(func=_cmd_local_density)

    p = add("real-density", help="archimedean area constant")
    p.add_argument("--z", type=_finite_float, default=1.0)
    p.add_argument("--method", choices=("closed", "quad", "mc"), default="closed")
    p.add_argument("--tol", type=_finite_float, default=1e-8)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_real_density)

    p = add("lp", help="exponent LP certificates and simplex check")
    p.add_argument("--delta", type=_fraction, default=Fraction(0))
    p.add_argument("--r", type=_fraction, default=Fraction(0))
    p.add_argument("--sweep", action="store_true", help="run the default (delta, r) grid")
    p.set_defaults(func=_cmd_lp)

    p = add("tails", help="large-index and large-Szpiro tail counts")
    p.add_argument("kind", choices=("index", "szpiro"))
    p.add_argument("--x", default="1e4", help="height bound (ignored with --grid)")
    p.add_argument("--grid", help="comma-separated bounds, e.g. 1e4,1e5")
    p.add_argument("--delta", type=_finite_float, default=0.1)
    p.add_argument("--theta", type=_finite_float, default=0.25)
    p.add_argument("--kappa", type=_finite_float, default=2.2)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_tails)

    p = add("euler", help="Euler products and the leading constant")
    p.add_argument("--family", default="condpoly",
                   choices=sorted(_FAMILY_NAMES) + sorted(_FAMILY_NAMES.values()))
    p.add_argument("--tol", type=_finite_float, default=None,
                   help="bound on |log(computed/true product)|; default 1e-12")
    p.set_defaults(func=_cmd_euler)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    start = time.perf_counter()
    try:
        scalars, header, rows, payload = args.func(args)
    except (ConfigError, ValueError, real_density.QuadratureError,
            ar.FactoringBudgetError) as e:
        print(f"twotor: config error: {e}", file=sys.stderr)
        return 2
    except (AssertionError, cc.ClassificationError) as e:
        print(f"twotor: internal check failed: {e}", file=sys.stderr)
        return 3
    wall_time_s = time.perf_counter() - start

    try:
        _emit(args.out, _build_manifest(args, wall_time_s), scalars, header, rows, payload)
    except OSError as e:
        print(f"twotor: config error: cannot write {args.out}: {e.strerror or e}",
              file=sys.stderr)
        return 2
    except ValueError as e:  # an integer past Python's int-to-str digit limit
        print(f"twotor: config error: cannot print the report: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
