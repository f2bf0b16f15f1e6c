"""Scalar reference implementations the census sweep is checked against.

These are the per-column and per-curve versions of what ``census`` does a
block at a time: the interval ends of one a-column by exact integer square
roots, the region enumerated pair by pair, one block's (a, b) pairs
expanded from a full residue mask and sorted, the whole record table of a
sweep that the census reduces block by block, as one structured array with
every I* row formatted as its Kodaira symbol (the census keeps plain
columns and formats only the examples it prints), and one census record
computed from two factorizations.  The truncated real slice length, which
``real_density`` computes for a whole array of x by inclusion-exclusion, is
here as an interval list at one x, and the region itself as a pointwise
test.  The lattice count of the truncated region, which checks the area
constant on integer pairs, sweeps the census's blocks with a residue table,
and the two slice integrals behind the stored constants are taken with the
package's own quadrature.  The simplex that ``lp_bounds`` runs on an
integer tableau is here as the same two-phase Bland's-rule simplex in
Fractions, its integer feasibility check as Fraction sums, row by row, and
the objective c.x as a Fraction sum.  The zeta tail of the Euler products,
which ``local_density`` sums from a table of logs, is here as mpmath's zeta
at the primes themselves, and the vectorised Euler factors as the exact
q-coefficients at one prime.
``arithmetic.is_prime``, which sizes its Miller-Rabin witness set to n, is
here with all 13 witnesses for every n above the SPF table.  The float64
trial-division step of ``arithmetic._trial_hits`` is here as an int64
remainder, and step 6 of Tate's algorithm at 2 and 3, which ``curve_core``
takes in closed form, as a search over the translations (0, s, t).  The
2-isogeny (a, b) -> (-2a, a^2 - 4b), which ``curve_core`` uses only inside
its discriminants, is here as a map of curves, and good reduction at 2 and 3,
which the Szpiro tail sweeps as residue classes mod 384, as a predicate on
(a, b).
Gamma(1/4), g = Gamma(1/4)^2 / (4 sqrt(pi)) and the two slice integrals
behind ``_constants.AREA_CONST``, which no CLI path reads, are here as
float constants.
They are slow and simple on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import isqrt, sqrt
from typing import Callable, Iterator, Optional

import mpmath
import numpy as np

from twotor import arithmetic as ar
from twotor import curve_core as cc
from twotor import local_density as ld
from twotor import real_density as rd
from twotor._constants import SQRT2
from twotor.census import (_MAX_Z, _block_intervals, _block_pairs, _blocks, _census_records,
                           _sweep_block)
from twotor.curve_core import CurveParams, kodaira_symbol_large_p
from twotor.lp_bounds import LinearProgram, LPInfeasibleError, LPUnboundedError

# Gamma(1/4), a float literal of its 50-digit value like _constants.AREA_CONST,
# and the constants built from it that only the tests read.
GAMMA_QUARTER = 3.625609908221908

# g = Gamma(1/4)^2 / (4 sqrt(pi)), the lemniscatic building block of the areas.
_G = 1.8540746773013719

# Slice-length integrals of the region |y(x^2 - y)| <= Z after rescaling:
#   CENTER_INTEGRAL = int_0^1 sqrt(z^4 + 1) dz              = (sqrt2 + g) / 3
#   TAIL_INTEGRAL   = int_1^inf sqrt(z^4+1) - sqrt(z^4-1) dz = (-sqrt2 + (1+sqrt2) g) / 3
CENTER_INTEGRAL = (SQRT2 + _G) / 3.0
TAIL_INTEGRAL = (-SQRT2 + (1.0 + SQRT2) * _G) / 3.0

# per-curve record: (a, b, |cond poly|, conductor, prime-to-6 index, cube-free flag)
Record = tuple[int, int, int, int, int, bool]
# The same record as a row of the tests' structured tables.
RECORD_DTYPE = np.dtype([("a", np.int64), ("b", np.int64), ("cond_poly", np.int64),
                         ("conductor", np.int64), ("index_6", np.int64), ("cubefree", np.bool_)])


def _nudge_down(f: Callable[[int], bool], b: int) -> int:
    """Largest b' <= b + 8 with f true, assuming f true somewhere near b."""
    for _ in range(8):
        if f(b + 1):
            b += 1
        else:
            break
    for _ in range(8):
        if f(b):
            return b
        b -= 1
    raise AssertionError("interval endpoint drifted by more than the nudge budget")


def _nudge_up(f: Callable[[int], bool], b: int) -> int:
    for _ in range(8):
        if f(b - 1):
            b -= 1
        else:
            break
    for _ in range(8):
        if f(b):
            return b
        b += 1
    raise AssertionError("interval endpoint drifted by more than the nudge budget")


def b_intervals(a: int, Z: int) -> list[tuple[int, int]]:
    """Closed b-intervals with |b (a^2 - 4b)| <= Z (b = 0 not yet excluded)."""
    t = a * a
    in_outer = lambda b: b * (t - 4 * b) >= -Z  # down parabola: >= -Z between roots
    below_cap = lambda b: b * (t - 4 * b) <= Z
    dp = isqrt(t * t + 16 * Z)
    hi = _nudge_down(in_outer, (t + dp) // 8)
    lo = _nudge_up(in_outer, -((dp - t) // 8))
    if t * t <= 16 * Z:
        return [(lo, hi)]
    dm = isqrt(t * t - 16 * Z)
    left_end = _nudge_down(below_cap, (t - dm) // 8)
    right_start = _nudge_up(below_cap, (t + dm) // 8 + 1)
    if right_start <= left_end:  # hole holds no integer; keep one interval
        return [(lo, hi)]
    return [(lo, left_end), (right_start, hi)]


def enumerate_region(
    X: int, filter: Optional[Callable[[CurveParams], bool]] = None
) -> Iterator[CurveParams]:
    """All (a, b) with 0 < |b (a^2 - 4b)| <= X, a ascending then b ascending."""
    if X < 1:
        raise ValueError("X must be >= 1")
    if X > _MAX_Z:
        raise ValueError(f"X beyond the int64-safe bound {_MAX_Z}")
    A = isqrt(4 * X + 1)
    for a in range(-A, A + 1):
        t = a * a
        for lo, hi in b_intervals(a, X):
            for b in range(lo, hi + 1):
                v = b * (t - 4 * b)
                if v == 0 or abs(v) > X:
                    continue
                c = CurveParams(a, b)
                if filter is None or filter(c):
                    yield c


def block_pairs_by_mask(Z: int, a_lo: int, a_hi: int, table: np.ndarray):
    """``census._block_pairs`` by generate-then-sort, the reference it is
    checked against.

    Each interval's residues are read off an (interval x n) boolean mask,
    its column's rows of the (n, n) table, by ``np.nonzero``; each
    (interval, residue) run is expanded in steps of n, filtered by
    0 < |b (a^2 - 4b)| <= Z, and the pairs are put in (a, b) order by
    ``np.lexsort``.  ``_block_pairs`` lists them in that order by
    construction; this is the only place the sort is left.
    """
    cols, los, his = _block_intervals(np.arange(a_lo, a_hi + 1, dtype=np.int64), Z)
    mod = len(table)
    iv, r = np.nonzero(table[cols % mod])  # (interval, residue) pairs
    first = los[iv] + (r - los[iv]) % mod
    count = np.maximum((his[iv] - first) // mod + 1, 0)
    pair = np.repeat(np.arange(len(iv)), count)
    step = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
    b = first[pair] + mod * step
    a = cols[iv[pair]]
    f = b * (a * a - 4 * b)
    keep = (f != 0) & (np.abs(f) <= Z)
    a, b, f = a[keep], b[keep], f[keep]
    order = np.lexsort((b, a))
    return a[order], b[order], f[order]


def structured(table: dict, star: np.ndarray) -> tuple[np.ndarray, list]:
    """One ``census._block_records`` result in the tests' comparison format:
    its columns as one ``RECORD_DTYPE`` array, and its I* rows as the list of
    (a, b, p, symbol)."""
    records = np.empty(len(table["a"]), RECORD_DTYPE)
    for name in records.dtype.names:
        records[name] = table[name]
    return records, [(a, b, p, str(cc.KodairaSymbol("I*", n - 6))) for a, b, p, n in star.tolist()]


def keep_rows(table: dict, star: np.ndarray) -> tuple[list, list]:
    """The census block reducer that keeps every row: partials that add up
    to the list of block tables (``structured``) and the anomaly list."""
    records, anomalies = structured(table, star)
    return [records], anomalies


def census_records(Z: int, workers: int = 1, use_family=True):
    """All minimal (family) curves with |cond poly| <= Z, in deterministic order.

    Returns the ``RECORD_DTYPE`` table, sorted by (a, b), and the list of
    (a, b, p, symbol) for shared primes whose Kodaira symbol is outside
    {III, I0*, III*}.  This is ``census._census_records`` sweeping with a
    reducer that keeps the rows, then one ``np.concatenate``: the whole table
    in memory at once, which no census report needs.
    """
    tables, anomalies = _census_records(Z, partial(_sweep_block, reduce=keep_rows),
                                        workers=workers, use_family=use_family)
    return np.concatenate(tables), anomalies


def _isqrt(values: np.ndarray) -> np.ndarray:
    """isqrt of each entry of an int64 array of values >= 0."""
    return np.array([isqrt(v) for v in values.tolist()], dtype=np.int64)


def _in_ranges(cum: np.ndarray, key: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per line, the a in [lo, hi] (none when hi < lo) whose residue mod m is
    allowed in row key of a table with cum[key, x] allowed residues under x,
    x = 0..m."""
    m = cum.shape[1] - 1

    def under(x):
        return x // m * cum[key, m] + cum[key, x % m]

    return np.where(hi >= lo, under(hi + 1) - under(lo), 0)


def _cumulative(allowed: np.ndarray) -> np.ndarray:
    """cum[k, x]: the True entries of row k of allowed under column x."""
    cum = np.zeros((allowed.shape[0], allowed.shape[1] + 1), dtype=np.int64)
    np.cumsum(allowed, axis=1, out=cum[:, 1:])
    return cum


def _count_lines(Z: int, tables: list, chunk: int = 1 << 18) -> list[int]:
    """Per (n, n) residue table, the pairs (a, b) it admits with
    0 < |b c| <= Z, c = a^2 - 4b, rescaled copies included, by lines.

    Since |b| |c| <= Z, a pair has |b| <= S = isqrt(Z) or |c| <= Z // (S + 1) <= S.
    The b-lines 1 <= |b| <= S hold the a with |a^2 - 4b| <= Z // |b|, less
    a^2 = 4b; the c-lines 1 <= |c| <= S the a with a^2 = c mod 4 and
    S < b = (a^2 - c) / 4 <= Z // |c| (b >= -|c| / 4 leaves no b < -S).  Either
    way a^2 runs over an interval, and its ends come from ``math.isqrt``.
    """
    S = isqrt(Z)
    counts = [0] * len(tables)
    by_b = [_cumulative(t.T) for t in tables]  # row b mod n, columns a mod n
    # row c mod 4n, columns a mod 2n: a^2 = c mod 4 and b = (a^2 - c) / 4 allowed
    by_c = []
    for t in tables:
        n = len(t)
        c, r = np.ogrid[:4 * n, :2 * n]
        ok = (r * r - c) % 4 == 0
        by_c.append(_cumulative(ok & t[r % n, (r * r - c) // 4 % n]))
    for start in range(1, S + 1, chunk):
        v = np.arange(start, min(start + chunk, S + 1), dtype=np.int64)
        M = Z // v
        root = _isqrt(v)
        square = root * root == v
        for line in (v, -v):
            # b-lines, b = line: a^2 in [4b - M, 4b + M]
            live = 4 * line + M >= 0
            U = _isqrt(np.maximum(4 * line + M, 0))
            L = np.where(4 * line - M > 0, _isqrt(np.maximum(4 * line - M - 1, 0)) + 1, 0)
            # c-lines, c = line: S < b <= M, so a^2 in [4 (S + 1) + c, 4 M + c]
            c_live = M > S
            c_U = _isqrt(np.maximum(4 * M + line, 0))
            c_L = _isqrt(np.maximum(4 * (S + 1) + line - 1, 0)) + 1
            for i, t in enumerate(tables):
                n = len(t)
                key = line % n
                got = (_in_ranges(by_b[i], key, L, U)
                       + _in_ranges(by_b[i], key, -U, -np.maximum(L, 1)))[live].sum()
                if line[0] > 0:  # b = s^2 and a = +-2s give c = 0
                    s, b = root[square], v[square]
                    got -= t[2 * s % n, b % n].sum() + t[-2 * s % n, b % n].sum()
                key = line % (4 * n)
                got += (_in_ranges(by_c[i], key, c_L, c_U)
                        + _in_ranges(by_c[i], key, -c_U, -c_L))[c_live].sum()
                counts[i] += int(got)
    return counts


def count_by_lines(Z: int, tables: list) -> list[int]:
    """Per (n, n) residue table, the minimal pairs (no p >= 5 with p^2 | a and
    p^4 | b) it admits with 0 < |b (a^2 - 4b)| <= Z: ``census._pair_counts``
    over every column, by other means.

    The same Moebius sum over the square-free d with primes >= 5 and
    d^8 <= Z, of mu(d) times the pairs of T_d[a, b] = T[d^2 a, d^4 b] at
    Z // d^8, but each term by lines (``_count_lines``), with integer square
    roots only: no float and no interval nudge.
    """
    root8 = isqrt(isqrt(isqrt(Z)))
    primes = [p for p in range(5, root8 + 1) if all(p % q for q in range(2, isqrt(p) + 1))]
    terms = [(1, 1)]
    for p in primes:
        terms += [(d * p, -mu) for d, mu in terms if (d * p) ** 8 <= Z]
    counts = [0] * len(tables)
    for d, mu in terms:
        rescaled = [t[np.ix_(d * d * np.arange(len(t)) % len(t), d**4 * np.arange(len(t)) % len(t))]
                    for t in tables]
        counts = [c + mu * x for c, x in zip(counts, _count_lines(Z // d**8, rescaled))]
    return counts


def isogeny(c: CurveParams) -> CurveParams:
    """The 2-isogenous curve (a, b) -> (-2a, a^2 - 4b)."""
    return CurveParams(-2 * c.a, c.a * c.a - 4 * c.b)


def good_family(a, b):
    """Family pairs that really have good reduction at 2 and 3 (Tate f_2 = f_3 = 0).

    The criterion at 3 and the clause (a = 1 mod 4, b = 16 mod 32) at 2 agree
    with Tate's algorithm on every curve they admit.  The odd-b clause (b odd,
    a = 6 mod 8) does not: Tate gives f_2 = 0 there exactly when
    b = (a/2)^2 + 64 mod 128, which a modulus of 96 cannot express.  Both
    clauses leave the model 2-non-minimal (v_2(Delta) = 12); the u = 2 model
    is the one with good reduction.  The 2-adic mass is 9/1024, against the
    family's 9/128.  ``census._good_mod384`` holds the same classes as a
    residue table.
    """
    return (cc.family_at_2(a, b) & cc.family_at_3(a, b)
            & ((b % 2 == 0) | ((b - (a // 2) ** 2) % 128 == 64)))


def curve_record(a: int, b: int) -> tuple[Optional[Record], list]:
    """Classify one curve at all p >= 5; None when the pair is a rescaled copy."""
    c = a * a - 4 * b
    vb = {p: e for p, e in ar.factorize(b).factors if p >= 5}
    vc = {p: e for p, e in ar.factorize(c).factors if p >= 5}
    for p, e in vb.items():
        if e >= 4 and a % (p * p) == 0:
            return None, []
    cond = 1
    idx6 = 1
    cubefree = True
    anomalies = []
    for p in sorted(set(vb) | set(vc)):
        eb, ec = vb.get(p, 0), vc.get(p, 0)
        if eb and ec:
            red = kodaira_symbol_large_p(CurveParams(a, b), p)
            f = red.conductor_exponent
            tag = str(red.symbol)
            if tag not in ("III", "I0*", "III*"):
                anomalies.append((a, b, p, tag))
        else:
            f = 1
        cond *= p**f
        idx6 *= p ** (eb + ec - f)
        cubefree &= eb + ec <= 2
    return (a, b, abs(b * c), cond, idx6, cubefree), anomalies


@dataclass(frozen=True)
class RegionSpec:
    Z: float
    truncated: bool = False

    def __post_init__(self) -> None:
        if not self.Z > 0:
            raise ValueError("Z must be positive")


def region_contains(x: float, y: float, spec: RegionSpec) -> bool:
    if abs(y * (x * x - y)) > spec.Z:
        return False
    if spec.truncated and (abs(y) < 4 or abs(x * x - y) < 4):
        return False
    return True


def piece_integrals(tol: float = 1e-12) -> tuple[float, float]:
    """(int_0^1 sqrt(z^4 + 1) dz, int_1^inf sqrt(z^4+1) - sqrt(z^4-1) dz) by
    ``real_density._quad``; the tail in the variable s of ``_tail_integrand``,
    the integrand ``area_pieces`` takes it in."""
    center, e1 = rd._quad(lambda z: np.sqrt(z**4 + 1), (0.0, 1.0), tol)
    tail, e2 = rd._quad(rd._tail_integrand, (0.0, 1.0), tol)
    if not (e1 <= tol and e2 <= tol):
        raise rd.QuadratureError(f"piece integral error estimates {e1}, {e2} > {tol}")
    return center, tail


def lattice_count_with_error(table: np.ndarray, X: int) -> tuple[int, float, float]:
    """(count, predicted, |count - predicted|) for the truncated lattice count.

    Counts the (a, b) whose residues mod n the (n, n) boolean table allows,
    with 0 < |b(a^2-4b)| <= X, |b| >= 4 and |a^2-4b| >= 4; the prediction is
    (sqrt2/2) nu AREA_CONST X^{3/4}, nu the table's share of residue pairs,
    the covolume-4 lattice (a, 4b) against the region with parameter 4X.
    The region is swept in the census's blocks, and each block generates
    only the table's pairs (``census._block_pairs``); the truncation is the
    one filter applied after.
    """
    if not 1 <= X <= _MAX_Z:
        raise ValueError(f"need 1 <= X <= {_MAX_Z}")
    count = 0
    for a_lo, a_hi in _blocks(X):
        a, b, _ = _block_pairs(X, a_lo, a_hi, table)
        count += int(np.count_nonzero((np.abs(b) >= 4) & (np.abs(a * a - 4 * b) >= 4)))
    density = Fraction(int(np.count_nonzero(table)), table.size)
    predicted = float(SQRT2 / 2 * float(density) * rd.area_closed_form(X))
    return count, predicted, abs(count - predicted)


def _subtract_open(intervals, lo, hi):
    """Remove the open interval (lo, hi) from a list of closed intervals."""
    out = []
    for a, b in intervals:
        if b <= lo or a >= hi:
            out.append((a, b))
            continue
        if a < lo:
            out.append((a, min(b, lo)))
        if b > hi:
            out.append((max(a, hi), b))
    return out


def truncated_slice_length(x: float, Z: float) -> float:
    """Length of {y : |y(x^2-y)| <= Z, |y| >= 4, |x^2-y| >= 4} at fixed x."""
    t = x * x
    half = t / 2
    peak = t * t / 4
    upper = sqrt(peak + Z)
    if peak <= Z:
        intervals = [(half - upper, half + upper)]
    else:
        inner = sqrt(peak - Z)
        intervals = [(half - upper, half - inner), (half + inner, half + upper)]
    intervals = _subtract_open(intervals, -4.0, 4.0)
    intervals = _subtract_open(intervals, t - 4.0, t + 4.0)
    return sum(b - a for a, b in intervals)


# ---------------------------------------------------------------------------
# Two-phase simplex, Bland's rule, exact Fractions.
# ---------------------------------------------------------------------------


def _pivot(tab, basis, row, col) -> None:
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for i, line in enumerate(tab):
        if i != row and line[col] != 0:
            f = line[col]
            tab[i] = [a - f * b for a, b in zip(line, tab[row])]
    basis[row] = col


def _bland_step(tab, basis, n_cols) -> bool:
    """One simplex step on tableau with objective in the last row.

    Returns False at optimality; raises LPUnboundedError on an unbounded ray.
    """
    obj = tab[-1]
    col = next((j for j in range(n_cols) if obj[j] < 0), None)
    if col is None:
        return False
    best: Optional[tuple] = None
    for i in range(len(tab) - 1):
        if tab[i][col] > 0:
            ratio = tab[i][-1] / tab[i][col]
            key = (ratio, basis[i])
            if best is None or key < best[0]:
                best = (key, i)
    if best is None:
        raise LPUnboundedError(f"unbounded along variable index {col}")
    _pivot(tab, basis, best[1], col)
    return True


def _simplex_min_eq(c, A, b):
    """min c.x subject to Ax = b, x >= 0; returns (optimum, x)."""
    m, n = len(A), len(c)
    rows = [list(A[i]) + [b[i]] for i in range(m)]
    for row in rows:
        if row[-1] < 0:
            row[:] = [-v for v in row]
    # phase 1: artificials n..n+m-1
    tab = [rows[i][:-1] + [Fraction(int(i == j)) for j in range(m)] + [rows[i][-1]] for i in range(m)]
    basis = [n + i for i in range(m)]
    phase1 = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    for i in range(m):  # price out the artificial basis
        phase1 = [a - b_ for a, b_ in zip(phase1, tab[i])]
    tab.append(phase1)
    while _bland_step(tab, basis, n + m):
        pass
    if -tab[-1][-1] != 0:
        raise LPInfeasibleError(f"phase-1 optimum {-tab[-1][-1]} > 0")
    # drive any lingering artificial out of the basis (degenerate rows)
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    keep = [i for i in range(m) if basis[i] < n]
    tab = [
        [tab[i][j] for j in range(n)] + [tab[i][-1]]
        for i in keep
    ]
    basis = [basis[i] for i in keep]
    obj = list(c) + [Fraction(0)]
    for i, bi in enumerate(basis):  # reduced costs for the inherited basis
        if obj[bi] != 0:
            f = obj[bi]
            obj = [a - f * b_ for a, b_ in zip(obj, tab[i])]
    tab.append(obj)
    while _bland_step(tab, basis, n):
        pass
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    return -tab[-1][-1], tuple(x)


def solve_simplex_fractions(lp: LinearProgram):
    """(optimum, argopt) in the program's own sense, exact rationals."""
    n, m = lp.n_vars, lp.n_rows
    if lp.sense == "min_ge":
        # surplus variables: Ax - s = b
        A = [list(lp.matrix[i]) + [Fraction(-int(i == j)) for j in range(m)] for i in range(m)]
        c = list(lp.objective) + [Fraction(0)] * m
        opt, x = _simplex_min_eq(c, A, list(lp.rhs))
        return opt, x[:n]
    # max c.x, Ax <= b: slacks, then minimize -c.x
    A = [list(lp.matrix[i]) + [Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    c = [-v for v in lp.objective] + [Fraction(0)] * m
    opt, x = _simplex_min_eq(c, A, list(lp.rhs))
    return -opt, x[:n]


def objective_value(lp: LinearProgram, x) -> Fraction:
    if len(x) != lp.n_vars:
        raise ValueError("dimension mismatch")
    return sum((Fraction(c) * Fraction(v) for c, v in zip(lp.objective, x)), Fraction(0))


def check_feasible_fractions(lp: LinearProgram, x) -> bool:
    """x >= 0 and every row of ``lp`` holds at x, summed in Fractions."""
    if len(x) != lp.n_vars:
        raise ValueError("dimension mismatch")
    xs = tuple(Fraction(v) for v in x)
    if any(v < 0 for v in xs):
        return False
    for row, b in zip(lp.matrix, lp.rhs):
        lhs = sum((c * v for c, v in zip(row, xs)), Fraction(0))
        if lp.sense == "min_ge" and lhs < b:
            return False
        if lp.sense == "max_le" and lhs > b:
            return False
    return True


def log_zeta_above(s, P: int, dps: int):
    """log zeta_{>P}(s) = log(zeta(s) prod_{p<=P} (1 - p^{-s})), an mpf at dps
    digits; s is a Fraction or an int."""
    with mpmath.workdps(dps):
        s = mpmath.mpf(s.numerator) / s.denominator
        factors = (1 - mpmath.mpf(int(p)) ** -s for p in ar.primes_up_to(P))
        return +mpmath.log(mpmath.zeta(s) * mpmath.fprod(factors))


def zeta_tail_mpmath(family: str, tol: float) -> tuple[int, float]:
    """(P, sum_{5<=k<=K} e_k log zeta_{>P}(k/4)) with mpmath's zeta, at 20
    digits beyond the size of the largest |e_k|.

    Near 1 the product zeta_{>P}(k/4) loses its digits to cancellation, so
    at large K this sum is good to about 1e-21, not to the last bit.
    """
    P, K = ld._tail_cutoff(family, tol)
    e = ld._exponents(family, K)
    with mpmath.workdps(20 + len(str(max(map(abs, e))))):
        xs = [mpmath.mpf(int(p)) ** -0.25 for p in ar.primes_up_to(P)]
        powers = [mpmath.mpf(1)] * len(xs)
        total = mpmath.mpf(0)
        for k in range(1, K + 1):
            powers = [w * x for w, x in zip(powers, xs)]
            if e[k]:
                above_P = mpmath.zeta(mpmath.mpf(k) / 4) * mpmath.fprod(1 - w for w in powers)
                total += e[k] * mpmath.log(above_P)
        return P, float(total)


def euler_factor(p: int, family: str) -> float:
    """The family's Euler factor at one prime p >= 5, from its exact
    coefficients in q = p^{1/4}."""
    ld._check_p(p)
    return ld._q_float(ld._q_coefficients(ld._series(family), p), p)


def is_prime_13_bases(n: int) -> bool:
    """spf[n] == n on the SPF table; above it, trial division by the first 13
    primes and Miller-Rabin with all 13 as witnesses, whatever the size of n."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    if n <= ar._sieve.limit:
        return ar._sieve.array()[n] == n
    for p in bases:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_hits_int64(n: int) -> list[int]:
    """The primes p <= min(sqrt(n), 10^5) dividing 1 <= n < 2^63, by an int64 remainder."""
    primes = ar.primes_up_to(10**5)
    primes = primes[primes <= isqrt(n)]
    return primes[n % primes == 0].tolist()


def step6_shift_search(co: cc.Coeffs, p: int) -> cc.Coeffs:
    """Step 6 of Tate's algorithm at p = 2 or 3 by search: the model moved by
    the first (0, s, t), s < p and t < p^3, that makes p | a1, a2; p^2 | a3,
    a4; p^3 | a6."""
    for s in range(p):
        for t in range(p**3):
            co2 = cc._translate(co, 0, s, t)
            if cc._step6_done(co2, p):
                return co2
    raise cc.ClassificationError(f"step-6 translation not found at p={p}")
