"""Exact-rational linear programming for the Szpiro-ratio exponent bound.

The program lives on nine exponent variables
(gamma_I0*, gamma_III, gamma_III*, alpha1, alpha2, beta1, beta2, upsilon, nu).
Everything is exact: programs and results are Fractions, scaled to integers
for the simplex's tableau and the certificate checks.  The target is exact
equality of the simplex optimum with the closed form 3/2 - 3 delta + 3 r.

Rows 4 and 5 of the right-hand side carry r/2, not r: with r the closed-form
primal certificate would violate those rows, and the dual certificate value
would come out as 3/2 - 3 delta + 6 r.  r/2 is the unique choice under which
both certificates are feasible and tight at the same optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence

HALF = Fraction(1, 2)


class LPError(Exception):
    pass


class LPInfeasibleError(LPError):
    pass


class LPUnboundedError(LPError):
    pass


class CertificateError(AssertionError):
    """A closed-form certificate failed its exact feasibility check; raised
    explicitly, so that ``python -O`` keeps the check."""


def _frac_tuple(xs) -> tuple:
    return tuple(Fraction(x) for x in xs)


@dataclass(frozen=True)
class LinearProgram:
    """sense "min_ge": min c.x, Ax >= b, x >= 0; "max_le": max c.x, Ax <= b, x >= 0."""

    sense: str
    objective: tuple
    matrix: tuple
    rhs: tuple

    def __post_init__(self) -> None:
        if self.sense not in ("min_ge", "max_le"):
            raise ValueError(f"unknown sense {self.sense!r}")
        n = len(self.objective)
        if len(self.matrix) != len(self.rhs):
            raise ValueError("row count mismatch between matrix and rhs")
        for row in self.matrix:
            if len(row) != n:
                raise ValueError("matrix width does not match objective length")

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.matrix)


_OBJECTIVE = _frac_tuple((6, 0, 12, 0, 0, 3, 3, 0, 0))
_MATRIX = tuple(
    _frac_tuple(row)
    for row in (
        (-2, -2, -2, -1, -1, 0, 0, -1, -1),
        (0, 0, 0, 1, 1, 0, 0, 0, 0),
        (0, 0, 0, 1, -1, 1, -1, 0, 0),
        (0, 0, 0, -1, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, -1, 0, 1, 0, 0),
    )
)


def build_primal(delta, r) -> LinearProgram:
    """The 5x9 exponent program at parameters (delta, r), exact rationals."""
    delta, r = Fraction(delta), Fraction(r)
    if not 0 <= delta < HALF:
        raise ValueError("need 0 <= delta < 1/2")
    if r < 0:
        raise ValueError("need r >= 0")
    rhs = (Fraction(-1), HALF - delta, Fraction(0), r / 2, r / 2)
    return LinearProgram("min_ge", _OBJECTIVE, _MATRIX, rhs)


def build_dual(lp: LinearProgram) -> LinearProgram:
    """Symmetric dual; applying it twice returns the original program."""
    transpose = tuple(
        tuple(lp.matrix[i][j] for i in range(lp.n_rows)) for j in range(lp.n_vars)
    )
    sense = "max_le" if lp.sense == "min_ge" else "min_ge"
    return LinearProgram(sense, lp.rhs, transpose, lp.objective)


def certificate_primal(delta, r) -> tuple:
    delta, r = Fraction(delta), Fraction(r)
    s = HALF - delta
    t = HALF + delta
    return _frac_tuple(
        (0, 0, 0, s / 2, s / 2, (s + r) / 2, (s + r) / 2, t / 2, t / 2)
    )


def certificate_dual() -> tuple:
    return _frac_tuple((0, 3, 0, 3, 3))


def certificate_value(delta, r) -> Fraction:
    return Fraction(3, 2) - 3 * Fraction(delta) + 3 * Fraction(r)


def check_feasible(lp: LinearProgram, x: Sequence) -> bool:
    """x >= 0 and each row holds at x, compared in integers: (L A_i).(M x) with
    M (L b_i), for M the lcm of x's denominators and L that of the rows'."""
    if len(x) != lp.n_vars:
        raise ValueError("dimension mismatch")
    (xs,), M = _as_integers([x])
    if any(v < 0 for v in xs):
        return False
    rows, _ = _as_integers([*row, b] for row, b in zip(lp.matrix, lp.rhs))
    sides = ((sum(a * v for a, v in zip(row, xs)), M * row[-1]) for row in rows)
    if lp.sense == "min_ge":
        return all(lhs >= rhs for lhs, rhs in sides)
    return all(lhs <= rhs for lhs, rhs in sides)


# ---------------------------------------------------------------------------
# Two-phase simplex, Bland's rule, on an integer tableau (fraction-free).
#
# The tableau is held as integers over one common denominator d, with
# Bareiss-style exact division: a pivot on (r, s) leaves row r as it is,
# replaces every other row i by (p * row_i - row_i[s] * row_r) / d, which
# divides exactly, and makes the pivot p the new d.  Row i of the true
# tableau is row_i / (d * s_i) for a positive scale s_i of its own: the
# common denominator L of the input for a constraint row not yet pivoted
# on, 1 after, and L or the objective's Lc for the objective row.  Bland's
# rule needs no true entry: it reads signs, and its ratio test compares
# rhs_i / row_i[s] across rows, in which s_i cancels, by cross-multiplying.
# So the pivot sequence, and the optimum and vertex read off at the end,
# are those of the same simplex run in Fractions.
# ---------------------------------------------------------------------------


def _pivot(tab, basis, d, row, col) -> int:
    """Pivot on tab[row][col]; returns the new common denominator (> 0)."""
    prow = tab[row]
    p = prow[col]
    # where the pivot row is zero an entry is only rescaled by p / d
    nonzero = [j for j, v in enumerate(prow) if v]
    for i, line in enumerate(tab):
        f = line[col]
        if i == row or (f == 0 and p == d):
            continue
        line = [v * p for v in line]
        if f:
            for j in nonzero:
                line[j] -= f * prow[j]
        tab[i] = line if d == 1 else [v // d for v in line]
    basis[row] = col
    if p < 0:  # only the phase-1 clean-up pivots on a negative entry
        tab[:] = [[-v for v in line] for line in tab]
        p = -p
    return p


def _bland_pivot(tab, basis, n_cols) -> Optional[tuple]:
    """(row, col) of the next pivot, objective in the last row; None at optimality.

    Raises LPUnboundedError on an unbounded ray.
    """
    obj = tab[-1]
    col = next((j for j in range(n_cols) if obj[j] < 0), None)
    if col is None:
        return None
    best = None
    for i in range(len(tab) - 1):
        a = tab[i][col]
        if a > 0:
            if best is None:
                best, num, den = i, tab[i][-1], a
                continue
            lhs, rhs = tab[i][-1] * den, num * a  # ratio_i vs the best ratio
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best, num, den = i, tab[i][-1], a
    if best is None:
        raise LPUnboundedError(f"unbounded along variable index {col}")
    return best, col


def _phase(tab, basis, d, n_cols) -> int:
    """Pivot by Bland's rule until optimal; returns the final common denominator."""
    while (step := _bland_pivot(tab, basis, n_cols)) is not None:
        d = _pivot(tab, basis, d, *step)
    return d


def _as_integers(rows) -> tuple:
    """(integer rows, L): the rows times the least L > 0 that makes them integral."""
    rows = [[(v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio()
             for v in row] for row in rows]  # one call, not three properties, per entry
    L = lcm(*(d for row in rows for _, d in row))
    return [[n * (L // d) for n, d in row] for row in rows], L


def _simplex_min_eq(c, A, b):
    """min c.x subject to Ax = b, x >= 0; returns (optimum, x)."""
    m, n = len(A), len(c)
    rows, L = _as_integers([*A[i], b[i]] for i in range(m))
    for row in rows:
        if row[-1] < 0:
            row[:] = [-v for v in row]
    # phase 1: artificials n..n+m-1, every row still at its scale L
    tab = [rows[i][:-1] + [L * (i == j) for j in range(m)] + [rows[i][-1]] for i in range(m)]
    basis = [n + i for i in range(m)]
    phase1 = [0] * n + [L] * m + [0]
    for line in tab:  # price out the artificial basis
        phase1 = [a - b_ for a, b_ in zip(phase1, line)]
    tab.append(phase1)
    d = _phase(tab, basis, 1, n + m)
    if tab[-1][-1] != 0:
        raise LPInfeasibleError(f"phase-1 optimum {Fraction(-tab[-1][-1], d * L)} > 0")
    # drive any lingering artificial out of the basis (degenerate rows)
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                d = _pivot(tab, basis, d, i, col)
    # every kept row has been pivoted on, so it is exactly d * (true row)
    keep = [i for i in range(m) if basis[i] < n]
    tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    # the objective row at scale d * Lc: d Lc c minus the basic rows, priced out
    (cs,), Lc = _as_integers([c])
    obj = [d * v for v in cs] + [0]
    for i, bi in enumerate(basis):  # reduced costs for the inherited basis
        if cs[bi] != 0:
            f = cs[bi]
            obj = [a - f * b_ for a, b_ in zip(obj, tab[i])]
    tab.append(obj)
    d = _phase(tab, basis, d, n)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = Fraction(tab[i][-1], d)
    return Fraction(-tab[-1][-1], d * Lc), tuple(x)


def solve_simplex(lp: LinearProgram):
    """(optimum, argopt) in the program's own sense, exact rationals."""
    n, m = lp.n_vars, lp.n_rows
    if lp.sense == "min_ge":
        # surplus variables: Ax - s = b
        A = [list(lp.matrix[i]) + [-int(i == j) for j in range(m)] for i in range(m)]
        c = list(lp.objective) + [0] * m
        opt, x = _simplex_min_eq(c, A, list(lp.rhs))
        return opt, x[:n]
    # max c.x, Ax <= b: slacks, then minimize -c.x
    A = [list(lp.matrix[i]) + [int(i == j) for j in range(m)] for i in range(m)]
    c = [-v for v in lp.objective] + [0] * m
    opt, x = _simplex_min_eq(c, A, list(lp.rhs))
    return -opt, x[:n]


def sweep_grid(deltas=None, rs=None) -> list:
    """Certificate vs simplex on a (delta, r) grid; exact equality expected.

    The primal certificate x* is checked per point, the dual y* once: (delta,
    r) enters the dual's objective only, not _MATRIX^T y <= _OBJECTIVE.  At
    each point c.x* = b.y* = certificate_value is checked in integers, all
    vectors times one L, so weak duality proves that value the optimum.
    Returns rows (delta, r, certificate_value, simplex_value, match).
    """
    if deltas is None:
        deltas = [Fraction(k, 100) for k in range(11)]
    if rs is None:
        rs = [Fraction(0), Fraction(1, 200), Fraction(1, 102), Fraction(1, 100)]
    dual = certificate_dual()
    if not check_feasible(build_dual(build_primal(0, 0)), dual):
        raise CertificateError("the dual certificate is infeasible")
    rows = []
    for d in deltas:
        for r in rs:
            lp = build_primal(d, r)
            cert = certificate_value(d, r)
            if not check_feasible(lp, primal := certificate_primal(d, r)):
                raise CertificateError(f"the primal certificate is infeasible at "
                                       f"delta = {d}, r = {r}")
            (c, b, x, y, (v,)), L = _as_integers([lp.objective, lp.rhs, primal, dual, [cert]])
            if not sum(map(mul, c, x)) == sum(map(mul, b, y)) == L * v:
                raise CertificateError(f"the certificates' objectives are not {cert} at "
                                       f"delta = {d}, r = {r}")
            opt, _ = solve_simplex(lp)
            rows.append((Fraction(d), Fraction(r), cert, opt, cert == opt))
    return rows
