"""Counts and sweeps of family curves by conductor-polynomial size.

The family is ``curve_core.family_at_2 & family_at_3``: only the b in the
residue classes that ``curve_core.FAMILY_MOD96`` allows for a are taken.
``--all-residues`` uses a 1x1 table that allows every b; any other (n, n)
residue table works the same way.

Per a-column the b with |b (a^2 - 4b)| <= Z form one interval, or two once
a^4 > 16 Z opens a hole around b = a^2/8.  The interval ends of a whole
block of columns are estimated in float64 and then decided exactly by
vectorized int64 nudge passes over b (a^2 - 4b), which never form a^4; so
no float decides membership, up to Z = 2^50 (``_block_intervals``).  An
interval holds under(hi + 1) - under(lo) allowed b in closed form
(``_runs``, summed by a count, spread by ``_list_pairs``).  One walk picks
the columns (``_walk``) of a sweep block, a count's rescalings and its I*
sublattices.  A census counts or sweeps:

* It counts when it reads only |cond poly|: the CondPoly family ordered by
  |cond poly|, with or without ``--all-residues``, up to Z = _MAX_COUNT_Z.
  No pair is listed.  The pairs of a table sum over the intervals, and the
  rescaled copies (p^2 | a, p^4 | b, p >= 5) leave by a Moebius sum over
  d^8 <= Z of the counts at Z // d^8 (``_pair_counts``).  The 2,3 check is
  two counts, of the family's table and of its Tate-exact classes.  A
  minimal pair is I* at p >= 5 exactly when (a, b) = (p a', p^2 b') with p
  not dividing a' but dividing b' (a'^2 - 4b') (``additive_type``: v_p(a) = 1
  and v_p(b) >= 2, less I0*, where p divides neither b' nor a'^2 - 4b').
  Then b (a^2 - 4b) = p^4 b' (a'^2 - 4b') with p | b' (a'^2 - 4b'), so
  p^5 <= Z, and the I* rows are listed on that sublattice at Z / p^4
  (``_star_rows``): about one pair in 80 of the region.  Count blocks are
  runs of _COLUMNS_PER_BLOCK columns (``_column_blocks``).
* It sweeps otherwise, up to Z = _MAX_Z: conductor ordering, the CubeFree
  and Kappa families and both tails.  Its blocks are cut so that each holds
  about as many rows, whatever its table (``_blocks``), and a block's rows are one
  table, a dict of contiguous 1-D columns: a, b, |cond poly|, the prime-to-6
  conductor and index and the cube-free flag.  The shared primes come from
  the small gcd(a, b).  A block with no rescaled copy keeps the sweep's own
  a and b arrays.

Each block is reduced where it is taken, in its worker, to a small partial
(counts on a grid, tail counts, the I* count and first examples), and the
partials are merged in block order (``_census_records``); no process holds
more than one block's rows, so memory stays flat in Z.  A tails grid is
served by one sweep at its largest X.  Good reduction at 2 and 3 is a
function of (a, b) and is not a column: the Szpiro tail sweeps only its
residue classes mod 384 (``_good_mod384``), so every row it reads has it,
and a census report counts its predicate curves that are bad at 2 against
the same table (``_predicate_vs_tate``).  No census runs Tate's algorithm
outside the Kappa filter.

Conductor ordering is approximated: only curves with |conductor poly| <=
X * index_cap are visible, and the report says so.  Counts always refer to
minimal models; pairs with p^2 | a, p^4 | b for some p >= 5 are skipped as
rescaled copies of a smaller pair.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import isqrt, sqrt
from typing import Optional

import numpy as np

from . import arithmetic as ar
from . import local_density
from .curve_core import (
    ADDITIVE_TAGS,
    FAMILY_MOD96,
    KodairaSymbol,
    additive_type,
    avg_szpiro,  # not called here: perfbench/selftest.py checks the tracer rebinds it
    avg_szpiro_of_parts,
)

KAPPA_MAX = Fraction(155, 68)
TAIL_INDEX_CAP = 100
# The largest region each kind of census takes.  A sweep lists every pair, so
# its bound is set by time and memory: 263.5M rows at 1e12.  A count lists only
# the I* rows, and its bound is where _block_intervals stops being exact: Z <=
# 2^50, with margin, by the error bound in its docstring (1e15 < 2^50).
_MAX_Z = 10**12
_MAX_COUNT_Z = 10**15
# Pairs (all residues) per family-table block of a sweep, over sqrt(Z); a table
# of another density gets blocks as much wider or narrower, so that every block
# holds about 74/32 sqrt(Z) rows (``_blocks``).  census --x 5e7 / 1e9 --family
# cubefree, median of 7 fresh interpreters: 74 gives 0.069 / 0.581 s and 38.6 /
# 49.7 MiB peak RSS; 37 gives 0.077 / 0.656 s, 37.0 / 43.7 MiB; 148 gives 0.077
# / 0.609 s, 41.5 / 63.4 MiB.  Only 74 is fastest at both.
_PAIRS_PER_ROOT_Z = 74
_NUDGE = 8  # steps an estimated interval end may move in each direction
# The residue table of --all-residues: every (a, b) mod 1.
_ALL_RESIDUES = np.ones((1, 1), dtype=bool)
# A count block's a-columns, and the most rows an I* listing holds at once.
_COLUMNS_PER_BLOCK = 1 << 16
_STAR_ROWS = 1 << 17


def _nudge(f, b: np.ndarray, step: int) -> np.ndarray:
    """Exact interval ends from estimates b, for a whole array at once.

    With step = +1 each entry moves up while f holds one step further, then
    down until f holds: the top end of f's interval, given an estimate
    within the budget.  step = -1 gives the bottom end.  Each walk takes at
    most _NUDGE steps.
    """
    b = b.copy()
    move = np.ones(len(b), dtype=bool)
    for _ in range(_NUDGE):
        move &= f(b + step)
        if not move.any():
            break
        b += step * move
    hold = f(b)
    for _ in range(_NUDGE - 1):
        if hold.all():
            break
        b -= step * ~hold
        hold = f(b)
    if not hold.all():
        raise AssertionError("interval endpoint drifted by more than the nudge budget")
    return b


def _block_intervals(a: np.ndarray, Z: int):
    """Closed b-intervals with |b (a^2 - 4b)| <= Z (b = 0 not yet excluded).

    Returns int64 arrays (column, lo, hi), one entry per interval, in column
    order with a column's left interval first.  With t = a^2 the outer ends
    are the roots of b (t - 4b) = -Z and the hole's ends those of
    b (t - 4b) = Z; float64 puts each root within a unit and the nudges
    decide it on the exact predicate.

    Exact for Z <= 2^50 (``_MAX_COUNT_Z``).  Let u = 2^-53.  t = a^2 <= 4 Z + 1
    and 16 Z are exact floats, so an outer estimate errs by at most 3 u Z + 1.
    The hole's D = sqrt(t^2 - 16 Z) comes from (t - 4 sqrt Z)(t + 4 sqrt Z),
    whose error is under 32 u Z + 2 u D^2, so D errs by under
    min(sqrt(32 u Z), 32 u Z / D) + 3 u D, and the hole's estimates by under
    (sqrt(32 u Z) + 6 u t) / 8 + 1: under 2 at 2^50, inside the _NUDGE steps.
    A hole holding one integer h has D < 8, and h lies at least 1/D inside
    both roots, since b (t - 4b) is concave with slope D there; its estimates
    err by under (4 u Z + 16 u sqrt Z) / D < 1/D, so no walk starts on the far
    side of h.  Within the walks |b (t - 4b)| stays under 40 Z, inside int64.
    """
    t = a * a
    tf = t.astype(np.float64)

    def in_outer(b):  # down parabola: >= -Z between roots
        return b * (t - 4 * b) >= -Z

    dp = np.sqrt(tf * tf + 16.0 * Z)
    hi = _nudge(in_outer, np.floor((tf + dp) / 8).astype(np.int64), 1)
    lo = _nudge(in_outer, -np.floor((dp - tf) / 8).astype(np.int64), -1)
    cut = np.flatnonzero(t > isqrt(16 * Z))  # t^2 > 16 Z, decided without forming t^2
    th, thf, r = t[cut], tf[cut], 4.0 * sqrt(Z)

    def below_cap(b):
        return b * (th - 4 * b) <= Z

    dm = np.sqrt(np.maximum((thf - r) * (thf + r), 0.0))
    left_end = _nudge(below_cap, np.floor((thf - dm) / 8).astype(np.int64), 1)
    right_start = _nudge(below_cap, np.floor((thf + dm) / 8).astype(np.int64) + 1, -1)
    two = right_start > left_end  # otherwise the hole holds no integer: one interval
    cut = cut[two]
    count = np.ones(len(a), dtype=np.int64)
    count[cut] = 2
    first = np.cumsum(count)[cut] - 2  # each split column's left interval
    cols, los, his = (np.repeat(x, count) for x in (a, lo, hi))
    his[first] = left_end[two]
    los[first + 1] = right_start[two]
    return cols, los, his


# ---------------------------------------------------------------------------
# Census pipeline.
# ---------------------------------------------------------------------------


@cache
def _layout(cells: bytes, n: int):
    """The allowed k n + r of the (n, n) table with these packed cells, in order;
    below[k (n + 1) + r], the allowed residues under r in row k (so r = n gives
    the row's m_k); the m_k and where each row starts in the first array; and
    whether n divides no allowed r (k^2 - 4r)."""
    table = np.unpackbits(np.frombuffer(cells, dtype=np.uint8), count=n * n).view(bool).reshape(n, n)
    flat = np.flatnonzero(table)
    below = np.zeros((n, n + 1), dtype=np.min_scalar_type(n))  # 1/4 of int64 at n = 384
    np.cumsum(table, axis=1, dtype=below.dtype, out=below[:, 1:])
    per_row = below[:, n].astype(np.int64)
    k, r = np.divmod(flat, n)
    zero_free = not np.any(r * (k * k - 4 * r) % n == 0)
    return flat, below.ravel(), per_row, np.cumsum(per_row) - per_row, zero_free


def _table_layout(table: np.ndarray):
    """``_layout`` of an (n, n) residue table."""
    return _layout(np.packbits(table).tobytes(), len(table))


def _runs(cols: np.ndarray, los: np.ndarray, his: np.ndarray, layout):
    """Per b-interval [lo, hi] of column a: its table row k = a mod n, lo mod n,
    j0 = below[k, lo mod n] and under(hi + 1) - under(lo), the number of allowed
    b it holds (see ``_block_pairs``), for an (n, n) table's ``_layout``."""
    below, n = layout[1], len(layout[2])
    row = cols % n
    base = row * (n + 1)
    lo_r = los % n
    j0 = below[base + lo_r]
    return row, lo_r, j0, (his + 1 - los + lo_r) // n * below[base + n] + below[base + (his + 1) % n] - j0


def _block_pairs(Z: int, a_lo: int, a_hi: int, table: np.ndarray):
    """(a, b, b (a^2 - 4b)) for a_lo <= a <= a_hi, as int64 arrays sorted by (a, b).

    Only the b with table[a mod n, b mod n] are listed, for an (n, n) boolean table:
    ``curve_core.FAMILY_MOD96``, or ``_ALL_RESIDUES`` for every b.  Let row k allow the
    m_k residues R_k (increasing), below[k, r] of them under r, and under(x) =
    (x // n) m_k + below[k, x mod n].  Then an interval [lo, hi] in row k holds
    under(hi + 1) - under(lo) allowed b (``_runs``); the e-th is lo - lo mod n +
    n (j // m_k) + R_k[j mod m_k], j = below[k, lo mod n] + e.  So one spread lists
    a block in (a, b) order; the ends are exact, so only b (a^2 - 4b) = 0 is
    dropped, if the table admits it.
    """
    layout = _table_layout(table)
    cols, los, his = _block_intervals(_walk(Z, a_lo, a_hi, layout[2]), Z)
    return _list_pairs(cols, los, _runs(cols, los, his, layout), layout)


def _walk(Z: int, a_lo: int, a_hi: int, per_row: np.ndarray, u: int = 1, coprime: bool = False):
    """The columns a with a_lo <= u a <= a_hi and |a| <= sqrt(4 Z + 1) (past it
    no b has 0 < |b (a^2 - 4b)| <= Z) whose table row allows some b
    (per_row[a mod n] > 0, per_row as in ``_layout``), with coprime only those
    prime to u, as an int64 array.  Empty arrays pass through
    ``_block_intervals``, ``_runs`` and ``_list_pairs``, but the count's loops
    skip an empty walk: 5,585 of the 5,828 walks at 1e12 are empty, and
    passing them through took that count from 0.8 to 1.5 s."""
    A = isqrt(4 * Z + 1)
    a = np.arange(max(-A, -(-a_lo // u)), min(A, a_hi // u) + 1, dtype=np.int64)
    keep = per_row[a % len(per_row)] > 0
    if coprime:
        keep &= a % u != 0
    return a[keep]


def _list_pairs(cols: np.ndarray, los: np.ndarray, runs, layout):
    """``_block_pairs`` on b-intervals of columns with allowed b, from their ``_runs``."""
    flat, _, per_row, start, zero_free = layout
    n = len(per_row)
    row, lo_r, j0, count = runs
    iv = np.repeat(np.arange(len(count)), count)  # interval i, count[i] times
    e = np.arange(len(iv)) - np.repeat(np.cumsum(count) - count, count)  # 0, 1, ... each
    q, r = np.divmod(j0[iv] + e, per_row[row][iv])
    b = (los - lo_r - row * n)[iv] + n * q + flat[start[row][iv] + r]
    a = cols[iv]
    f = b * (a * a - 4 * b)
    keep = slice(None) if zero_free else f != 0
    return a[keep], b[keep], f[keep]


@cache
def _clause_mod128() -> np.ndarray:
    """Tate's f_2 = 0 on a family pair: b even, or b = (a/2)^2 + 64 mod 128."""
    a, b = np.ogrid[:128, :128]
    return (b % 2 == 0) | ((b - (a // 2) ** 2) % 128 == 64)


@cache
def _good_mod384() -> np.ndarray:
    """The family pairs with good reduction at 2 and 3 (Tate f_2 = f_3 = 0), as
    a read-only (384, 384) residue table: a count counts it, the Szpiro tail sweeps it.

    The family's criterion at 3 and its clause (a = 1 mod 4, b = 16 mod 32)
    at 2 agree with Tate's algorithm; on the odd-b clause (b odd, a = 6 mod 8)
    Tate gives f_2 = 0 exactly when b = (a/2)^2 + 64 mod 128, which a modulus
    of 96 cannot express.  So the table is the 96-table tiled 4x4 and the clause
    (``_clause_mod128``) tiled 3x3, with no full-grid int64 array, at the first
    call.  ``tests/oracles.py::good_family`` is the same predicate on (a, b).
    """
    table = np.tile(FAMILY_MOD96, (4, 4)) & np.tile(_clause_mod128(), (3, 3))
    table.flags.writeable = False
    return table


def _residue_table(use_family) -> np.ndarray:
    """The residue table of a sweep: True for the family, False for every
    residue, "good" for the family's good classes at 2 and 3 (``_good_mod384``)."""
    if use_family == "good":
        return _good_mod384()
    return FAMILY_MOD96 if use_family else _ALL_RESIDUES


@cache
def _sublattice(use_family, p: int):
    """``_layout`` of T_p[a, b] = T[p a mod n, p^2 b mod n], for the residue table
    T of use_family (``_residue_table``) and p prime to n: the (a, b) whose
    (p a, p^2 b) T admits."""
    table = _residue_table(use_family)
    k = np.arange(len(table))
    return _table_layout(table[p * k % len(k)][:, p * p * k % len(k)])


def _block_records(args) -> tuple[dict, np.ndarray]:
    """The records of one block of a-columns, in (a, b) order, as a table
    {name: 1-D array}: the int64 columns a, b, cond_poly, conductor and
    index_6, and the bool cubefree.
    Also the I*_n rows of the shared primes, as an int64 array with the four
    columns (a, b, p, n = v_p(Delta)).

    args is (Z, a_lo, a_hi, use_family), with use_family as for
    ``_residue_table``.  A prime p >= 5 divides both b and c = a^2 - 4b
    exactly when it divides both a and b (p | b and p | c give p | a^2 = c + 4b),
    so the shared primes are the primes p >= 5 of gcd(a, b), and
    |a| <= sqrt(4 Z + 1) keeps that gcd small (at a = 0 it is |b| <= sqrt(Z)/2).
    The shared primes get one row each, with columns v_p(b), v_p(c) and
    p^2 | a, which ``curve_core.additive_type`` reads: the rescaled-copy skip,
    the I*_n rows and the cube-free correction
    (v_p(bc) > 2).  Rows are dropped, by a gather of every column, only when
    some pair is a rescaled copy; otherwise a and b are ``_block_pairs``'s
    own arrays.

    On a minimal pair a prime p >= 5 dividing only one of b, c has conductor
    exponent 1, and one dividing both has exponent 2 (additive reduction).
    So the conductor is rad(b)_{6'} rad(c)_{6'} and the index is |bc|_{6'}
    over it.  The |b| and |c| of a block are profiled together, once per
    distinct value, and read back per row: at Z = 5e7 each value occurs about
    3.4 times in its block.
    """
    Z, a_lo, a_hi, use_family = args
    a, b, f = _block_pairs(Z, a_lo, a_hi, _residue_table(use_family))
    row, p = ar.prime_divisors(np.gcd(a, b))
    shared = p >= 5
    row, p = row[shared], p[shared]
    a_row, b_row = a[row], b[row]
    c = a * a - 4 * b
    v_b = ar.valuations(b_row, p)
    v_c = ar.valuations(c[row], p)
    non_minimal, kind = additive_type(v_b, v_c, a_row % (p * p) == 0)
    star = kind == ADDITIVE_TAGS.index("I*")  # I*_{n-6}, n = v_p(Delta)
    values, inv = np.unique(np.abs(np.concatenate([b, c])), return_inverse=True)
    (rad_b, rad_c), (part_b, part_c), (emax_b, emax_c) = (
        x[inv].reshape(2, -1) for x in ar.prime_to_6_profile(values))
    cond = rad_b * rad_c
    cubefree = (emax_b <= 2) & (emax_c <= 2)
    cubefree[row[v_b + v_c > 2]] = False
    table = {"a": a, "b": b, "cond_poly": np.abs(f), "conductor": cond,
             "index_6": part_b * part_c // cond, "cubefree": cubefree}
    if non_minimal.any():
        keep = np.ones(len(a), dtype=bool)
        keep[row[non_minimal]] = False
        star &= keep[row]
        table = _rows(table, keep, table)
    return table, np.column_stack((a_row, b_row, p, 2 * v_b + v_c))[star]


def _rows(table: dict, which, names) -> dict:
    """The rows of a table's named columns that a mask or index array selects."""
    return {name: table[name][which] for name in names}


def _blocks(Z: int, table: np.ndarray = FAMILY_MOD96) -> list[tuple[int, int]]:
    """Consecutive a-ranges (a_lo, a_hi) covering |a| <= sqrt(4 Z + 1): for the family table
    each about _PAIRS_PER_ROOT_Z * sqrt(Z) pairs wide, for a sparser table as much wider
    and for a denser one as much narrower, so that every block holds about as many rows.

    A column's width is its pair count up to rounding, with t = a^2: the gap
    sqrt(t^2 + 16 Z) / 4 between the outer roots minus the hole's
    sqrt(t^2 - 16 Z) / 4 once t^2 > 16 Z, in float64.  It depends on a^4, so
    it is summed over a >= 0, in place.  No column is wider than sqrt(Z).  The
    cut depends on Z and the table's density alone, and partials are merged in
    block order, so it changes no output.
    """
    A = isqrt(4 * Z + 1)
    tt = np.square(np.arange(A + 1, dtype=np.float64))
    tt *= tt
    cum = tt + 16.0 * Z
    np.sqrt(cum, out=cum)
    tt -= 16.0 * Z
    cum -= np.sqrt(np.maximum(tt, 0.0, out=tt), out=tt)
    np.cumsum(cum, out=cum)  # cum[k]: the columns 0..k; below, tt[k]: -A..-k, cum[k]: -A..k
    size = 4 * _PAIRS_PER_ROOT_Z * sqrt(Z) * FAMILY_MOD96.mean() / table.mean()
    tt[0] = cum[-1]
    np.subtract(cum[-1], cum[:-1], out=tt[1:])
    cum += cum[-1] - cum[0]
    tt //= size
    cum //= size
    starts = [-A, *(-np.flatnonzero(tt[:-1] != tt[1:])[::-1]).tolist(),
              *(np.flatnonzero(cum[1:] != cum[:-1]) + 1).tolist(), A + 1]
    return [(lo, hi - 1) for lo, hi in zip(starts, starts[1:])]


def _column_blocks(Z: int) -> list[tuple[int, int]]:
    """Consecutive a-ranges of _COLUMNS_PER_BLOCK columns covering |a| <= sqrt(4 Z + 1):
    the blocks of a count, whose work goes by columns, not rows."""
    A = isqrt(4 * Z + 1)
    return [(lo, min(lo + _COLUMNS_PER_BLOCK - 1, A)) for lo in range(-A, A + 1, _COLUMNS_PER_BLOCK)]


def _rescalings(Z: int) -> list[tuple[int, int]]:
    """(d, mu(d)) for the square-free d with primes >= 5 and d^8 <= Z, d = 1 first."""
    terms = [(1, 1)]
    for p in ar.primes_from_5(ar._iroot(Z, 8)).tolist():
        terms += [(d * p, -mu) for d, mu in terms if (d * p) ** 8 <= Z]
    return terms


def _pair_counts(Z: int, a_lo: int, a_hi: int, families: tuple) -> list[int]:
    """Per residue table (``_residue_table`` of each of families), the minimal
    pairs it admits with a_lo <= a <= a_hi and 0 < |b (a^2 - 4b)| <= Z, counted
    without listing.  The first table's rows must cover the others'.

    A pair (a, b) is a rescaled copy of (a / d^2, b / d^4) for every d with
    d^2 | a and d^4 | b, and b (a^2 - 4b) scales by d^8.  For d prime to 6
    the two are isomorphic at 2 and 3, so a table, a condition at 2 and 3,
    admits both or neither.  So by Moebius inversion over d (square-free,
    primes >= 5) the minimal pairs number sum mu(d) count(Z // d^8) over
    the columns a_lo / d^2 .. a_hi / d^2 (``_walk`` with u = d^2).  Each
    count is a sum over the b-intervals of ``_runs``'s closed form; a table
    that admits b (a^2 - 4b) = 0 loses b = 0 and b = a^2 / 4 per column.  All tables share
    each term's intervals.
    """
    layouts = [_table_layout(_residue_table(family)) for family in families]
    counts = [0] * len(families)
    for d, mu in _rescalings(Z):
        Zd = Z // d**8
        a = _walk(Zd, a_lo, a_hi, layouts[0][2], d * d)
        if not len(a):
            continue
        cols, los, his = _block_intervals(a, Zd)
        for i, layout in enumerate(layouts):
            below, n, zero_free = layout[1], len(layout[2]), layout[4]
            count = int(_runs(cols, los, his, layout)[-1].sum())
            if not zero_free:  # row k admits r when below[k, r + 1] > below[k, r]
                base, r = a % n * (n + 1), a * a // 4 % n
                count -= int(below[base + 1].sum()) + int(np.count_nonzero(
                    (a % 2 == 0) & (a != 0) & (below[base + r + 1] > below[base + r])))
            counts[i] += mu * count
    return counts


def _star_rows(Z: int, a_lo: int, a_hi: int, use_family) -> tuple[int, list]:
    """The I*_n rows at p >= 5 of the minimal pairs with a_lo <= a <= a_hi and
    0 < |b (a^2 - 4b)| <= Z: their number and the first ten in (a, b, p) order,
    as [a, b, p, n = v_p(Delta)].

    By ``curve_core.additive_type`` a minimal pair is I* at p exactly when
    (a, b) = (p a', p^2 b') with p not dividing a' and p dividing
    b' (a'^2 - 4b'): then f = b (a^2 - 4b) is p^4 f', p | f', so p^5 <= Z.  So
    the I* rows at p are the pairs of T_p = ``_sublattice(use_family, p)`` with
    |f'| <= Z // p^4 and those two conditions, on the columns a' prime to p
    (``_walk`` with u = p and coprime), listed by ``_list_pairs`` in
    runs of about _STAR_ROWS, less the rescaled copies at a prime q != p
    (q^2 | a', q^4 | b').  Each prime's rows come in (a, b) order, so the
    first ten are among the first ten of each.
    """
    found, first = 0, []
    for p in ar.primes_from_5(ar._iroot(Z, 5)).tolist():
        Zp = Z // p**4
        layout = _sublattice(use_family, p)
        a = _walk(Zp, a_lo, a_hi, layout[2], p, coprime=True)
        if not len(a):
            continue
        cols, los, his = _block_intervals(a, Zp)
        runs = _runs(cols, los, his, layout)
        ends = np.cumsum(runs[-1])
        copies = [q for q in ar.primes_from_5(ar._iroot(Zp, 8)).tolist() if q != p]
        ahead = 10
        for run in np.split(np.arange(len(cols)), np.flatnonzero(np.diff((ends - 1) // _STAR_ROWS)) + 1):
            a1, b1, f1 = _list_pairs(cols[run], los[run], [x[run] for x in runs], layout)
            keep = f1 % p == 0
            for q in copies:
                keep &= (a1 % (q * q) != 0) | (b1 % q**4 != 0)
            a1, b1 = a1[keep][:ahead], b1[keep][:ahead]
            found += int(np.count_nonzero(keep))
            first += [(p * x, p * p * y, p) for x, y in zip(a1.tolist(), b1.tolist())]
            ahead -= len(a1)
    first = sorted(first)[:10]
    if not first:
        return found, []
    a, b, p = np.array(first).T
    n = 2 * ar.valuations(b, p) + ar.valuations(a * a - 4 * b, p)
    return found, np.column_stack((a, b, p, n)).tolist()


def _count_block(args, cutoffs: tuple) -> tuple:
    """One block's share of a CondPoly census by |cond poly| (``run_census``),
    counted without listing a pair: ``_census_block``'s tuple for the same
    block.  The counts on the cutoff grid and at Z = X (``_pair_counts``), no
    tail or index-cap overflow, the I* rows (``_star_rows``), and the
    ``_predicate_vs_tate`` pair as two counts at X, of the family's table and
    of its Tate-exact classes (``_good_mod384``)."""
    X, a_lo, a_hi, use_family = args
    families = (use_family, "good") if use_family else (False, True, "good")
    at_x = _pair_counts(X, a_lo, a_hi, families)
    counts = [at_x[0] if cut == X else _pair_counts(cut, a_lo, a_hi, families[:1])[0]
              for cut in cutoffs]
    family, good = at_x[-2:]
    return (np.array(counts, dtype=np.int64), at_x[0], 0, 0, *_star_rows(X, a_lo, a_hi, use_family),
            family, family - good)


def _sweep_block(args, reduce):
    """One block's partial: its table and I* rows (``_block_records``),
    reduced in the process that swept them."""
    return reduce(*_block_records(args))


def _add(partials):
    """Block partials summed field by field: counts and count arrays add,
    lists concatenate."""
    return tuple(sum(field[1:], field[0]) for field in zip(*partials))


def _census_records(Z: int, block, workers: int = 1, use_family=True, counting: bool = False):
    """Every minimal (family) curve with |cond poly| <= Z, block by block,
    each block reduced to a partial in the process that takes it.

    block(args) is one block's partial, args = (Z, a_lo, a_hi, use_family),
    use_family picking the residue table (``_residue_table``).  A sweep's
    block is ``_sweep_block`` with a reducer, on the blocks of ``_blocks``;
    with counting set the blocks are ``_column_blocks`` and block is
    ``_count_block``.  block runs in the worker and must be picklable: a
    module-level function or a ``functools.partial`` of one.  The partials
    are summed in block order (``_add``), so the calling process holds no row,
    only the sum.
    """
    kind, limit = ("count", _MAX_COUNT_Z) if counting else ("sweep", _MAX_Z)
    if Z > limit:
        raise ValueError(f"region bound beyond the limit {limit} of a census {kind}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cut = _column_blocks(Z) if counting else _blocks(Z, _residue_table(use_family))
    blocks = [(Z, a_lo, a_hi, use_family) for a_lo, a_hi in cut]
    # a fork pool starts all its processes at the first submit: ask for no more than can work
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        return _add(map(block, blocks))
    # imported here: it loads multiprocessing, which a one-worker run never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _add(pool.map(block, blocks))


@dataclass(frozen=True)
class CensusConfig:
    X: int
    family: str = "CondPoly"
    kappa: Optional[float] = None
    order_by: str = "CondPoly"
    index_cap: int = 10**4
    good_reduction_filter: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if self.X < 1:
            raise ValueError("X must be >= 1")
        if self.family not in local_density.FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "Kappa":
            if self.kappa is None or not 1 < self.kappa < KAPPA_MAX:
                raise ValueError(f"Kappa family needs 1 < kappa < {KAPPA_MAX}")
        elif self.kappa is not None:
            raise ValueError("kappa only applies to the Kappa family")
        if self.order_by not in ("Conductor", "CondPoly"):
            raise ValueError(f"unknown ordering {self.order_by!r}")
        if self.index_cap < 1:
            raise ValueError("index_cap must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class CensusReport:
    config: CensusConfig
    cutoffs: tuple
    counts: tuple
    predicted: tuple
    ratios: tuple
    total_curves: int
    tails: dict
    anomalies: dict
    caveat: Optional[str]


def _default_cutoffs(X: int) -> tuple:
    cuts = []
    d = 10
    while d < X:
        cuts.append(d)
        d *= 10
    cuts.append(X)
    return tuple(cuts)


def _predicate_vs_tate(a: np.ndarray, b: np.ndarray, in_family: bool) -> tuple[int, int]:
    """The curves (a, b) in the mod-96 predicate, and those of them that
    Tate's algorithm finds bad at 2: outside the clause at (a & 127, b & 127),
    read in a third of the time of ``_good_mod384`` at (a % 384, b % 384).  The
    predicate is exact at 3 (3 divides no b (a^2 - 4b) it admits), and its
    Tate-exact part ``_good_mod384`` is it and ``_clause_mod128``.  Rows not
    swept from the predicate's classes (in_family false) are looked up in it.
    """
    if not in_family:
        fam = FAMILY_MOD96.ravel()[a % 96 * 96 + b % 96]
        a, b = a[fam], b[fam]
    cell = (a & 127) << 7 | b & 127
    return len(a), len(a) - int(np.count_nonzero(_clause_mod128().ravel()[cell]))


# The parameters of the one tail a CubeFree or Kappa report carries
# (``_census_block`` counts it), and its name in the report.
_TAIL_DELTA, _TAIL_THETA = 0.1, 0.25
_TAILS = {"CubeFree": f"index_tail_delta_{_TAIL_DELTA}", "Kappa": f"szpiro_tail_theta_{_TAIL_THETA}"}


def _census_block(table: dict, star: np.ndarray, config: CensusConfig, cutoffs: tuple):
    """One block's share of a ``run_census`` report, as a tuple that ``_add``
    merges: the counts on the cutoff grid, the curves counted, the family's
    tail (``_TAILS``), the index-cap overflow, the I* row count and its first
    ten rows as (a, b, p, v_p(Delta)) ints, and the ``_predicate_vs_tate``
    pair.  All but the I* rows refer to the counted curves: the family's rows
    in the window, after the Kappa filter."""
    X = config.X
    key = "cond_poly" if config.order_by == "CondPoly" else "conductor"
    # the columns read below: a gather copies only these
    names = {key, "a", "b", "index_6", *(("conductor",) if config.family == "Kappa" else ())}
    if config.family == "CubeFree":
        table = _rows(table, table["cubefree"], names)
    window = table[key] <= X
    szpiro = np.zeros(0)
    if config.family == "Kappa":
        table = _rows(table, window & (table["conductor"] > 1), names)
        # |b| without its 2s and 3s: 2^62 and 3^39 are the top powers in int64
        part_b = np.abs(table["b"])
        part_b //= np.gcd(part_b, 1 << 62)
        part_b //= np.gcd(part_b, 3**39)
        part_c = table["index_6"] * table["conductor"] // part_b
        cols = (table["a"], table["b"], part_b, part_c, table["conductor"])
        szpiro = np.array([avg_szpiro_of_parts(*row) for row in zip(*(c.tolist() for c in cols))])
        kept = szpiro <= config.kappa
        table, szpiro = _rows(table, kept, names), szpiro[kept]
    elif not window.all():  # under CondPoly ordering Z = X: the window is the whole block
        table = _rows(table, window, names)
    # the curves with key in (cutoffs[i - 1], cutoffs[i]] land in bin i
    bins = np.bincount(np.searchsorted(cutoffs, table[key]), minlength=len(cutoffs) + 1)
    return (
        np.cumsum(bins[:len(cutoffs)]),
        len(table[key]),
        int(np.count_nonzero(table["index_6"] > X ** (2 * _TAIL_DELTA))
            if config.family == "CubeFree" else np.count_nonzero(szpiro > 1.5 + _TAIL_THETA)),
        int(np.count_nonzero(table["index_6"] > config.index_cap))
        if config.order_by == "Conductor" else 0,
        len(star),
        star[:10].tolist(),
        *_predicate_vs_tate(table["a"], table["b"], config.good_reduction_filter),
    )


def run_census(
    config: CensusConfig,
    cutoffs: Optional[tuple] = None,
    euler_tol: Optional[float] = None,
) -> CensusReport:
    """Count family curves against the X^{3/4} prediction on a cutoff grid.

    Besides the counts, the report's anomalies give the shared-prime symbols
    outside {III, I0*, III*}, the index-cap overflow under conductor ordering
    and, as ``predicate_oracle_2_3``, the counted curves in the mod-96
    predicate and those of them bad at 2 by Tate (``_predicate_vs_tate``).
    The CondPoly family by |cond poly| is counted, block by block of columns
    (``_count_block``).  Every other kind is swept, and each block reduced
    where it is swept (``_census_block``).  Either way no process holds more
    than one block's records, and only the ten printed I* examples are
    formatted.
    """
    X = config.X
    cutoffs = tuple(sorted(set(cutoffs))) if cutoffs else _default_cutoffs(X)
    if cutoffs[-1] > X:
        raise ValueError("cutoffs beyond config.X")
    Z = X if config.order_by == "CondPoly" else X * config.index_cap
    counting = config.family == "CondPoly" and config.order_by == "CondPoly"
    block = (partial(_count_block, cutoffs=cutoffs) if counting else
             partial(_sweep_block, reduce=partial(_census_block, config=config, cutoffs=cutoffs)))
    (counts, total, tail, overflow, out_of_list, star, family_curves,
     bad_at_2) = _census_records(Z, block, workers=config.workers,
                                 use_family=config.good_reduction_filter, counting=counting)
    counts = tuple(counts.tolist())

    const = local_density.mt1_constant(config.family, tol=euler_tol)  # None: the default
    predicted = tuple(const * c ** 0.75 for c in cutoffs)
    ratios = tuple(n / p for n, p in zip(counts, predicted))

    tails = {_TAILS[config.family]: tail} if config.family in _TAILS else {}

    caveat = None
    if config.order_by == "Conductor":
        caveat = (
            f"conductor ordering sees only |cond poly| <= {Z}; curves of conductor"
            f" <= {X} with index beyond {config.index_cap} * (X/C) are invisible"
        )

    anomalies = {
        "out_of_list_symbols": out_of_list,
        "out_of_list_examples": [(a, b, p, str(KodairaSymbol("I*", n - 6)))
                                 for a, b, p, n in star[:10]],
        "index_cap_overflow": overflow,
        "predicate_oracle_2_3": {"family_curves": family_curves, "bad_at_2": bad_at_2},
    }
    return CensusReport(
        config=config,
        cutoffs=cutoffs,
        counts=counts,
        predicted=predicted,
        ratios=ratios,
        total_curves=total,
        tails=tails,
        anomalies=anomalies,
        caveat=caveat,
    )


# ---------------------------------------------------------------------------
# Tail statistics.
# ---------------------------------------------------------------------------


# A tails grid is served by one sweep at |cond poly| <= 100 max(grid): a
# record depends on (a, b) alone, so that sweep's rows with |cond poly| <= 100 X
# are the sweep at 100 X.  Each block counts its own rows for every X of the
# grid, and the per-X counts add up over the blocks.


def _index_tail_block(table: dict, _star, grid: tuple, delta: float) -> tuple:
    """One block's ``tail_counts_index``, per X in grid."""
    table = _rows(table, table["cubefree"], ("cond_poly", "conductor", "index_6"))
    return (np.array([
        np.count_nonzero((table["cond_poly"] <= X * TAIL_INDEX_CAP)
                         & (table["conductor"] <= X) & (table["index_6"] > X ** (2 * delta)))
        for X in grid]),)


def _szpiro_tail_block(table: dict, _star, grid: tuple, theta: float, kappa: float) -> tuple:
    """One block's ``tail_counts_szpiro``, per X in grid."""
    table = _rows(table, table["conductor"] > 1, ("cond_poly", "conductor", "index_6"))
    cond = table["conductor"]
    ratio = (3 * np.log((table["index_6"] * cond).astype(np.float64))
             / (2 * np.log(cond.astype(np.float64))))
    band = (1.5 + theta < ratio) & (ratio <= kappa)
    return (np.array([
        np.count_nonzero(band & (table["cond_poly"] <= X * TAIL_INDEX_CAP) & (cond <= X))
        for X in grid]),)


def tail_counts_index(grid, delta: float, workers: int = 1) -> list[int]:
    """Per X in grid, in grid order: cube-free family curves with conductor <= X
    and index > X^{2 delta}, all from one sweep.

    Index and cube-freeness refer to the prime-to-6 part of the conductor
    polynomial.  The window is |cond poly| <= 100 X, so indices beyond
    100 X / C are invisible; the X-grid decay statistic uses the same window
    at every X, which is what makes the ratios comparable.
    """
    if not 0 < delta < 0.5:
        raise ValueError("need 0 < delta < 1/2")
    grid = tuple(grid)
    (counts,) = _census_records(
        max(grid) * TAIL_INDEX_CAP, workers=workers,
        block=partial(_sweep_block, reduce=partial(_index_tail_block, grid=grid, delta=delta)))
    return counts.tolist()


def tail_counts_szpiro(grid, theta: float, kappa: float, workers: int = 1) -> list[int]:
    """Per X in grid, in grid order: curves with conductor <= X and
    3/2 + theta < avg Szpiro <= kappa, all from one sweep.

    Only curves with good reduction at 2 and 3 count, so the conductor is
    the prime-to-6 conductor the records carry.  The sweep generates only
    their classes (``_good_mod384``), an eighth of the family's pairs, so
    every row it returns is good there.  The ratios use minimal
    discriminants for E and phi(E), and the window is |cond poly| <= 100 X,
    as for ``tail_counts_index``.

    On a curve with good reduction at 2 and 3, Delta_min is prime to 6 for E
    and for phi(E), with p-adic valuations 2 v_p(b) + v_p(c) and
    v_p(b) + 2 v_p(c) (c = a^2 - 4b).  Their product is (index_6 * C)^3, so
    the average Szpiro ratio is 3 log(index_6 * C) / (2 log C), read off the
    record; ``avg_szpiro`` is the per-curve oracle the tests compare against.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    if not 1 < kappa < KAPPA_MAX:
        raise ValueError(f"need 1 < kappa < {KAPPA_MAX}")
    grid = tuple(grid)
    (counts,) = _census_records(
        max(grid) * TAIL_INDEX_CAP, workers=workers, use_family="good",
        block=partial(_sweep_block, reduce=partial(_szpiro_tail_block, grid=grid, theta=theta,
                                                   kappa=kappa)))
    return counts.tolist()
