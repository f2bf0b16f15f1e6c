"""Exact integer arithmetic: factorization, primality and valuations.

Everything downstream (reduction types, conductors, censuses, tail statistics)
consumes factorizations produced here.  The workhorse for batches is a
smallest-prime-factor table of 2^16 entries, built at import and never grown.
A batch of int64 values is factored by one peel (``_peel``): against the
table below it, by bulk trial division above it, to the square root of the
largest value or, for ``prime_to_6_profile``, to its cube root, where the
cofactor left of each value is 1, a prime, a prime square or a product of
two primes.  ``prime_to_6_profile`` folds the peel of each value's
prime-to-6 part into radicals and largest exponents, ``prime_divisors``
lists the primes it finds, and ``valuations`` gives v_p entry by entry.  A
lone value of any size is factored one way: the primes p <= min(sqrt(n),
10^5) that divide it are found in one step and divided out, then the
cofactor goes through Miller-Rabin, a perfect-square split and Pollard rho
with Brent cycling.  Below 2^52 that step is a float64 test,
floor(n / p) p == n, which is exact there because every product it forms
is an integer below 2^53 (``_trial_hits``).  ``is_prime`` looks a lone n up
in a memoryview of the SPF table and gets a Python int.

Negative inputs carry an explicit sign; all divisibility logic runs on |n|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# The SPF table's size. Small, so importing the package stays cheap.
_INITIAL_SIEVE = 1 << 16

# Miller-Rabin witnesses: the first 13 primes, deterministic for
# n < 3317044064679887385961981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, the first k primes): psi_k is the least strong pseudoprime to the
# first k prime bases, so they decide every n < psi_k (Jaeschke, Math. Comp.
# 61 (1993); Sorenson and Webster, Math. Comp. 86 (2017)).  psi_8 = psi_7 and
# psi_10 = psi_11 = psi_9.
_MR_SIZED = tuple((psi, _MR_BASES[:k]) for psi, k in (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
    (318665857834031151167461, 12),
))


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (plain Eratosthenes, not the SPF table)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_p[p]:
            is_p[p * p:: p] = False
    return np.nonzero(is_p)[0].astype(np.int64)


def primes_from_5(n: int) -> np.ndarray:
    """The primes 5 <= p <= n as an int64 array: the primes prime to 6."""
    return primes_up_to(n)[2:]


class _SpfSieve:
    """Smallest-prime-factor table of _INITIAL_SIEVE entries.

    spf[n] = smallest prime factor of n (spf[0] = spf[1] = 0).  The table is
    immutable, so reads are safe for concurrent use and forked workers share it.
    One buffer has two views: the numpy array, which the batch peel indexes
    with arrays, and a memoryview of it, which ``is_prime`` indexes with one
    int.  A memoryview item is a Python int read off the buffer,
    with no copy and at about a quarter of the cost of ``int(array[n])``; a
    ``tolist()`` of the table would add milliseconds to the import.
    """

    def __init__(self) -> None:
        self._spf = self._build(_INITIAL_SIEVE)
        self._view = memoryview(self._spf)

    @staticmethod
    def _build(limit: int) -> np.ndarray:
        """spf[0..limit] by a plain sieve.

        Every slot starts as itself; then each prime p <= sqrt(limit), largest
        first, writes p over p^2, p^2 + p, ...  The smallest prime factor
        writes last, so no write has to read the slot first.
        """
        spf = np.arange(limit + 1, dtype=np.uint32)
        for p in primes_up_to(math.isqrt(limit))[::-1].tolist():
            spf[p * p:: p] = p
        spf[1] = 0
        return spf

    @property
    def limit(self) -> int:
        return len(self._spf) - 1

    def array(self) -> np.ndarray:
        return self._spf


_sieve = _SpfSieve()


@cache
def _trial_primes() -> tuple[np.ndarray, np.ndarray]:
    """The primes to 10**5 and their float64 twin, for ``_trial_hits`` below
    2^52: enough to trial-divide anything <= 10**10 down to a cofactor that
    is 1, prime, or a two-prime product for rho.  Built at the first call."""
    primes = primes_up_to(10**5)
    return primes, primes.astype(np.float64)


def is_prime(n: int) -> bool:
    """spf[n] == n where the SPF table covers n (it always covers n <= 2^16),
    read off the table's memoryview.

    Above the table, trial division by the first 13 primes, then Miller-Rabin
    with the first k primes as witnesses for the least k with n < psi_k
    (``_MR_SIZED``): 2 bases below 1373653, 5 below 2152302898747 (about
    2^41), 12 below 318665857834031151167461.  From there on all 13, a proof
    for n < 3317044064679887385961981 and a strong probable-prime test above
    it.
    """
    if n < 2:
        return False
    view = _sieve._view
    if n < len(view):
        return view[n] == n
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    bases = _MR_BASES
    for psi, sized in _MR_SIZED:
        if n < psi:
            bases = sized
            break
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


# Polynomial steps one Pollard rho call may take, over its whole sweep of c:
# enough for a smallest prime factor up to about 10^11, and about a second of
# work on a 40-digit n before it gives up.
_RHO_STEPS = 1 << 21


class FactoringBudgetError(ArithmeticError):
    """Pollard rho took its step budget without splitting a composite."""


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent-cycle Pollard rho).

    Raises FactoringBudgetError once _RHO_STEPS steps find none.
    """
    if n % 2 == 0:
        return 2
    steps = 0
    # Deterministic parameter sweep keeps factorize() reproducible.
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            steps += 2 * r  # this round's steps, at most
            if steps > _RHO_STEPS:
                raise FactoringBudgetError(
                    f"Pollard rho found no factor of {n} in {_RHO_STEPS} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise FactoringBudgetError(f"Pollard rho found no factor of {n} with c < 100")


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p**e) == value; primes strictly increasing, exponents >= 1."""

    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value == 0:
            raise ValueError("zero has no factorization")


def _trial_hits(n: int) -> list[int]:
    """The primes p <= min(sqrt(n), 10^5) that divide n >= 1, in one step.

    Below 2^52 it is a float64 test, floor(n / p) * p == n over the primes'
    float twin, and it is exact: n and p are doubles, and rounding is
    monotone, so the rounded quotient lies between the integers floor(n / p)
    and ceil(n / p), which are doubles too.  Its floor q is one of them, so
    q p <= n + p < 2^53 and the product is exact.  It equals n only when
    q = n / p, that is when p | n.  Up to 2^63 the test is an int64
    remainder (about twice as slow), and past it a Python-int test.
    """
    primes, twin = _trial_primes()
    k = np.searchsorted(primes, math.isqrt(n), side="right")
    primes = primes[:k]
    if n < 1 << 52:
        twin = twin[:k]
        q = np.divide(n, twin)
        np.floor(q, out=q)
        q *= twin
        return primes[q == n].tolist()
    if n < 1 << 63:
        return primes[n % primes == 0].tolist()
    return [p for p in primes.tolist() if n % p == 0]


def _factor_abs(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 into sorted (prime, exponent) pairs.

    The trial primes that divide n come from ``_trial_hits`` and their
    powers are divided out; the cofactor left is split by a stack of
    Miller-Rabin, the perfect-square test and Pollard-Brent.
    """
    out: dict[int, int] = {}
    for p in _trial_hits(n):
        out[p] = _vp(n, p)
        n //= p ** out[p]
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend((r, r))
            continue
        d = _pollard_brent(m)
        stack.extend((d, m // d))
    return sorted(out.items())


def factorize(n: int) -> Factorization:
    """Factorization of a nonzero integer; deterministic.

    Exact for |n| < 3317044064679887385961981.  Above that a factor declared
    prime has passed ``is_prime``'s strong probable-prime test, not a proof.
    """
    if n == 0:
        raise ValueError("cannot factorize 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    if m == 1:
        return Factorization(n, sign, ())
    return Factorization(n, sign, tuple(_factor_abs(m)))


def _vp(n: int, p: int) -> int:
    """Largest e with p**e | n, for n != 0 and p >= 2 (the one valuation loop)."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r^k <= n, for n >= 0."""
    r = int(round(n ** (1 / k)))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _divide_out(rem: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Divide each rem in place by the full power of its p, which divides it;
    return that power's exponent per entry."""
    rem //= p
    e = np.ones_like(p)
    hit = np.flatnonzero(rem % p == 0)
    while hit.size:
        rem[hit] //= p[hit]
        e[hit] += 1
        hit = hit[rem[hit] % p[hit] == 0]
    return e


def _peel(n: np.ndarray, power: int = 2):
    """Yield (at, p, e) int64 arrays with p^e exactly dividing n[at], until
    every prime power of every value n >= 2 has been yielded once.

    Values above the SPF table are trial-divided in bulk by each prime p up
    to the power-th root of max n; a cofactor m drops out once p^power > m.
    Every prime of m is then >= p, so m has fewer than power of them.  With
    power 2, m is 1 or a prime.  With power 3 (``prime_to_6_profile``), m is
    1, q, q^2 or q q', and the last batch yields radicals rather than primes:
    (isqrt(m), 2) for a square, (m, 1) otherwise.  Values in the table are
    peeled against it, one prime per pass over the unfinished values.  Each
    batch is yielded as it is found, so a caller that folds them holds one
    batch at a time.
    """
    spf = _sieve.array()
    big = n >= len(spf)
    at = np.flatnonzero(big)
    rem = n[at]
    top = _iroot(int(rem.max()), power) if rem.size else 0
    for p in [*primes_up_to(top).tolist(), top + 1]:  # top + 1 retires all
        live = rem >= p**power
        if not live.all():
            done = ~live & (rem > 1)
            m = rem[done]
            e = np.ones_like(m)
            if power == 3:
                # the float root is exact on squares, which are below 2^53
                r = np.rint(np.sqrt(m)).astype(np.int64)
                square = r * r == m
                m[square], e[square] = r[square], 2
            yield at[done], m, e
            at, rem = at[live], rem[live]
            if not at.size:
                break
        hit = np.flatnonzero(rem % p == 0)
        if hit.size:
            cofactor, q = rem[hit], np.full(hit.size, p, dtype=np.int64)
            yield at[hit], q, _divide_out(cofactor, q)
            rem[hit] = cofactor

    at = np.flatnonzero(~big & (n > 1))
    rem = n[at]
    while at.size:
        p = spf[rem].astype(np.int64)
        yield at, p, _divide_out(rem, p)
        more = rem > 1
        at, rem = at[more], rem[more]


def valuations(values, primes) -> np.ndarray:
    """v_p(n) >= 1 per entry, for int64 arrays of n and of primes p dividing them."""
    return _divide_out(np.abs(np.asarray(values, dtype=np.int64)),
                       np.asarray(primes, dtype=np.int64))


def prime_divisors(values) -> tuple[np.ndarray, np.ndarray]:
    """(row, p) for every prime p of every value n >= 2, sorted by row, then by p."""
    found = [(np.zeros(0, dtype=np.int64),) * 3, *_peel(np.asarray(values, dtype=np.int64))]
    row, p, _ = (np.concatenate(col) for col in zip(*found))
    order = np.lexsort((p, row))
    return row[order], p[order]


def prime_to_6_profile(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per nonzero value n: (rad, part, emax) of its primes p >= 5, as int64 arrays.

    rad is the product of the primes p >= 5 dividing n, part is |n| with its
    powers of 2 and 3 removed, and emax is the largest v_p(n) over p >= 5
    (0 when there is none).  rad and emax are folds over one batch peel of
    part that stops trial division at the cube root (``_peel`` with power
    3): its last batch gives each cofactor's radical and exponent, 2 for a
    prime square and 1 for a prime or a product of two.  |n| is at most 2^40.
    """
    n = np.abs(np.asarray(values, dtype=np.int64))
    if (n == 0).any():
        raise ValueError("expected nonzero values")
    if (n > 1 << 40).any():  # keeps the trial primes, to cbrt(max |n|), below 2^14
        raise ValueError("values beyond 2^40")
    part = n.copy()
    for q in (2, 3):
        at = np.flatnonzero(part % q == 0)
        rest = part[at]
        _divide_out(rest, np.full(at.size, q, dtype=np.int64))
        part[at] = rest
    rad = np.ones_like(n)
    emax = np.zeros_like(n)
    for at, p, e in _peel(part, 3):  # at holds each row at most once
        rad[at] *= p
        emax[at] = np.maximum(emax[at], e)
    return rad, part, emax
