"""Invariants and local reduction data for curves E_{a,b}: y^2 = x(x^2 + ax + b).

Two classifiers fill ``LocalReduction`` from the same valuations of a, b and
c = a^2 - 4b, and are cross-checked against each other:

* kodaira_symbol_large_p: the rule at p >= 5 on a p-minimal pair.  With
  n = 2 v_p(b) + v_p(c), p dividing neither b nor c is good, p dividing one
  is I_n, and p dividing both is III (n = 3), I0* (n = 6), III* (n = 9 with
  p^2 | a) or I*_{n-6}; no other type occurs at p >= 5.  It refuses
  non-minimal inputs (p^2 | a and p^4 | b).  It checks that p is a prime
  >= 5, returns Good after one remainder when p does not divide bc, and
  otherwise calls ``_kodaira_large_p``, which ``reduction`` calls directly
  on the primes of its factorizations.
* tate_algorithm: Tate's algorithm on general Weierstrass coefficients, valid
  at every prime including 2 and 3, with non-minimal restarts.  This is the
  ground-truth oracle; any disagreement with the rule is a reportable
  defect, not something to paper over.  Step 6 is in closed form at every
  p (``_step6_shift``), and every internal check raises ClassificationError,
  so ``python -O`` keeps them.

Tate's algorithm takes no shortcut at a prime that does not divide bc: it
finds Good at its first step, so the oracle checks the rule's good exit too.

Conductor exponents come from the Ogg-Saito relation f = v(Delta_min) - m + 1
where m is the number of components of the special fiber.

reduction(c) classifies every bad prime of the minimal pair, from one
factorization each of b and a^2 - 4b; the conductor, the prime-to-6 index,
|Delta_min| and the Szpiro ratios are read off that record.  Tate's
algorithm runs at most once per (model, prime): on E and on phi(E) at 2,
and at 3 when 3 | bc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import arithmetic as ar
from .arithmetic import _vp


class NonMinimalModelError(ValueError):
    """p^2 | a and p^4 | b at a prime p >= 5: (a/p^2, b/p^4) is the minimal model."""


class ClassificationError(AssertionError):
    """An internal check of Tate's algorithm failed, or two classifiers disagree."""


@dataclass(frozen=True)
class CurveParams:
    """Integer pair (a, b) with b != 0 and a^2 - 4b != 0 (so Delta != 0)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.b == 0:
            raise ValueError("b = 0 gives a singular curve")
        if self.a * self.a - 4 * self.b == 0:
            raise ValueError("a^2 - 4b = 0 gives a singular curve")


_TAGS_WITH_N = {"I", "I*"}
_TAGS = {"Good", "I", "II", "III", "IV", "I0*", "I*", "IV*", "III*", "II*"}

# Number of special-fiber components per type (I_n -> n, I_nu* -> 5 + nu).
_COMPONENTS = {"Good": 1, "II": 1, "III": 2, "IV": 3, "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}


@dataclass(frozen=True)
class KodairaSymbol:
    tag: str
    n: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise ValueError(f"unknown tag {self.tag!r}")
        if self.tag in _TAGS_WITH_N:
            if self.n is None or self.n < 1:
                raise ValueError(f"tag {self.tag} needs n >= 1")
        elif self.n is not None:
            raise ValueError(f"tag {self.tag} takes no n")

    def components(self) -> int:
        if self.tag == "I":
            return self.n
        if self.tag == "I*":
            return 5 + self.n
        return _COMPONENTS[self.tag]

    def __str__(self) -> str:
        if self.tag == "I":
            return f"I{self.n}"
        if self.tag == "I*":
            return f"I{self.n}*"
        return self.tag


GOOD = KodairaSymbol("Good")


@dataclass(frozen=True)
class LocalReduction:
    """Per-prime reduction data.  v_a is None when a = 0 (infinite valuation).

    v_b and v_c are the valuations of b and c = a^2 - 4b, v_disc that of the
    literal discriminant 16 b^2 c, and v_disc_min that of the minimal
    discriminant at p.  At p >= 5 the symbol is Good, I_n (f = 1), or one of
    III, I0*, I_n* and III* (f = 2): the rule in ``kodaira_symbol_large_p``.
    At 2 and 3 Tate's algorithm may give any type.
    """

    p: int
    v_a: Optional[int]
    v_b: int
    v_c: int
    v_disc: int
    symbol: KodairaSymbol
    conductor_exponent: int
    v_disc_min: int


def discriminant(c: CurveParams) -> int:
    """Delta of y^2 = x(x^2 + ax + b): 16 b^2 (a^2 - 4b)."""
    return 16 * c.b * c.b * (c.a * c.a - 4 * c.b)


def conductor_polynomial(c: CurveParams) -> int:
    """b (a^2 - 4b), the proxy height; never zero on valid input."""
    return c.b * (c.a * c.a - 4 * c.b)


def c_invariants(c: CurveParams) -> tuple[int, int]:
    """(c4, c6) of the model (a1..a6) = (0, a, 0, b, 0)."""
    a, b = c.a, c.b
    c4 = 16 * (a * a - 3 * b)
    c6 = -32 * a * (2 * a * a - 9 * b)
    return c4, c6


# The 2,3 family, written once: on Python ints and int64 arrays alike (hence
# & and |), for the predicates below and FAMILY_MOD96.


def family_at_2(a, b):
    """Congruence criterion at 2: (b odd and a = 6 mod 8) or (a = 1 mod 4 and b = 16 mod 32)."""
    return ((b % 2 == 1) & (a % 8 == 6)) | ((a % 4 == 1) & (b % 32 == 16))


def family_at_3(a, b):
    """Congruence criterion at 3: (3 not| a and b = 2 mod 3) or (3 | a and 3 not| b)."""
    return ((a % 3 != 0) & (b % 3 == 2)) | ((a % 3 == 0) & (b % 3 != 0))


def in_family(c: CurveParams) -> bool:
    return family_at_2(c.a, c.b) & family_at_3(c.a, c.b)


# The family as a residue table: FAMILY_MOD96[a mod 96, b mod 96] is True
# exactly on the 288 classes it admits (the congruences read a and b mod 32
# and mod 3).  The census sweep and local_density read it.
FAMILY_MOD96 = family_at_2(*np.ogrid[:96, :96]) & family_at_3(*np.ogrid[:96, :96])
FAMILY_MOD96.flags.writeable = False


def _valuations(a: int, b: int, p: int) -> tuple[Optional[int], int, int, int]:
    """(v_a, v_b, v_c, v_disc) at p: of a (None when a = 0), b, c = a^2 - 4b and 16 b^2 c."""
    v_b, v_c = _vp(b, p), _vp(a * a - 4 * b, p)
    return None if a == 0 else _vp(a, p), v_b, v_c, (4 if p == 2 else 0) + 2 * v_b + v_c


# The additive rule at p >= 5, written once: on Python ints and int64 arrays
# alike (hence & and arithmetic on flags), for kodaira_symbol_large_p and the
# census's shared-prime columns.

ADDITIVE_TAGS = ("III", "I0*", "III*", "I*")


def additive_type(v_b, v_c, a_deep):
    """The reduction type at p >= 5 where p divides both b and c = a^2 - 4b.

    a_deep is p^2 | a.  Returns (non_minimal, kind).  non_minimal is p^2 | a
    and p^4 | b: the model is not p-minimal and kind means nothing.  Otherwise
    kind indexes ADDITIVE_TAGS by n = 2 v_b + v_c: III at n = 3, I0* at
    n = 6, III* at n = 9 with p^2 | a, and I*_{n-6} (kind 3) at every other n.
    """
    n = 2 * v_b + v_c
    kind = 3 - 3 * (n == 3) - 2 * (n == 6) - ((n == 9) & a_deep)
    return a_deep & (v_b >= 4), kind


def kodaira_symbol_large_p(c: CurveParams, p: int) -> LocalReduction:
    """Reduction at p >= 5 of a p-minimal pair, read off v_p(b), v_p(c) and p^2 | a.

    With c = a^2 - 4b and n = v_p(Delta) = 2 v_p(b) + v_p(c):

    * p divides neither b nor c: good reduction.
    * p divides exactly one of them: I_n, f = 1 (p does not divide c4 = 16(c + b)).
    * p divides both, so p | a^2 = c + 4b: additive, f = 2, typed by
      ``additive_type``.  n = 3 gives III, n = 6 gives I0*, n = 9 with p^2 | a
      gives III*, every other n I*_{n-6}.

    Derivation in the additive case, by v_b = v_p(b):
      v_b = 1: v_p(a^2) >= 2 > v_b, so v_c = 1 and n = 3.
      v_b = 2: p^2 | a gives v_c = 2, n = 6.  v_p(a) = 1 leaves v_c = k >= 2
        free: n = 4 + k, I0* at k = 2 and I*_{k-2} beyond (n = 9 at k = 5).
      v_b = 3: p^2 | a gives v_c = 3, n = 9: III*.  v_p(a) = 1 gives v_c = 2,
        n = 8: I2*.
      v_b >= 4: v_p(a) = 1 gives v_c = 2, n = 2 v_b + 2 >= 10.  p^2 | a makes
        the model non-minimal: u = p takes (a, b) to (a/p^2, b/p^4).
    So II, IV, IV* and II* never occur on this family at p >= 5.

    Raises NonMinimalModelError when p^2 | a and p^4 | b, and ValueError
    when p is not a prime >= 5.
    """
    if p < 5 or not ar.is_prime(p):
        raise ValueError(f"requires a prime p >= 5, got {p}")
    a, b = c.a, c.b
    if b * (a * a - 4 * b) % p:  # good: every valuation but v_a is 0
        return LocalReduction(p, None if a == 0 else _vp(a, p), 0, 0, 0, GOOD, 0, 0)
    return _kodaira_large_p(a, b, p)


def _kodaira_large_p(a: int, b: int, p: int) -> LocalReduction:
    """``kodaira_symbol_large_p`` at a prime p >= 5 that divides bc.

    ``reduction`` calls it on the primes of its factorizations, which all
    divide Delta = 16 b^2 (a^2 - 4b).
    """
    v_a, v_b, v_c, n = _valuations(a, b, p)
    if v_b == 0 or v_c == 0:
        sym, f = KodairaSymbol("I", n), 1
    else:
        non_minimal, kind = additive_type(v_b, v_c, v_a is None or v_a >= 2)
        if non_minimal:
            raise NonMinimalModelError(f"p^2 | a and p^4 | b at p={p}: the model is not minimal")
        tag = ADDITIVE_TAGS[kind]
        sym, f = KodairaSymbol(tag, n - 6 if tag == "I*" else None), 2
    return LocalReduction(p, v_a, v_b, v_c, n, sym, f, v_disc_min=n)


# ---------------------------------------------------------------------------
# Tate's algorithm on general integral Weierstrass coefficients.
# ---------------------------------------------------------------------------

Coeffs = tuple[int, int, int, int, int]


def _b_invariants(co: Coeffs) -> tuple[int, int, int, int]:
    a1, a2, a3, a4, a6 = co
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def _disc_c4(co: Coeffs) -> tuple[int, int]:
    b2, b4, b6, b8 = _b_invariants(co)
    c4 = b2 * b2 - 24 * b4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return disc, c4


def _translate(co: Coeffs, r: int, s: int, t: int) -> Coeffs:
    a1, a2, a3, a4, a6 = co
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def _singular_point(co: Coeffs, p: int, disc: int, c4: int) -> tuple[int, int]:
    """(r, t) mod p moving the singular point of the reduction to the origin."""
    a1, a2, a3, a4, a6 = co
    if p <= 3:
        for r in range(p):
            for t in range(p):
                fx = a1 * t - (3 * r * r + 2 * a2 * r + a4)
                fy = 2 * t + a1 * r + a3
                fv = t * t + a1 * r * t + a3 * t - (r**3 + a2 * r * r + a4 * r + a6)
                if fx % p == 0 and fy % p == 0 and fv % p == 0:
                    return r, t
        raise ClassificationError(f"no singular point mod {p}")
    b2, b4, b6, _ = _b_invariants(co)
    if c4 % p == 0:
        # cusp: triple root of the completed-square cubic
        r = (-b2 * pow(12, -1, p)) % p
    else:
        # node: double root (b2 b4 - 18 b6)/(-c4)
        r = ((18 * b6 - b2 * b4) * pow(c4, -1, p)) % p
    t = (-(a1 * r + a3) * pow(2, -1, p)) % p
    return r, t


def _step6_done(co: Coeffs, p: int) -> bool:
    a1, a2, a3, a4, a6 = co
    return (a1 % p == 0 and a2 % p == 0 and a3 % (p * p) == 0 and a4 % (p * p) == 0
            and a6 % p**3 == 0)


def _step6_shift(co: Coeffs, p: int) -> Coeffs:
    """Translate by (r, s, t) = (0, s, t) so that p | a1, a2; p^2 | a3, a4; p^3 | a6.

    Step 6 of Tate's algorithm, in closed form (Cremona, *Algorithms for
    Modular Elliptic Curves*, 2nd ed., section 3.2; Silverman, *Advanced
    Topics in the Arithmetic of Elliptic Curves*, IV.9.4).  Steps 2-5 left
    p | a3, a4, a6, p | b2, p^2 | a6 and p^3 | b6, b8.

    * p = 2: s = a2 mod 2 and t = 2 ((a6 / 4) mod 2).  Here a1 is even
      (2 | b2 = a1^2 + 4 a2), 4 | a3 (8 | b6 = a3^2 + 4 a6) and 4 | a4 (8 | b8
      then forces 8 | a4^2).  The new a2 = a2 - s a1 - s^2 is even, a3 + 2t
      and a4 - s a3 - t a1 - 2 s t stay divisible by 4, and the new a6 is
      a6 - t a3 - t^2 = a6 - t^2 = 0 mod 8, as t a3 = 0 mod 8.
    * p odd: s = -a1 / 2 mod p and t = -a3 / 2 mod p^2.  Then p | a1 + 2s, so
      p | a2 as b2 is unchanged; p^2 | a3 + 2t, so p^3 | a6 as b6 is
      unchanged; and p^3 | b8 then gives p^2 | a4.

    The result is checked (``_step6_done``); a failure is a ClassificationError.
    """
    a1, a2, a3, _, a6 = co
    if p == 2:
        co2 = _translate(co, 0, a2 % 2, 2 * ((a6 // 4) % 2))
    else:
        q = p * p  # (m + 1) / 2 is 1/2 mod an odd m
        co2 = _translate(co, 0, -a1 * ((p + 1) // 2) % p, -a3 * ((q + 1) // 2) % q)
    if not _step6_done(co2, p):
        raise ClassificationError(f"step-6 valuations failed at p={p}")
    return co2


def _cubic_root_structure(A: int, B: int, C: int, p: int) -> tuple[int, Optional[int]]:
    """Multiplicity structure of T^3 + A T^2 + B T + C over F_p.

    Returns (max multiplicity, a root achieving it); (1, None) when separable.
    A repeated root of a cubic over F_p is always F_p-rational.
    """
    best = (1, None)
    for t0 in range(p):
        v = ((t0 + A) * t0 + B) * t0 + C
        if v % p != 0:
            continue
        # synthetic division by (T - t0) to count multiplicity
        q2, q1, q0 = 1, (A + t0) % p, (B + (A + t0) * t0) % p
        m = 1
        if (q0 + q1 * t0 + q2 * t0 * t0) % p == 0:
            m = 2
            r1, r0 = q2, (q1 + q2 * t0) % p
            if (r0 + r1 * t0) % p == 0:
                m = 3
        if m > best[0]:
            best = (m, t0)
    return best


def _quad2_separable(alpha: int, beta: int, gamma: int, p: int) -> bool:
    """Is alpha X^2 + beta X + gamma (alpha a unit) separable over F_p?"""
    if p == 2:
        return beta % 2 == 1
    return (beta * beta - 4 * alpha * gamma) % p != 0


def _quad2_double_root(alpha: int, beta: int, gamma: int, p: int) -> int:
    if p == 2:
        return (gamma * alpha) % 2
    return (-beta * pow(2 * alpha, -1, p)) % p


def tate_on_model(co: Coeffs, p: int) -> tuple[KodairaSymbol, int, int, int]:
    """Run Tate's algorithm at p on (a1, a2, a3, a4, a6).

    Returns (symbol, conductor exponent, v_p of the minimal discriminant,
    number of u = p rescalings performed).  The conductor exponent is
    assembled through Ogg-Saito: f = v(Delta_min) - m + 1.
    """
    if not ar.is_prime(p):
        raise ValueError(f"{p} is not prime")
    u_count = 0
    while True:
        disc, c4 = _disc_c4(co)
        if disc == 0:
            raise ValueError("singular curve")
        n = _vp(disc, p)
        if n == 0:
            return GOOD, 0, 0, u_count

        def done(sym: KodairaSymbol) -> tuple[KodairaSymbol, int, int, int]:
            f = n - sym.components() + 1
            if sym.tag == "I":
                f = 1
            if not 1 <= f <= (2 if p >= 5 else 5 if p == 3 else 8):
                raise ClassificationError(
                    f"conductor exponent {f} out of range for {sym} at p={p}")
            return sym, f, n, u_count

        r, t = _singular_point(co, p, disc, c4)
        co = _translate(co, r, 0, t)
        a1, a2, a3, a4, a6 = co
        if not (a3 % p == 0 and a4 % p == 0 and a6 % p == 0):
            raise ClassificationError(f"singular point not moved to the origin at p={p}")
        if c4 % p != 0:
            return done(KodairaSymbol("I", n))
        if a6 % (p * p) != 0:
            return done(KodairaSymbol("II"))
        _, _, b6, b8 = _b_invariants(co)
        if b8 % p**3 != 0:
            return done(KodairaSymbol("III"))
        if b6 % p**3 != 0:
            return done(KodairaSymbol("IV"))
        co = _step6_shift(co, p)
        a1, a2, a3, a4, a6 = co
        mult, root = _cubic_root_structure(
            (a2 // p) % p, (a4 // (p * p)) % p, (a6 // p**3) % p, p
        )
        if mult == 1:
            return done(KodairaSymbol("I0*"))
        if mult == 2:
            # I_nu* subprocedure: walk the chain of quadratics.
            co = _translate(co, p * root, 0, 0)
            a1, a2, a3, a4, a6 = co
            if not (_vp(a2, p) == 1 and a3 % (p * p) == 0 and a4 % p**3 == 0 and a6 % p**4 == 0):
                raise ClassificationError(f"double root not moved to the origin at p={p}")
            k = 1
            while True:
                # Y^2 + (a3/p^{k+1}) Y - a6/p^{2k+2}
                beta = (a3 // p ** (k + 1)) % p
                gq = (-(a6 // p ** (2 * k + 2))) % p
                if _quad2_separable(1, beta, gq, p):
                    return done(KodairaSymbol("I*", 2 * k - 1))
                y0 = _quad2_double_root(1, beta, gq, p)
                co = _translate(co, 0, 0, p ** (k + 1) * y0)
                a1, a2, a3, a4, a6 = co
                if not (a3 % p ** (k + 2) == 0 and a6 % p ** (2 * k + 3) == 0):
                    raise ClassificationError(f"I*_nu: y-translation failed at p={p}")
                alpha = (a2 // p) % p
                beta2 = (a4 // p ** (k + 2)) % p
                gamma2 = (a6 // p ** (2 * k + 3)) % p
                if _quad2_separable(alpha, beta2, gamma2, p):
                    return done(KodairaSymbol("I*", 2 * k))
                x0 = _quad2_double_root(alpha, beta2, gamma2, p)
                co = _translate(co, p ** (k + 1) * x0, 0, 0)
                a1, a2, a3, a4, a6 = co
                if not (a4 % p ** (k + 3) == 0 and a6 % p ** (2 * k + 4) == 0):
                    raise ClassificationError(f"I*_nu: x-translation failed at p={p}")
                k += 1
        # triple root: shift it to zero, examine Y^2 + a3/p^2 Y - a6/p^4
        co = _translate(co, p * root, 0, 0)
        a1, a2, a3, a4, a6 = co
        if not (a2 % (p * p) == 0 and a4 % p**3 == 0 and a6 % p**4 == 0):
            raise ClassificationError(f"triple root not moved to the origin at p={p}")
        beta = (a3 // (p * p)) % p
        gamma = (-(a6 // p**4)) % p
        if _quad2_separable(1, beta, gamma, p):
            return done(KodairaSymbol("IV*"))
        y0 = _quad2_double_root(1, beta, gamma, p)
        co = _translate(co, 0, 0, p * p * y0)
        a1, a2, a3, a4, a6 = co
        if not (a3 % p**3 == 0 and a6 % p**5 == 0):
            raise ClassificationError(f"IV*: y-translation failed at p={p}")
        if a4 % p**4 != 0:
            return done(KodairaSymbol("III*"))
        if a6 % p**6 != 0:
            return done(KodairaSymbol("II*"))
        # non-minimal: rescale u = p and restart
        if not (a1 % p == 0 and a2 % (p * p) == 0):
            raise ClassificationError(f"non-minimal model not divisible at p={p}")
        co = (a1 // p, a2 // (p * p), a3 // p**3, a4 // p**4, a6 // p**6)
        u_count += 1


def tate_algorithm(c: CurveParams, p: int) -> LocalReduction:
    """Ground-truth local reduction of E_{a,b} at any prime p.

    A p that does not divide Delta = 16 b^2 (a^2 - 4b) is Good at the
    algorithm's first step, with no shortcut, so checks against it test the
    good exit of ``kodaira_symbol_large_p`` as well.
    """
    a, b = c.a, c.b
    sym, f, v_min, _ = tate_on_model((0, a, 0, b, 0), p)
    return LocalReduction(p, *_valuations(a, b, p), sym, f, v_min)


# ---------------------------------------------------------------------------
# One local-reduction pass per curve: conductor, index, Szpiro ratios.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reduction:
    """Local reduction of E at every bad prime, on the p >= 5-minimal pair.

    local holds one entry per prime dividing Delta, in increasing order: Tate's
    algorithm at 2 and 3, kodaira_symbol_large_p at p >= 5.  conductor is
    prod p^f over all of them, conductor_6 and index_6 = |b (a^2-4b)|_{6'} /
    conductor_6 their p >= 5 parts, and disc_min = prod p^{v_disc_min} is
    |Delta_min|, minimal at every prime.
    """

    minimal: CurveParams
    local: tuple[LocalReduction, ...]
    conductor: int
    conductor_6: int
    index_6: int
    disc_min: int

    def szpiro_ratio(self) -> float:
        """log |Delta_min| / log conductor_6; Delta_min is minimal at every prime.

        The literal 16 b^2 (a^2-4b) is not used: its v_2 is 12 even on family
        curves with good reduction at 2.
        """
        if self.conductor_6 <= 1:
            raise ValueError("conductor 1: Szpiro ratio undefined (log C = 0)")
        return math.log(self.disc_min) / math.log(self.conductor_6)

    def avg_szpiro(self) -> float:
        """(beta_E + beta_phi(E)) / 2: E off disc_min, phi(E) as in ``avg_szpiro_of_parts``."""
        m = self.minimal
        disc_phi = _disc_min_23(-2 * m.a, m.a * m.a - 4 * m.b) * math.prod(
            r.p ** (r.v_b + 2 * r.v_c) for r in self.local if r.p >= 5)
        return _szpiro_mean(self.disc_min, disc_phi, self.conductor_6)


def _szpiro_mean(disc_e: int, disc_phi: int, conductor_6: int) -> float:
    """(log disc_e / log C + log disc_phi / log C) / 2, in this operation order."""
    if conductor_6 <= 1:
        raise ValueError("conductor 1: Szpiro ratio undefined (log C = 0)")
    return (math.log(disc_e) / math.log(conductor_6)
            + math.log(disc_phi) / math.log(conductor_6)) / 2.0


def _disc_min_23(a: int, b: int) -> int:
    """The 2,3-part of |Delta_min| of y^2 = x(x^2 + ax + b), by Tate's algorithm.

    Tate runs at 2, and at 3 only when 3 | b(a^2 - 4b), the 3-support of
    Delta = 16 b^2 (a^2 - 4b).  E and phi(E) share it: phi(E) = (-2a, c) has
    Delta = 256 b c^2.
    """
    model = (0, a, 0, b, 0)
    part = 2 ** tate_on_model(model, 2)[2]
    if b * (a * a - 4 * b) % 3 == 0:
        part *= 3 ** tate_on_model(model, 3)[2]
    return part


def avg_szpiro_of_parts(a: int, b: int, part_b: int, part_c: int, conductor_6: int) -> float:
    """(beta_E + beta_phi(E)) / 2 of a p >= 5-minimal pair, both on minimal discriminants.

    part_b and part_c are |b| and |c| (c = a^2 - 4b) without their 2s and 3s.
    phi(E) = (-2a, c) has b' = c and c' = 16 b: at p >= 5 it is minimal, with
    v_p(Delta) = v_p(b) + 2 v_p(c) against E's 2 v_p(b) + v_p(c).  Its model
    is never 2-minimal; Tate's algorithm gives the minimal valuations of both
    curves at 2 and 3 (``_disc_min_23``).  The conductor is isogeny-invariant.
    No factoring.
    """
    c = a * a - 4 * b
    return _szpiro_mean(_disc_min_23(a, b) * part_b * part_b * part_c,
                        _disc_min_23(-2 * a, c) * part_b * part_c * part_c, conductor_6)


def reduction(c: CurveParams) -> Reduction:
    """Strip the p >= 5 rescalings (a, b) -> (a/p^2, b/p^4), classify every bad prime.

    Two factorizations: b, whose exponents drop by 4 per rescaling, and the
    minimal a^2 - 4b.  2 always divides Delta = 16 b^2 (a^2 - 4b).
    """
    a, b = c.a, c.b
    primes = {2}
    for p, e in ar.factorize(b).factors:
        while p >= 5 and e >= 4 and a % (p * p) == 0:
            a //= p * p
            b //= p**4
            e -= 4
        if e:
            primes.add(p)
    primes.update(p for p, _ in ar.factorize(a * a - 4 * b).factors)
    m = CurveParams(a, b)
    local = tuple(
        tate_algorithm(m, p) if p < 5 else _kodaira_large_p(a, b, p)
        for p in sorted(primes)
    )
    cond = cond_6 = index_6 = disc_min = 1
    for r in local:
        cond *= r.p**r.conductor_exponent
        disc_min *= r.p**r.v_disc_min
        if r.p >= 5:
            cond_6 *= r.p**r.conductor_exponent
            index_6 *= r.p ** (r.v_b + r.v_c - r.conductor_exponent)
    return Reduction(m, local, cond, cond_6, index_6, disc_min)


def avg_szpiro(c: CurveParams) -> float:
    """(beta_E + beta_phi(E)) / 2 (Reduction.avg_szpiro)."""
    return reduction(c).avg_szpiro()
