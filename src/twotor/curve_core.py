"""Invariants and local reduction data for curves E_{a,b}: y^2 = x(x^2 + ax + b).

Two classifiers are provided and cross-checked against each other:

* kodaira_symbol_large_p: the (v_p(c4), v_p(Delta)) lookup valid for minimal
  models at p >= 5.  It refuses non-minimal inputs (p^2 | a and p^4 | b).
* tate_algorithm: a full implementation of Tate's algorithm on general
  Weierstrass coefficients, valid at every prime including 2 and 3, with
  non-minimal restarts.  This is the ground-truth oracle; any disagreement
  with the lookup is a reportable defect, not something to paper over.

Conductor exponents come from the Ogg-Saito relation f = v(Delta_min) - m + 1
where m is the number of components of the special fiber.

reduction(c) runs both at every bad prime of the minimal pair, from one
factorization each of b and a^2 - 4b; the conductor, the prime-to-6 index,
|Delta_min| and the Szpiro ratios are read off that record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import arithmetic as ar


class FamilyMembershipError(ValueError):
    """Curve fails the good-reduction congruence predicates at 2 or 3."""


class NonMinimalModelError(ValueError):
    """Valuation pair falls outside the minimal-model lookup table."""


class ClassificationError(AssertionError):
    """Internal contradiction between classifiers (oracle disagreement)."""


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

    def is_additive(self) -> bool:
        return self.tag not in ("Good", "I")

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

    v_disc and v_c4 are valuations of the literal model quantities
    16 b^2 (a^2-4b) and 16(a^2-3b); v_disc_min is the valuation of the
    minimal discriminant at p.  v_c4 is None when c4 = 0.
    """

    p: int
    v_a: Optional[int]
    v_b: int
    v_c: int
    v_disc: int
    v_c4: Optional[int]
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


def good_reduction_at_2(c: CurveParams) -> bool:
    """Congruence criterion at 2: (b odd and a = 6 mod 8) or (a = 1 mod 4 and b = 16 mod 32)."""
    a, b = c.a % 8, c.b % 32
    return (c.b % 2 == 1 and a == 6) or (c.a % 4 == 1 and b == 16)


def good_reduction_at_3(c: CurveParams) -> bool:
    """Congruence criterion at 3: (3 not| a and b = 2 mod 3) or (3 | a and 3 not| b)."""
    a, b = c.a % 3, c.b % 3
    return (a != 0 and b == 2) or (a == 0 and b != 0)


def in_family(c: CurveParams) -> bool:
    return good_reduction_at_2(c) and good_reduction_at_3(c)


def in_good_family(c: CurveParams) -> bool:
    """Family curves that really have good reduction at 2 and 3 (Tate f_2 = f_3 = 0).

    The predicate at 3 and the clause (a = 1 mod 4, b = 16 mod 32) at 2 agree
    with Tate's algorithm on every curve they admit.  The odd-b clause (b odd,
    a = 6 mod 8) does not: Tate gives f_2 = 0 there exactly when
    b = (a/2)^2 + 64 mod 128, which a modulus of 96 cannot express.  Both
    clauses leave the model 2-non-minimal (v_2(Delta) = 12); the u = 2 model
    is the one with good reduction.  The 2-adic mass is 9/1024, against the
    predicate's 9/128.
    """
    return in_family(c) and (c.b % 2 == 0 or (c.b - (c.a // 2) ** 2) % 128 == 64)


def isogeny(c: CurveParams) -> CurveParams:
    """The 2-isogenous curve (a, b) -> (-2a, a^2 - 4b)."""
    return CurveParams(-2 * c.a, c.a * c.a - 4 * c.b)


def _vp(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def kodaira_symbol_large_p(c: CurveParams, p: int) -> LocalReduction:
    """Classify reduction at p >= 5 from (v_p(c4), v_p(Delta)) on a minimal model.

    Raises NonMinimalModelError when the valuations fall outside the table,
    which for this family happens exactly when p^2 | a and p^4 | b.
    """
    if p < 5 or not ar.is_prime(p):
        raise ValueError("requires a prime p >= 5")
    a, b = c.a, c.b
    cc = a * a - 4 * b
    v_b = _vp(b, p)
    v_c = _vp(cc, p)
    v_disc = 2 * v_b + v_c
    v_a = None if a == 0 else _vp(a, p)
    c4 = 16 * (a * a - 3 * b)
    v_c4 = None if c4 == 0 else _vp(c4, p)

    def c4_ge(k: int) -> bool:
        return v_c4 is None or v_c4 >= k

    def c4_eq(k: int) -> bool:
        return v_c4 == k

    n = v_disc
    if n == 0:
        sym, f = GOOD, 0
    elif v_c4 == 0:
        sym, f = KodairaSymbol("I", n), 1
    elif n == 2:
        sym, f = KodairaSymbol("II"), 2
    elif n == 3 and c4_eq(1):
        sym, f = KodairaSymbol("III"), 2
    elif n == 4 and c4_ge(2):
        sym, f = KodairaSymbol("IV"), 2
    elif n == 6 and c4_ge(2):
        sym, f = KodairaSymbol("I0*"), 2
    elif n >= 7 and c4_eq(2):
        sym, f = KodairaSymbol("I*", n - 6), 2
    elif n == 8 and c4_ge(3):
        sym, f = KodairaSymbol("IV*"), 2
    elif n == 9 and c4_eq(3):
        sym, f = KodairaSymbol("III*"), 2
    elif n == 10 and c4_ge(4):
        sym, f = KodairaSymbol("II*"), 2
    else:
        raise NonMinimalModelError(
            f"(v_c4, v_disc) = ({v_c4}, {n}) at p={p} is not a minimal-model pattern"
        )
    return LocalReduction(p, v_a, v_b, v_c, v_disc, v_c4, sym, f, v_disc_min=n)


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


def _step6_shift(co: Coeffs, p: int) -> Coeffs:
    """Translate so that p | a1, a2; p^2 | a3, a4; p^3 | a6."""
    if p <= 3:
        for s in range(p):
            for t in range(p**3):
                co2 = _translate(co, 0, s, t)
                a1, a2, a3, a4, a6 = co2
                if (
                    a1 % p == 0
                    and a2 % p == 0
                    and a3 % (p * p) == 0
                    and a4 % (p * p) == 0
                    and a6 % p**3 == 0
                ):
                    return co2
        raise ClassificationError(f"step-6 translation not found at p={p}")
    a1 = co[0]
    s = (-a1 * pow(2, -1, p)) % p
    co2 = _translate(co, 0, s, 0)
    t = (-co2[2] * pow(2, -1, p * p)) % (p * p)
    co2 = _translate(co2, 0, 0, t)
    a1, a2, a3, a4, a6 = co2
    if not (
        a1 % p == 0
        and a2 % p == 0
        and a3 % (p * p) == 0
        and a4 % (p * p) == 0
        and a6 % p**3 == 0
    ):
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


def _quad_separable(beta: int, gamma: int, p: int) -> bool:
    """Is Y^2 + beta Y + gamma separable over F_p?"""
    if p == 2:
        return beta % 2 == 1
    return (beta * beta - 4 * gamma) % p != 0


def _quad_double_root(beta: int, gamma: int, p: int) -> int:
    if p == 2:
        return gamma % 2
    return (-beta * pow(2, -1, p)) % p


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
            if p >= 5:
                assert f in (1, 2), f
            elif p == 3:
                assert f <= 5, f
            else:
                assert f <= 8, f
            assert f >= 1
            return sym, f, n, u_count

        r, t = _singular_point(co, p, disc, c4)
        co = _translate(co, r, 0, t)
        a1, a2, a3, a4, a6 = co
        assert a3 % p == 0 and a4 % p == 0 and a6 % p == 0
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
            assert _vp(a2, p) == 1 and a3 % (p * p) == 0 and a4 % p**3 == 0 and a6 % p**4 == 0
            k = 1
            while True:
                # Y^2 + (a3/p^{k+1}) Y - a6/p^{2k+2}
                beta = (a3 // p ** (k + 1)) % p
                gq = (-(a6 // p ** (2 * k + 2))) % p
                if _quad_separable(beta, gq, p):
                    return done(KodairaSymbol("I*", 2 * k - 1))
                y0 = _quad_double_root(beta, gq, p)
                co = _translate(co, 0, 0, p ** (k + 1) * y0)
                a1, a2, a3, a4, a6 = co
                assert a3 % p ** (k + 2) == 0 and a6 % p ** (2 * k + 3) == 0
                alpha = (a2 // p) % p
                beta2 = (a4 // p ** (k + 2)) % p
                gamma2 = (a6 // p ** (2 * k + 3)) % p
                if _quad2_separable(alpha, beta2, gamma2, p):
                    return done(KodairaSymbol("I*", 2 * k))
                x0 = _quad2_double_root(alpha, beta2, gamma2, p)
                co = _translate(co, p ** (k + 1) * x0, 0, 0)
                a1, a2, a3, a4, a6 = co
                assert a4 % p ** (k + 3) == 0 and a6 % p ** (2 * k + 4) == 0
                k += 1
        # triple root: shift it to zero, examine Y^2 + a3/p^2 Y - a6/p^4
        co = _translate(co, p * root, 0, 0)
        a1, a2, a3, a4, a6 = co
        assert a2 % (p * p) == 0 and a4 % p**3 == 0 and a6 % p**4 == 0
        beta = (a3 // (p * p)) % p
        gamma = (-(a6 // p**4)) % p
        if _quad_separable(beta, gamma, p):
            return done(KodairaSymbol("IV*"))
        y0 = _quad_double_root(beta, gamma, p)
        co = _translate(co, 0, 0, p * p * y0)
        a1, a2, a3, a4, a6 = co
        assert a3 % p**3 == 0 and a6 % p**5 == 0
        if a4 % p**4 != 0:
            return done(KodairaSymbol("III*"))
        if a6 % p**6 != 0:
            return done(KodairaSymbol("II*"))
        # non-minimal: rescale u = p and restart
        assert a1 % p == 0 and a2 % (p * p) == 0
        co = (a1 // p, a2 // (p * p), a3 // p**3, a4 // p**4, a6 // p**6)
        u_count += 1


def tate_algorithm(c: CurveParams, p: int) -> LocalReduction:
    """Ground-truth local reduction of E_{a,b} at any prime p."""
    a, b = c.a, c.b
    sym, f, v_min, _ = tate_on_model((0, a, 0, b, 0), p)
    cc = a * a - 4 * b
    v_b = _vp(b, p)
    v_c = _vp(cc, p)
    disc = 16 * b * b * cc
    c4 = 16 * (a * a - 3 * b)
    return LocalReduction(
        p=p,
        v_a=None if a == 0 else _vp(a, p),
        v_b=v_b,
        v_c=v_c,
        v_disc=_vp(disc, p),
        v_c4=None if c4 == 0 else _vp(c4, p),
        symbol=sym,
        conductor_exponent=f,
        v_disc_min=v_min,
    )


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
        """(beta_E + beta_phi(E)) / 2, both on minimal discriminants, no further factoring.

        phi(E) = (-2a, c) has b' = c and c' = 16 b: at p >= 5 it is minimal,
        bad at E's primes, with v_p(Delta) = v_p(b) + 2 v_p(c).  Its model is
        never 2-minimal; Tate's algorithm gives the minimal valuations at 2
        and 3.  The conductor is isogeny-invariant.
        """
        beta_e = self.szpiro_ratio()
        phi = isogeny(self.minimal)
        co = (0, phi.a, 0, phi.b, 0)
        d = 2 ** tate_on_model(co, 2)[2] * 3 ** tate_on_model(co, 3)[2]
        for r in self.local:
            if r.p >= 5:
                d *= r.p ** (r.v_b + 2 * r.v_c)
        return (beta_e + math.log(d) / math.log(self.conductor_6)) / 2.0


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
        tate_algorithm(m, p) if p < 5 else kodaira_symbol_large_p(m, p)
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


def szpiro_ratio(c: CurveParams) -> float:
    """log |Delta_min| / log C, C the prime-to-6 conductor (Reduction.szpiro_ratio)."""
    return reduction(c).szpiro_ratio()


def avg_szpiro(c: CurveParams) -> float:
    """(beta_E + beta_phi(E)) / 2 (Reduction.avg_szpiro)."""
    return reduction(c).avg_szpiro()
