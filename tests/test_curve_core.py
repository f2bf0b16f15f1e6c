import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import census_records, good_family, isogeny, step6_shift_search
from uniformity import valuation

from twotor import arithmetic as ar
from twotor import census
from twotor import cli
from twotor import curve_core
from twotor import local_density as ld
from twotor.curve_core import (
    ADDITIVE_TAGS,
    CurveParams,
    KodairaSymbol,
    NonMinimalModelError,
    avg_szpiro,
    c_invariants,
    conductor_polynomial,
    discriminant,
    family_at_2,
    family_at_3,
    in_family,
    kodaira_symbol_large_p,
    reduction,
    tate_algorithm,
    tate_on_model,
    _translate,
    additive_type,
)


def valid_pairs(lo=-60, hi=60):
    return (
        st.tuples(st.integers(lo, hi), st.integers(lo, hi))
        .filter(lambda ab: ab[1] != 0 and ab[0] ** 2 - 4 * ab[1] != 0)
        .map(lambda ab: CurveParams(*ab))
    )


class TestInvariants:
    def test_discriminant_examples(self):
        assert discriminant(CurveParams(0, 1)) == -64
        assert discriminant(CurveParams(6, 1)) == 512
        assert discriminant(CurveParams(5, 5)) == 2000

    def test_conductor_polynomial_examples(self):
        assert conductor_polynomial(CurveParams(0, 1)) == -4
        assert conductor_polynomial(CurveParams(6, 1)) == 32
        assert conductor_polynomial(CurveParams(5, 5)) == 25

    def test_c_invariants(self):
        assert c_invariants(CurveParams(0, 1)) == (-48, 0)
        assert c_invariants(CurveParams(5, 5)) == (160, -800)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            CurveParams(1, 0)
        with pytest.raises(ValueError):
            CurveParams(2, 1)  # a^2 = 4b

    @given(valid_pairs())
    def test_c4_c6_delta_identity(self, c):
        c4, c6 = c_invariants(c)
        assert c4**3 - c6**2 == 1728 * discriminant(c)

    @given(valid_pairs())
    def test_disc_is_16_times_poly_times_b(self, c):
        assert discriminant(c) == 16 * c.b * conductor_polynomial(c)


class TestKodairaSymbol:
    def test_str(self):
        assert str(KodairaSymbol("I", 5)) == "I5"
        assert str(KodairaSymbol("I*", 2)) == "I2*"
        assert str(KodairaSymbol("I0*")) == "I0*"
        assert str(KodairaSymbol("Good")) == "Good"

    def test_validation(self):
        with pytest.raises(ValueError):
            KodairaSymbol("I")
        with pytest.raises(ValueError):
            KodairaSymbol("II", 3)
        with pytest.raises(ValueError):
            KodairaSymbol("V")

    def test_components(self):
        assert KodairaSymbol("I", 7).components() == 7
        assert KodairaSymbol("I*", 2).components() == 7
        assert KodairaSymbol("III*").components() == 8


class TestLargePTable:
    def test_examples(self):
        red = kodaira_symbol_large_p(CurveParams(1, 1), 5)
        assert red.symbol.tag == "Good" and red.conductor_exponent == 0
        red = kodaira_symbol_large_p(CurveParams(5, 5), 5)
        assert str(red.symbol) == "III" and red.conductor_exponent == 2
        red = kodaira_symbol_large_p(CurveParams(1, 5), 5)
        assert str(red.symbol) == "I2" and red.conductor_exponent == 1
        red = kodaira_symbol_large_p(CurveParams(5, 25), 5)
        assert str(red.symbol) == "I0*" and red.conductor_exponent == 2

    def test_istar_family(self):
        assert str(kodaira_symbol_large_p(CurveParams(5, 100), 5).symbol) == "I1*"
        assert str(kodaira_symbol_large_p(CurveParams(5, 500), 5).symbol) == "I2*"

    def test_iiistar(self):
        # v(a) = 2, v(b) = 3: c4 = 16(a^2-3b) has v = 3, disc v = 9
        red = kodaira_symbol_large_p(CurveParams(25, 125), 5)
        assert str(red.symbol) == "III*" and red.conductor_exponent == 2

    def test_nonminimal_rejected(self):
        with pytest.raises(NonMinimalModelError):
            kodaira_symbol_large_p(CurveParams(25, 625), 5)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_rule_matches_tate_on_power_lifts(self, p):
        # criterion 4's grid never reaches v_p(b) >= 4: take a = u p^i (and a = 0),
        # b = w p^j for p-units u, w, and lift v_p(c) on a = 2 u p, b = p^2 (u^2 - s p^m),
        # where c = 4 s p^(m+2)
        rng = random.Random(p)
        units = [1, -1] + [x for x in (rng.randint(-p**3, p**3) for _ in range(12))
                           if x % p][:5]
        pairs = [(0 if i is None else u * p**i, w * p**j)
                 for i in (None, 0, 1, 2, 3) for u in units for j in range(10) for w in units]
        pairs += [(2 * u * p, p * p * (u * u - s * p**m))
                  for u in units for s in units for m in range(14)]
        seen, non_minimal = set(), 0
        for a, b in pairs:
            if b == 0 or a * a == 4 * b:
                continue
            c = CurveParams(a, b)
            tate = tate_algorithm(c, p)
            try:
                rule = kodaira_symbol_large_p(c, p)
            except NonMinimalModelError:
                assert a % (p * p) == 0 and b % p**4 == 0, (a, b, p)
                assert tate_on_model((0, a, 0, b, 0), p)[3] >= 1, (a, b, p)
                non_minimal += 1
                continue
            assert rule == tate, (a, b, p)
            seen.add(str(rule.symbol))
        assert non_minimal > 0
        assert {"Good", "III", "I0*", "III*"} | {f"I{n}*" for n in range(1, 15)} <= seen
        assert not seen & {"II", "IV", "IV*", "II*"}

    def test_additive_type_on_arrays_and_ints(self):
        # the one rule, on int64 columns and on Python ints, against its cases
        # spelled out; kodaira_symbol_large_p reads it and is checked against Tate
        v_b, v_c, deep = (x.ravel() for x in np.meshgrid(
            np.arange(1, 9), np.arange(1, 13), np.array([False, True])))
        non_minimal, kind = additive_type(v_b, v_c, deep)
        assert non_minimal.dtype == np.bool_ and kind.dtype == np.int64
        for i, (x, y, d) in enumerate(zip(v_b.tolist(), v_c.tolist(), deep.tolist())):
            n = 2 * x + y
            tag = "III" if n == 3 else "I0*" if n == 6 else "III*" if n == 9 and d else "I*"
            want = (d and x >= 4, ADDITIVE_TAGS.index(tag))
            assert additive_type(x, y, d) == want == (bool(non_minimal[i]), int(kind[i]))

    def test_small_p_rejected(self):
        # the message names the rejected p: small, composite or not positive
        for p in (3, 91, 2, 1, 0, -7):
            with pytest.raises(ValueError, match=f"^requires a prime p >= 5, got {p}$"):
                kodaira_symbol_large_p(CurveParams(1, 1), p)

    def test_good_exit_keeps_v_a(self):
        # p | a but not bc: Good after the bc test, with v_a read off a, the
        # record Tate's algorithm on the model gives
        for c, p in ((CurveParams(50, 1), 5), (CurveParams(0, 7), 5), (CurveParams(343, 2), 7)):
            full = curve_core.LocalReduction(p, *curve_core._valuations(c.a, c.b, p),
                                             *tate_on_model((0, c.a, 0, c.b, 0), p)[:3])
            assert kodaira_symbol_large_p(c, p) == tate_algorithm(c, p) == full
            assert full.symbol == curve_core.GOOD and full.v_disc == full.v_disc_min == 0
        assert kodaira_symbol_large_p(CurveParams(50, 1), 5).v_a == 2
        assert kodaira_symbol_large_p(CurveParams(0, 7), 5).v_a is None

    def test_composite_p_rejected_on_both_paths(self):
        # 91 divides neither b nor c here and both there
        for c in (CurveParams(1, 1), CurveParams(0, 91)):
            with pytest.raises(ValueError, match="91 is not prime"):
                tate_algorithm(c, 91)

    def test_valuation_fields(self):
        red = kodaira_symbol_large_p(CurveParams(5, 100), 5)
        assert (red.v_a, red.v_b, red.v_c) == (1, 2, 3)
        assert red.v_disc == 7 and red.v_disc_min == 7
        red = kodaira_symbol_large_p(CurveParams(0, 5), 5)
        assert red.v_a is None


class TestTate:
    def test_matches_table_small_range(self):
        for a in range(-15, 16):
            for b in range(-15, 16):
                if b == 0 or a * a == 4 * b:
                    continue
                c = CurveParams(a, b)
                for p in (5, 7):
                    t = tate_algorithm(c, p)
                    k = kodaira_symbol_large_p(c, p)
                    assert (str(t.symbol), t.conductor_exponent) == (
                        str(k.symbol),
                        k.conductor_exponent,
                    ), (a, b, p)

    def test_istar_canaries(self):
        t = tate_algorithm(CurveParams(5, 100), 5)
        assert str(t.symbol) == "I1*" and t.conductor_exponent == 2
        t = tate_algorithm(CurveParams(5, 500), 5)
        assert str(t.symbol) == "I2*" and t.conductor_exponent == 2

    def test_p2_i0star_canary(self):
        # passes the mod-8 predicate yet has additive reduction at 2
        t = tate_algorithm(CurveParams(6, 1), 2)
        assert str(t.symbol) == "I0*"
        assert t.conductor_exponent == 5
        assert t.v_disc == 9 and t.v_disc_min == 9

    def test_p2_good_canary(self):
        # v_2(disc) = 12 strips to an integral model with good reduction
        t = tate_algorithm(CurveParams(6, 73), 2)
        assert str(t.symbol) == "Good"
        assert t.conductor_exponent == 0 and t.v_disc_min == 0
        assert t.v_disc == 12

    def test_p3_good_iff_predicate_small_range(self):
        # in this box v_3(disc) < 12, so no rescaling: literal v = 0 iff good
        for a in range(-20, 21):
            for b in range(-20, 21):
                if b == 0 or a * a == 4 * b:
                    continue
                c = CurveParams(a, b)
                t = tate_algorithm(c, 3)
                assert (t.conductor_exponent == 0) == family_at_3(a, b), (a, b)

    def test_conductor_exponent_bounds(self):
        for a in range(-12, 13):
            for b in range(-12, 13):
                if b == 0 or a * a == 4 * b:
                    continue
                c = CurveParams(a, b)
                assert tate_algorithm(c, 2).conductor_exponent <= 8
                assert tate_algorithm(c, 3).conductor_exponent <= 5

    def test_nonminimal_restart(self):
        t = tate_algorithm(CurveParams(25, 625), 5)
        assert str(t.symbol) == "Good" and t.v_disc_min == 0
        assert t.v_disc == 12

    @given(valid_pairs(-40, 40), st.sampled_from([2, 3, 5]))
    @settings(max_examples=120, deadline=None)
    def test_scaling_invariance(self, c, p):
        base = tate_on_model((0, c.a, 0, c.b, 0), p)
        scaled = tate_on_model((0, p * p * c.a, 0, p**4 * c.b, 0), p)
        assert (str(base[0]), base[1], base[2]) == (str(scaled[0]), scaled[1], scaled[2])
        assert scaled[3] == base[3] + 1

    @given(
        valid_pairs(-30, 30),
        st.sampled_from([2, 3, 5]),
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.integers(-6, 6),
    )
    @settings(max_examples=120, deadline=None)
    def test_translation_invariance(self, c, p, r, s, t):
        model = (0, c.a, 0, c.b, 0)
        base = tate_on_model(model, p)
        moved = tate_on_model(_translate(model, r, s, t), p)
        assert (str(base[0]), base[1], base[2]) == (str(moved[0]), moved[1], moved[2])


def _step6_models(p, rng):
    """Models for Tate at p: random 5-tuples; tuples whose a_i is a unit times
    p^(w_i - 1), p^w_i or p^(w_i + 1), for the weights w = (1, 2, 3, 4, 6);
    translates of models rescaled by u = p^k; and family models (0, a, 0, b, 0)
    rescaled by p^k, on which Tate restarts."""
    out = [tuple(rng.randint(-60, 60) for _ in range(5)) for _ in range(3000)]
    out += [tuple(rng.choice((-2, -1, 1, 2, 4, 5)) * p ** rng.randint(w - 1, w + 1)
                  for w in (1, 2, 3, 4, 6)) for _ in range(3000)]
    for _ in range(1500):
        u = p ** rng.randint(1, 3)
        co = tuple(u**w * rng.randint(-12, 12) for w in (1, 2, 3, 4, 6))
        out.append(_translate(co, *(rng.randint(-30, 30) for _ in range(3))))
    for _ in range(1500):
        k = rng.randint(0, 3)
        out.append((0, p ** (2 * k) * rng.randint(-300, 300), 0,
                    p ** (4 * k) * rng.randint(-300, 300), 0))
    return out


class TestStep6ClosedForm:
    @pytest.mark.parametrize("p", [2, 3])
    def test_closed_form_against_search(self, monkeypatch, p):
        # Tate with step 6 in closed form against Tate with the search over
        # (0, s, t), on every model; each step-6 input is also in the search's
        # reach, and the closed form lands it in the step-6 shape
        closed = curve_core._step6_shift
        inputs = []
        monkeypatch.setattr(curve_core, "_step6_shift",
                            lambda co, q: inputs.append(co) or closed(co, q))

        def run(models):
            out = []
            for co in models:
                try:
                    out.append(tate_on_model(co, p))
                except ValueError:  # singular
                    out.append(None)
            return out

        models = _step6_models(p, random.Random(2021 + p))
        got = run(models)
        monkeypatch.setattr(curve_core, "_step6_shift", step6_shift_search)
        assert run(models) == got
        assert len(inputs) > 5000
        for co in inputs[::7]:
            assert curve_core._step6_done(closed(co, p), p)
            assert curve_core._step6_done(step6_shift_search(co, p), p)
        seen = {str(r[0]).rstrip("0123456789*") + "*" * str(r[0]).endswith("*")
                for r in got if r}
        assert seen == {"Good", "I", "II", "III", "IV", "I*", "IV*", "III*", "II*"}
        assert max(r[3] for r in got if r) >= 3

    def test_shape_failure_is_a_classification_error(self, monkeypatch):
        monkeypatch.setattr(curve_core, "_step6_done", lambda co, p: False)
        with pytest.raises(curve_core.ClassificationError, match="step-6"):
            tate_on_model((0, 6, 0, 1, 0), 2)  # I0* at 2


class TestPredicates:
    def test_at_2(self):
        assert family_at_2(6, 1)
        assert family_at_2(1, 16)
        assert family_at_2(-10, 1)  # -10 = 6 mod 8
        assert not family_at_2(2, 3)
        assert not family_at_2(6, 2)  # clause 1 needs b odd
        assert not family_at_2(1, 8)  # 8 != 16 mod 32

    def test_at_3(self):
        assert family_at_3(3, 1)
        assert family_at_3(1, 2)
        assert not family_at_3(3, 3)
        assert not family_at_3(1, 1)

    def test_in_family(self):
        assert in_family(CurveParams(6, 73))
        assert not in_family(CurveParams(5, 5))

    def test_array_form_matches_scalar(self):
        # the congruences on int64 columns, on Python ints and through
        # CurveParams, against the clauses spelled out with and/or
        rng = np.random.default_rng(20231)
        a = rng.integers(-10**6, 10**6, 20000, endpoint=True)
        b = rng.integers(-10**11, 10**11, 20000, endpoint=True)
        at_2, at_3, good = family_at_2(a, b), family_at_3(a, b), good_family(a, b)
        assert at_2.dtype == at_3.dtype == good.dtype == np.bool_
        members = 0
        for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
            c = CurveParams(x, y)
            want_2 = (y % 2 == 1 and x % 8 == 6) or (x % 4 == 1 and y % 32 == 16)
            want_3 = (x % 3 != 0 and y % 3 == 2) or (x % 3 == 0 and y % 3 != 0)
            want_good = want_2 and want_3 and (y % 2 == 0 or (y - (x // 2) ** 2) % 128 == 64)
            assert (family_at_2(x, y), bool(at_2[i])) == (want_2,) * 2
            assert (family_at_3(x, y), bool(at_3[i])) == (want_3,) * 2
            assert in_family(c) == (want_2 and want_3)
            assert (good_family(x, y), bool(good[i])) == (want_good,) * 2
            members += want_good
        assert 0 < members < np.count_nonzero(at_2 & at_3)


def _residue_lift(a0, b0, m):
    """A valid curve congruent to (a0, b0) mod m."""
    b = b0 if b0 != 0 else m
    if a0 * a0 == 4 * b:
        b += m
    return CurveParams(a0, b)


def _tate_good_23(c):
    return all(tate_algorithm(c, p).conductor_exponent == 0 for p in (2, 3))


class TestGoodFamily:
    def test_examples(self):
        assert good_family(6, 73)  # 73 = 3^2 + 64 mod 128
        assert good_family(1, 80)  # 80 = 16 mod 32, 80 = 2 mod 3
        assert in_family(CurveParams(6, 1)) and not good_family(6, 1)
        assert not good_family(5, 5)

    def test_matches_tate_on_residue_lifts(self):
        # every predicate class mod 768 = 2^8 * 3, each at two lifts
        m = 768
        checked = 0
        for a0 in range(m):
            for b0 in range(m):
                if not in_family(_residue_lift(a0, b0, m)):
                    continue
                for a, b in ((a0, b0), (a0 - m, b0 + 3 * m)):
                    c = _residue_lift(a, b, m)
                    assert good_family(c.a, c.b) == _tate_good_23(c), (c.a, c.b)
                    checked += 1
        assert checked == 2 * m * m // 32

    def test_matches_tate_on_census_records(self):
        records, _ = census_records(10**5)
        good = 0
        for a, b, *_ in records.tolist():
            c = CurveParams(a, b)
            assert good_family(a, b) == _tate_good_23(c), (a, b)
            good += good_family(a, b)
        assert 0 < good < len(records)

    def test_two_adic_mass(self):
        # classes mod 384 = 2^7 * 3; the 3-adic predicate is independent of the 2-adic one
        m = 384
        count = sum(
            good_family(c.a, c.b)
            for c in (_residue_lift(a0, b0, m) for a0 in range(m) for b0 in range(m))
        )
        mass = Fraction(count, m * m)
        assert mass == Fraction(9, 1024) * ld.good_reduction_density_3()
        assert ld.good_reduction_density_2() == Fraction(9, 128)


class TestConductorIndex:
    def test_family_conductor(self):
        assert reduction(CurveParams(6, 73)).conductor_6 == 73
        # 73 * 256 = |cond poly|; the 2-power is not part of the prime-to-6 index
        assert reduction(CurveParams(6, 73)).index_6 == 1

    def test_prime_to_6_parts(self):
        assert reduction(CurveParams(5, 5)).conductor_6 == 25
        assert reduction(CurveParams(5, 5)).index_6 == 1
        assert reduction(CurveParams(9, 20)).conductor_6 == 5
        # |cond poly| = 20 = 4 * 5: the prime-to-6 index is 1
        assert reduction(CurveParams(9, 20)).index_6 == 1

    def test_additive_exponent(self):
        # 5 | a and 5 | b: additive at 5
        assert reduction(CurveParams(5, 25)).conductor_6 == 25

    def test_tate_conductor_of_good_family_member(self):
        # member curves need not have f_2 = 0 (the mod-8 clause overcounts);
        # (6, 73) really is good at 2 and 3, so both conductors agree here
        assert reduction(CurveParams(6, 73)).conductor == 73

    def test_minimal_pair(self):
        assert reduction(CurveParams(25, 625)).minimal == CurveParams(1, 1)
        assert reduction(CurveParams(6, 73)).minimal == CurveParams(6, 73)
        assert reduction(CurveParams(150, 3125)).minimal == CurveParams(6, 5)

    def test_conductor_uses_minimal_model(self):
        # (25, 625) is (1, 1) rescaled; (1,1) has good reduction everywhere >= 5
        assert reduction(CurveParams(25, 625)).conductor_6 == 1


def _seeded_curves():
    """20 curves with |a| <= 1e6 and |b| <= 1e11."""
    rng = random.Random(20231018)
    out = []
    while len(out) < 20:
        a, b = rng.randint(-10**6, 10**6), rng.randint(-10**11, 10**11)
        if b != 0 and a * a != 4 * b:
            out.append(CurveParams(a, b))
    return out


def _oracle_check(c, red):
    """reduction(c) against Tate's algorithm at every prime dividing Delta."""
    m = red.minimal
    cond = 1
    for p, _ in ar.factorize(discriminant(c)).factors:
        cond *= p ** tate_algorithm(c, p).conductor_exponent
    assert red.conductor == cond, (c.a, c.b)
    primes = [p for p, _ in ar.factorize(discriminant(m)).factors]
    assert [r.p for r in red.local] == primes
    for r in red.local:
        tate = tate_algorithm(m, r.p)
        assert (r.symbol, r.conductor_exponent, r.v_disc_min) == (
            tate.symbol, tate.conductor_exponent, tate.v_disc_min), (c.a, c.b, r.p)
    assert red.conductor_6 == cond // (2 ** valuation(cond, 2) * 3 ** valuation(cond, 3))
    # |Delta_min|: the literal discriminant with its 2- and 3-parts cut by Tate
    d = abs(discriminant(m))
    for p in (2, 3):
        d //= p ** (valuation(d, p) - tate_on_model((0, m.a, 0, m.b, 0), p)[2])
    assert red.disc_min == d


class TestReduction:
    def test_census_records_against_oracles(self):
        # off the family (Z = 2000), E and phi(E) also have bad reduction at 2 and 3
        for Z, use_family in ((10**4, True), (2000, False)):
            records, _ = census_records(Z, use_family=use_family)
            assert len(records) > 100
            for a, b, _, cond_6, index_6, *_ in records.tolist():
                c = CurveParams(a, b)
                red = reduction(c)
                _oracle_check(c, red)
                assert (red.conductor_6, red.index_6) == (cond_6, index_6)
                if cond_6 > 1:
                    phi_ratio = reduction(isogeny(c)).szpiro_ratio()
                    assert red.avg_szpiro() == (reduction(c).szpiro_ratio() + phi_ratio) / 2.0

    def test_large_seeded_curves_against_oracles(self):
        base = _seeded_curves()
        copies = [CurveParams(c.a * p * p, c.b * p**4) for c, p in zip(base, (5, 7, 11))]
        for c, copy in zip(base, copies):
            assert reduction(copy).minimal == reduction(c).minimal
        for c in base + copies:
            red = reduction(c)
            _oracle_check(c, red)
            m = red.minimal
            cp6 = abs(conductor_polynomial(m))
            cp6 //= 2 ** valuation(cp6, 2) * 3 ** valuation(cp6, 3)
            assert red.index_6 * red.conductor_6 == cp6
            if red.conductor_6 > 1:
                phi_ratio = reduction(isogeny(c)).szpiro_ratio()
                assert avg_szpiro(c) == (reduction(c).szpiro_ratio() + phi_ratio) / 2.0

    def test_tate_once_per_model_and_prime(self, monkeypatch):
        # E and phi(E) at 2, and at 3 exactly when 3 | bc (their shared 3-support)
        calls = []
        tate = curve_core.tate_on_model
        monkeypatch.setattr(curve_core, "tate_on_model",
                            lambda co, p: calls.append((co, p)) or tate(co, p))

        def expected(a, b):
            c = a * a - 4 * b
            primes = (2, 3) if b * c % 3 == 0 else (2,)
            return sorted((m, p) for m in ((0, a, 0, b, 0), (0, -2 * a, 0, c, 0))
                          for p in primes)

        for a, b in ((123457, 98765432101), (5, 5), (1, -5), (150, 3125)):
            m = reduction(CurveParams(a, b)).minimal
            calls.clear()
            assert cli.main(["classify", str(a), str(b)]) == 0
            assert sorted(calls) == expected(m.a, m.b), (a, b)

        checked = []
        of_parts = census.avg_szpiro_of_parts

        def traced(a, b, *rest):
            calls.clear()
            ratio = of_parts(a, b, *rest)
            assert sorted(calls) == expected(a, b), (a, b)
            assert ratio == avg_szpiro(CurveParams(a, b)), (a, b)
            checked.append(b * (a * a - 4 * b) % 3 == 0)
            return ratio

        monkeypatch.setattr(census, "avg_szpiro_of_parts", traced)
        census.run_census(census.CensusConfig(
            X=10**4, family="Kappa", kappa=2.2, order_by="Conductor", index_cap=100))
        assert checked and not any(checked)  # the family is prime to 3
        checked.clear()
        census.run_census(census.CensusConfig(
            X=10**4, family="Kappa", kappa=2.0, good_reduction_filter=False))
        assert any(checked) and not all(checked)

    def test_two_factorizations_per_curve(self, monkeypatch):
        calls = []
        factorize = ar.factorize
        monkeypatch.setattr(ar, "factorize", lambda n: calls.append(n) or factorize(n))
        for c in [CurveParams(123457, 98765432101), CurveParams(150, 3125)]:
            calls.clear()
            avg_szpiro(c)
            assert len(calls) <= 2, (c, calls)


class TestIsogeny:
    def test_example(self):
        assert isogeny(CurveParams(1, 5)) == CurveParams(-2, -19)

    @given(valid_pairs())
    def test_conductor_poly_ratio_16(self, c):
        phi = isogeny(c)
        assert conductor_polynomial(phi) == 16 * conductor_polynomial(c)

    @given(valid_pairs(-25, 25))
    @settings(max_examples=60, deadline=None)
    def test_conductor_invariance(self, c):
        phi = isogeny(c)
        assert reduction(c).conductor == reduction(phi).conductor


class TestSzpiro:
    def test_ratio_example(self):
        assert reduction(CurveParams(5, 5)).szpiro_ratio() == pytest.approx(2.361353, abs=1e-5)

    def test_undefined_for_conductor_one(self):
        with pytest.raises(ValueError):
            reduction(CurveParams(6, 1)).szpiro_ratio()

    def test_avg_example(self):
        # phi(5,5) = (-10, 5): disc 32000 already 2,3-minimal, conductor 25
        phi = isogeny(CurveParams(5, 5))
        assert tate_algorithm(phi, 2).v_disc_min == 8
        expected = (math.log(2000) + math.log(32000)) / (2 * math.log(25))
        assert avg_szpiro(CurveParams(5, 5)) == pytest.approx(expected, rel=1e-12)
        assert avg_szpiro(CurveParams(5, 5)) == pytest.approx(2.79204, abs=1e-4)
