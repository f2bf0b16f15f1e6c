import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import is_prime_13_bases, trial_hits_int64
import uniformity as un

from twotor import arithmetic as ar
from twotor import census


def brute_factor(n):
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_factorize_examples():
    f1 = ar.factorize(1)
    assert (f1.sign, f1.factors) == (1, ())
    assert ar.factorize(512).factors == ((2, 9),)
    fm = ar.factorize(-95)
    assert fm.sign == -1
    assert fm.factors == ((5, 1), (19, 1))


# Both sides of the 2^16 table and of 2^63 (the numpy and the Python-int trial
# division), prime powers and semiprimes past the 10^5 trial primes.
_EDGE_VALUES = [1, 2, 3, 4, 2**16 - 1, 2**16, 2**16 + 1, 65521, 65537, 99991 * 100003,
                1000003**2, 1000003 * 1000033, 2**61 - 1, 2**63 - 1, 2**63, 2**63 + 1,
                3**40, 10**20 - 4, 99991**2 * 7**5 * 2**70]


@pytest.mark.parametrize("n", _EDGE_VALUES + [-n for n in _EDGE_VALUES])
def test_factorize_edge_cases(n):
    f = ar.factorize(n)
    assert un.reassemble(f) == n and f.sign == (1 if n > 0 else -1)
    primes = [p for p, _ in f.factors]
    assert all(p < q for p, q in zip(primes, primes[1:]))
    assert all(ar.is_prime(p) and e >= 1 for p, e in f.factors)
    if abs(n) < 10**12:
        assert f.factors == tuple(brute_factor(n))


def test_factorize_below_1e10_needs_no_rho(monkeypatch):
    # the trial primes reach 10^5, so anything <= 10^10 leaves 1 or a prime
    monkeypatch.setattr(ar, "_pollard_brent", lambda n: pytest.fail(f"rho on {n}"))
    for n in (99991 * 99989, 99991**2, 3 * 99991 * 33331, 10**10 - 1, 10**10, 9999999967):
        f = ar.factorize(n)
        assert un.reassemble(f) == n and all(ar.is_prime(p) for p, _ in f.factors)


def test_smallest_prime_factor_past_the_table():
    assert ar.factorize(2**16 + 1).factors[0][0] == 65537
    assert ar.factorize(1000003 * 1000033).factors[0][0] == 1000003
    assert ar.factorize(2**63 + 1).factors[0][0] == 3
    assert ar.factorize(99991**2).factors[0][0] == 99991


def test_pollard_rho_budget(monkeypatch):
    monkeypatch.setattr(ar, "_RHO_STEPS", 64)
    with pytest.raises(ar.FactoringBudgetError, match="in 64 steps"):
        ar.factorize(1000003 * 1000033)


def test_squarefree_primes_match_factorize():
    # both sides of the SPF table: 65537 and 65539 are the first primes past it
    rng = random.Random(13)
    primes = ar.primes_up_to(70000).tolist()
    values = [1, 2, 3, 30, 65521, 65536 - 1, 65537, 65545, 65537 * 65539, 5 * 65537, 2 * 65521]
    for _ in range(300):
        picked = sorted(set(rng.sample(primes, rng.randint(1, 3))))
        values.append(math.prod(picked))
    idx, p = ar.prime_divisors(np.array(values, dtype=np.int64))
    want = [(i, q) for i, v in enumerate(values) if v > 1 for q, _ in ar.factorize(v).factors]
    assert list(zip(idx.tolist(), p.tolist())) == want


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        ar.factorize(0)


def test_valuation_examples():
    assert un.valuation(512, 2) == 9
    assert un.valuation(7, 5) == 0
    assert un.valuation(2000, 5) == 3
    assert un.valuation(-2000, 5) == 3 and un.valuation(-(2**70), 2) == 70
    with pytest.raises(ValueError):
        un.valuation(0, 2)
    with pytest.raises(ValueError):
        un.valuation(12, 4)


def test_squarefree_decompose_examples():
    assert un.squarefree_decompose(1) == (1, 1)
    assert un.squarefree_decompose(12) == (3, 2)
    assert un.squarefree_decompose(45) == (5, 3)
    with pytest.raises(ValueError):
        un.squarefree_decompose(8)


def test_predicates_examples():
    assert not un.is_cubefree(32)
    assert un.radical(512) == 2
    assert un.tau(95) == 4


def test_reassembly_small_range():
    # full brute-force agreement on 1..20000, spot checks beyond
    for n in range(1, 20001):
        f = ar.factorize(n)
        assert un.reassemble(f) == n
        assert f.factors == tuple(brute_factor(n))
    for n in (10**5, 10**5 + 7, 2**31 - 1, 10**10 + 19, 999966000289):
        f = ar.factorize(n)
        assert un.reassemble(f) == n
        for p, _ in f.factors:
            assert ar.is_prime(p)


def test_tau_radical_against_divisor_scan():
    for n in range(1, 3000):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        assert un.tau(n) == len(divs)
        rad = 1
        for p in range(2, n + 1):
            if n % p == 0 and ar.is_prime(p):
                rad *= p
        assert un.radical(n) == rad


def test_divisors_matches_tau():
    for n in (1, 12, 95, 360, 2**6 * 3**3):
        ds = un.divisors(n)
        assert len(ds) == un.tau(n)
        assert all(n % d == 0 for d in ds)


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=200, deadline=None)
def test_factorize_roundtrip_property(n):
    f = ar.factorize(n)
    assert un.reassemble(f) == n
    primes = [p for p, _ in f.factors]
    assert primes == sorted(primes)
    assert all(ar.is_prime(p) for p in primes)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_squarefree_decompose_roundtrip(n):
    if not un.is_cubefree(n):
        with pytest.raises(ValueError):
            un.squarefree_decompose(n)
        return
    n0, n1 = un.squarefree_decompose(n)
    assert n0 * n1 * n1 == n
    assert un.is_squarefree(n0) if n0 > 1 else True
    assert un.is_squarefree(n1) if n1 > 1 else True
    assert math.gcd(n0, n1) == 1


def test_is_prime_agrees_with_trial_division():
    small = set(int(p) for p in ar.primes_up_to(10000))
    for n in range(2, 10000):
        assert ar.is_prime(n) == (n in small)


def test_is_prime_on_both_sides_of_the_table(monkeypatch):
    # a fresh table covers n <= 2^16 (spf lookup); above it Miller-Rabin answers
    monkeypatch.setattr(ar, "_sieve", ar._SpfSieve())
    assert ar._sieve.limit == 2**16
    primes = set(ar.primes_up_to(2**17).tolist())
    assert [n for n in range(-5, 2**17) if ar.is_prime(n)] == sorted(primes)
    assert ar.is_prime(10**12 + 39) and ar.is_prime(2**61 - 1)
    assert not any(ar.is_prime(n) for n in (561, 41041, 3215031751, (2**31 - 1) ** 2))


def test_first_strong_pseudoprime_to_twelve_bases():
    # the least strong pseudoprime to the first 12 prime bases; base 41 exposes it
    n = 318665857834031151167461
    assert not ar.is_prime(n)
    assert ar.factorize(n).factors == ((399165290221, 1), (798330580441, 1))
    assert ar.is_prime(399165290221) and ar.is_prime(798330580441)


# psi_k for k = 1..7, 9 and 12: the least strong pseudoprime to the first k
# prime bases, the bounds of is_prime's witness sets
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051, 318665857834031151167461)


def test_witness_set_bounds():
    assert tuple(psi for psi, _ in ar._MR_SIZED) == _PSI
    assert [len(bases) for _, bases in ar._MR_SIZED] == [1, 2, 3, 4, 5, 6, 7, 9, 12]


@pytest.mark.parametrize("psi", _PSI)
def test_least_strong_pseudoprimes_are_composite(psi):
    # each psi_k fools exactly the first k bases, so it sits at the edge of its set
    assert not ar.is_prime(psi)
    assert not is_prime_13_bases(psi)
    assert un.reassemble(ar.factorize(psi)) == psi and len(ar.factorize(psi).factors) > 1


def _next_prime(n):
    while not is_prime_13_bases(n):
        n += 1
    return n


_primes = st.integers(2**16, 2**40).map(_next_prime)
_sized_inputs = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(lambda psi, d: psi + d, st.sampled_from(_PSI), st.integers(-1000, 1000)),
    st.builds(lambda p, q: p * q, _primes, _primes),
    # (k + 1)(2k + 1), the shape of psi_12 = 399165290221 * 798330580441
    st.builds(lambda p: p * (2 * p - 1), _primes),
)


@settings(max_examples=800, deadline=None)
@given(_sized_inputs)
def test_sized_witnesses_match_all_thirteen(n):
    assert ar.is_prime(n) == is_prime_13_bases(n)


def test_primes_up_to():
    ps = ar.primes_up_to(100)
    assert list(ps[:10]) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(ps) == 25


def brute_spf(n):
    spf = [0] * (n + 1)
    for d in range(2, n + 1):
        if spf[d] == 0:
            for k in range(d, n + 1, d):
                if spf[k] == 0:
                    spf[k] = d
    return spf


@pytest.mark.parametrize("n", [2, 3, 4, 9, 100, 1001, 4097, 2**16])
def test_spf_build_matches_brute_force(n):
    assert ar._SpfSieve._build(n).tolist() == brute_spf(n)


def plain_spf(n):
    """The unsegmented sieve: each odd prime marks only the slots still empty."""
    spf = np.zeros(n + 1, dtype=np.uint32)
    spf[2::2] = 2
    for p in range(3, math.isqrt(n) + 1, 2):
        if spf[p] == 0:
            spf[p * p:: 2 * p][spf[p * p:: 2 * p] == 0] = p
    z = np.flatnonzero(spf[3::2] == 0)
    spf[3::2][z] = 2 * z + 3
    return spf


@pytest.mark.parametrize("n", [(1 << 20) - 1, 1 << 20, (1 << 20) + 1,
                               3 * (1 << 20) + 12345, 5 * 10**6 + 3])
def test_blocked_spf_build_matches_plain_sieve(n):
    # limits on both sides of 2^20 and far past the 2^16 table
    assert np.array_equal(ar._SpfSieve._build(n), plain_spf(n))


def _profile_by_factorize(n):
    rad, part, emax = 1, 1, 0
    for p, e in ar.factorize(n).factors:
        if p >= 5:
            rad, part, emax = rad * p, part * p**e, max(emax, e)
    return rad, part, emax


@pytest.mark.parametrize("table", [None, 2**8])
def test_prime_to_6_profile_matches_factorize(monkeypatch, table):
    # a 2^8 table sends most values, the powers 3 * 2^k (cofactor 3) and the
    # squares of the first primes past the table through bulk trial division
    if table is not None:
        monkeypatch.setattr(ar, "_INITIAL_SIEVE", table)
        monkeypatch.setattr(ar, "_sieve", ar._SpfSieve())
        assert ar._sieve.limit == table
    values = list(range(-3000, 0)) + list(range(1, 3000))
    values += [5**13, -(7**9) * 2**5, 2**40, 3**20 * 11, 999966000289, 10**12 - 11]
    values += [2**16 + k for k in range(-50, 50)]
    values += [m * 2**k for m in (1, 3) for k in range(1, 30)] + [2 * 3**k for k in range(1, 20)]
    values += [p**2 for p in (257, 263, 65537, 65539)] + [257 * 263, 5 * 257**2]
    rad, part, emax = ar.prime_to_6_profile(values)
    got = list(zip(rad.tolist(), part.tolist(), emax.tolist()))
    assert got == [_profile_by_factorize(v) for v in values]
    row, p = ar.prime_divisors(np.abs(values))
    want = [(i, q) for i, v in enumerate(values) if abs(v) > 1 for q, _ in ar.factorize(v).factors]
    assert list(zip(row.tolist(), p.tolist())) == want
    assert [len(x) for x in ar.prime_to_6_profile([])] == [0, 0, 0]
    with pytest.raises(ValueError):
        ar.prime_to_6_profile([5, 0])


def test_trial_division_matches_factorize():
    # values past the 2^16 table: both sides of it, prime squares and cubes
    # above it, semiprimes of two primes near 1e6 (up to 1e12), and 2^40
    assert ar._sieve.limit == 2**16
    big_primes = [65537, 65539, 1000003, 999983, 2**31 - 1]
    values = [2**16 + k for k in range(-300, 300)]
    values += [p**2 for p in [257, 4099, *big_primes[:4]]] + [p**3 for p in (41, 4099, 10007)]
    values += [-(p**2) * 2**3 * 3 * 7 for p in big_primes[:2]]
    values += [p * q for p in (999983, 999979, 999961) for q in (1000003, 1000033)]
    values += [999983 * 5**4, 2**31 - 1, 2 * 3**5 * (2**31 - 1), 3**25, 2**40]
    values += random.Random(5).sample(range(2**16, 10**12), 300)
    rad, part, emax = ar.prime_to_6_profile(values)
    got = list(zip(rad.tolist(), part.tolist(), emax.tolist()))
    assert got == [_profile_by_factorize(v) for v in values]
    with pytest.raises(ValueError):
        ar.prime_to_6_profile([2**40 + 1])


def _use_table(mp, table):
    if table is not None:
        mp.setattr(ar, "_INITIAL_SIEVE", table)
        mp.setattr(ar, "_sieve", ar._SpfSieve())


def _check_profile(values):
    rad, part, emax = ar.prime_to_6_profile(values)
    got = list(zip(rad.tolist(), part.tolist(), emax.tolist()))
    assert got == [_profile_by_factorize(v) for v in values], values


def _shaped(bits):
    """Values below 2^bits shaped like what the cube-root cut has to tell
    apart: p^2 or p^3 times a cofactor, and a product of two primes."""
    def primes(k):
        return st.sampled_from(ar.primes_up_to(1 << k)[2:].tolist())

    return st.one_of(
        st.builds(lambda p, k: p * p * k, primes(bits // 3), st.integers(1, 1 << bits // 3)),
        st.builds(lambda p, k: p**3 * k, primes(bits // 4), st.integers(1, 1 << bits // 4)),
        st.builds(lambda p, q: p * q, primes(bits // 2), primes(bits // 2)),
    )


_SMALL = st.one_of(st.integers(-(1 << 24), 1 << 24).filter(bool), _shaped(24))
_LARGE = st.one_of(st.integers(1 << 30, 1 << 40), _shaped(40))


@pytest.mark.parametrize("table", [None, 2**8])
@given(small=st.lists(_SMALL, max_size=40),
       large=_LARGE, at=st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_cube_root_profile_matches_factorize(table, small, large, at):
    # one large value sets the batch's trial-division bound, cbrt(max), far
    # above the cube root of each small value, which must leave on its own
    values = small[:at] + [large] + small[at:]
    with pytest.MonkeyPatch.context() as mp:
        _use_table(mp, table)
        _check_profile(values)


def _prime_after(p):
    return next(q for q in range(p + 1, 2 * p + 2) if ar.is_prime(q))


@pytest.mark.parametrize("k", [5, 8])
def test_iroot_at_the_census_orders(k):
    # a census count takes the primes p^5 <= Z and the d^8 <= Z, up to its limit:
    # every r^k - 1, r^k and r^k + 1 in reach, each side of a float k-th root
    top = ar._iroot(census._MAX_COUNT_Z, k)
    assert top**k <= census._MAX_COUNT_Z < (top + 1) ** k and top == {5: 1000, 8: 74}[k]
    for r in range(1, top + 1):
        n = r**k
        assert (ar._iroot(n - 1, k), ar._iroot(n, k), ar._iroot(n + 1, k)) == (r - 1, r, r)


@pytest.mark.parametrize("table", [None, 2**8])
@pytest.mark.parametrize("t", [1031, 9973, 10313])  # 10313 is the last prime below cbrt(2^40)
def test_cube_root_profile_at_the_bound(monkeypatch, table, t):
    # the batch's bound is t itself (largest value t^3) or t - 1 (largest
    # value just below t^3, prime to 6); p^3 and p^2 q sit on both sides of
    # it, and q q', q^2 use primes just above it
    _use_table(monkeypatch, table)
    prev = max(p for p in range(t - 100, t) if ar.is_prime(p))
    nxt = _prime_after(t)
    nxt2 = _prime_after(nxt)
    members = [t**3, prev**3, t**2 * prev, prev**2 * t, t**2 * nxt, nxt**2 * t,
               nxt**2 * prev, nxt * nxt2, nxt**2, t**2, t * nxt, -(nxt * nxt2) * 2**5 * 3]
    below = next(m for m in (t**3 - 2, t**3 - 4) if m % 3)
    assert ar._iroot(t**3, 3) == t and ar._iroot(below, 3) == t - 1
    for top in (t**3, below):
        _check_profile([top] + [v for v in members if abs(v) <= top])


@pytest.mark.parametrize("table", [None, 2**8])
def test_cube_root_profile_squares_past_the_table(monkeypatch, table):
    # the first primes past either table, squared, leave the cut as squares;
    # 2^40 is the largest value the profile takes, and has an empty part
    _use_table(monkeypatch, table)
    past = [257, 263, 269, 65537, 65539, 65543]
    values = [p * p for p in past] + [p * q for p, q in zip(past, past[1:])]
    _check_profile(values)
    _check_profile(values + [2**40])
    _check_profile([2**40, 2**40 - 1, -(2**40)])
    _check_profile([p * p * 5**3 for p in past])


def _trial_step_cases():
    n52 = 1 << 52
    top = [int(p) for p in ar.primes_up_to(10**5)[-60:]]
    cases = [n52 + k for k in range(-400, 401)]
    cases += [p * p + d for p in top for d in (-1, 0, 1)]  # prime squares near 1e10
    cases += [p * q for p, q in zip(top, top[1:])] + [p * q for p in top[:8] for q in top[-8:]]
    # the largest multiples of p below 2^52, and one either side: the float
    # quotient of the neighbours rounds to an integer
    cases += [(n52 - 1) // p * p + d for p in top for d in (-1, 0, 1)]
    cases += [n52 // (p * p) * p * p for p in top] + [-(-n52 // (p * p)) * p * p for p in top]
    rng = random.Random(52)
    cases += [rng.randrange(1, n52) for _ in range(300)]
    cases += [rng.randrange(1, n52 >> 12) * rng.choice(top) for _ in range(300)]
    # past 2^53 a double no longer holds every integer: the int64 side
    cases += [(1 << 53) + k for k in range(-100, 101)]
    cases += [rng.randrange(1 << 36, 1 << 46) * rng.choice(top) for _ in range(200)]
    return cases


def test_float_trial_step_matches_int64_remainder():
    # below 2^52 _trial_hits tests floor(n / p) p == n in float64; above it
    # it takes the int64 remainder, which the oracle takes everywhere
    cases = _trial_step_cases()
    assert min(cases) >= 1 and max(cases) < 1 << 63
    assert sum(n < 1 << 52 for n in cases) > 1000
    for n in cases:
        assert ar._trial_hits(n) == trial_hits_int64(n), n
