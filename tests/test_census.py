"""Region enumeration against brute force, census counts against recounts."""

import math
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotor import arithmetic as ar
from twotor import census
from twotor._constants import PAIR_COUNT_CONST
from twotor.curve_core import CurveParams, avg_szpiro, in_family, reduction, tate_algorithm


def brute_region(X):
    out = set()
    A = isqrt(4 * X + 1)
    for a in range(-A, A + 1):
        for b in range(-X, X + 1):
            v = b * (a * a - 4 * b)
            if v != 0 and abs(v) <= X:
                out.add((a, b))
    return out


def _six_part(n):
    n = abs(n)
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n


class TestBIntervals:
    @pytest.mark.parametrize("Z", [1, 7, 100, 499])
    def test_intervals_exact(self, Z):
        for a in range(-50, 51):
            t = a * a
            got = set()
            for lo, hi in census._b_intervals(a, Z):
                got.update(range(lo, hi + 1))
            want = {
                b
                for b in range(-Z - 2, t // 4 + Z + 3)
                if abs(b * (t - 4 * b)) <= Z
            }
            assert got == want, (a, Z)

    @given(st.integers(-3000, 3000), st.integers(1, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_intervals_consistent(self, a, Z):
        t = a * a
        intervals = census._b_intervals(a, Z)
        for lo, hi in intervals:
            # endpoints satisfy the region predicate, one step out fails it
            if lo <= hi:
                assert abs(lo * (t - 4 * lo)) <= Z
                assert abs(hi * (t - 4 * hi)) <= Z
        for b in (x for lo, hi in intervals for x in (lo - 1, hi + 1)):
            if not any(lo <= b <= hi for lo, hi in intervals):
                assert abs(b * (t - 4 * b)) > Z


class TestEnumerateRegion:
    @pytest.mark.parametrize("X", [50, 300, 1000])
    def test_matches_brute_force(self, X):
        got = [(c.a, c.b) for c in census.enumerate_region(X)]
        assert len(got) == len(set(got))
        assert set(got) == brute_region(X)

    def test_narrow_neck_curve_present(self):
        # |a| exceeds sqrt(X/4 + 4) here; the region has long thin horns
        assert (9, 20) in {(c.a, c.b) for c in census.enumerate_region(100)}

    def test_deterministic_order(self):
        first = [(c.a, c.b) for c in census.enumerate_region(400)]
        second = [(c.a, c.b) for c in census.enumerate_region(400)]
        assert first == second

    def test_filter_applied(self):
        pairs = list(census.enumerate_region(2000, filter=in_family))
        assert pairs
        assert all(in_family(c) for c in pairs)
        everything = {(c.a, c.b) for c in census.enumerate_region(2000)}
        assert {(c.a, c.b) for c in pairs} < everything

    def test_count_tracks_three_quarters_power(self):
        X = 10**4
        n = sum(1 for _ in census.enumerate_region(X))
        ratio = n / (float(PAIR_COUNT_CONST) * X**0.75)
        assert 0.85 < ratio < 1.15

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            list(census.enumerate_region(0))
        with pytest.raises(ValueError):
            list(census.enumerate_region(10**13))


class TestCurveRecords:
    def test_multiplicative_curve(self):
        rec, anoms = census._curve_record(9, 20)
        assert rec == (9, 20, 20, 5, 1, True)
        assert anoms == []

    def test_additive_curve(self):
        rec, anoms = census._curve_record(5, 5)
        assert rec == (5, 5, 25, 25, 1, True)
        assert anoms == []

    def test_rescaled_copy_skipped(self):
        rec, _ = census._curve_record(25, 625)
        assert rec is None

    def test_out_of_list_symbol_reported(self):
        # v(b) = 2 with v(a^2-4b) = 3 lands outside {III, I0*, III*}
        rec, anoms = census._curve_record(10, 150)
        assert rec == (10, 150, 75000, 25, 125, False)
        assert anoms == [(10, 150, 5, "I1*")]

    def test_unit_conductor_polynomial(self):
        rec, _ = census._curve_record(1, 1)
        assert rec == (1, 1, 3, 1, 1, True)


@pytest.fixture(params=["default sieve", "sieve capped at 65536"])
def sieve(request, monkeypatch):
    """The shared SPF table, or a fresh one capped below the region bound."""
    if request.param != "default sieve":
        monkeypatch.setenv("CENSUS_SIEVE_BOUND", "65536")
        monkeypatch.setattr(ar, "_sieve", ar._SpfSieve())
    return request.param


class TestColumnarSweep:
    def test_matches_scalar_records(self, sieve):
        # records, their order and the anomaly list, against _curve_record
        Z = 10**5
        mask = census._family_mask()
        want_records, want_anomalies = [], []
        for c in census.enumerate_region(Z):
            if mask[c.a % 96, c.b % 96]:
                rec, anoms = census._curve_record(c.a, c.b)
                if rec is not None:
                    want_records.append(rec)
                    want_anomalies.extend(anoms)
        records, anomalies = census._census_records(Z)
        assert want_anomalies and any(not r[5] for r in want_records)
        assert records == want_records
        assert anomalies == want_anomalies
        assert all(type(x) is int for r in records for x in r[:5])
        assert all(type(r[5]) is bool for r in records)

    def test_all_residues_matches_scalar_records(self):
        Z = 2000
        want = [census._curve_record(c.a, c.b)[0] for c in census.enumerate_region(Z)]
        records, _ = census._census_records(Z, use_family=False)
        assert records == [r for r in want if r is not None]

    def test_rescaled_copy_skipped_in_block(self):
        # (75, 1250) = (3 * 5^2, 2 * 5^4) is the rescaled copy of (3, 2)
        Z, a = 10**6, 75
        pairs = [(a, b) for lo, hi in census._b_intervals(a, Z) for b in range(lo, hi + 1)
                 if b * (a * a - 4 * b) != 0]
        want = [census._curve_record(a, b) for a, b in pairs]
        records, anomalies = census._block_records((Z, a, a, False))
        assert records == [rec for rec, _ in want if rec is not None]
        assert anomalies == [x for _, anoms in want for x in anoms]
        assert (a, 1250) in pairs and (a, 1250) not in {r[:2] for r in records}

    def test_conductor_ordering_beyond_the_sieve(self, sieve):
        X, cap = 100, 1000  # the sweep covers |cond poly| <= 1e5
        report = census.run_census(
            census.CensusConfig(X=X, order_by="Conductor", index_cap=cap))
        expected = sum(
            1 for c in census.enumerate_region(X * cap, filter=in_family)
            if reduction(c).conductor_6 <= X)
        assert report.counts[-1] == expected == report.total_curves


class TestConfigValidation:
    def test_good_config(self):
        census.CensusConfig(X=100)
        census.CensusConfig(X=100, family="Kappa", kappa=2.0, order_by="Conductor")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(X=0),
            dict(X=100, family="Squarefree"),
            dict(X=100, family="Kappa"),
            dict(X=100, family="Kappa", kappa=1.0),
            dict(X=100, family="Kappa", kappa=2.3),
            dict(X=100, family="CondPoly", kappa=2.0),
            dict(X=100, order_by="Height"),
            dict(X=100, index_cap=0),
            dict(X=100, workers=0),
        ],
    )
    def test_bad_configs(self, kwargs):
        with pytest.raises(ValueError):
            census.CensusConfig(**kwargs)


class TestRunCensus:
    def test_condpoly_counts_match_enumeration(self):
        X = 1000
        report = census.run_census(census.CensusConfig(X=X))
        expected = sum(1 for _ in census.enumerate_region(X, filter=in_family))
        assert report.counts[-1] == expected == report.total_curves
        assert report.cutoffs == (10, 100, 1000)
        assert all(
            n1 <= n2 for n1, n2 in zip(report.counts, report.counts[1:])
        )
        assert all(r > 0 and math.isfinite(r) for r in report.ratios)
        assert report.caveat is None
        assert report.anomalies["predicate_oracle_2_3"]["bad_at_3"] == 0

    def test_cubefree_counts_match_recount(self):
        X = 1000
        report = census.run_census(census.CensusConfig(X=X, family="CubeFree"))
        expected = 0
        for c in census.enumerate_region(X, filter=in_family):
            fac = ar.factorize(c.b * (c.a * c.a - 4 * c.b))
            if all(e <= 2 for p, e in fac.factors if p >= 5):
                expected += 1
        assert report.counts[-1] == expected
        assert "index_tail_delta_0.1" in report.tails

    def test_conductor_ordering_matches_recount(self):
        X = 100
        cfg = census.CensusConfig(X=X, order_by="Conductor", index_cap=50)
        report = census.run_census(cfg)
        expected = 0
        for c in census.enumerate_region(X * 50, filter=in_family):
            if reduction(c).conductor_6 <= X:
                expected += 1
        assert report.counts[-1] == expected == report.total_curves
        assert report.caveat is not None

    def test_kappa_family_counts(self):
        X = 500
        cfg = census.CensusConfig(
            X=X, family="Kappa", kappa=2.27, order_by="Conductor", index_cap=100
        )
        report = census.run_census(cfg)
        expected = 0
        for c in census.enumerate_region(X * 100, filter=in_family):
            C = reduction(c).conductor_6
            if 1 < C <= X and avg_szpiro(c) <= 2.27:
                expected += 1
        assert expected > 0
        assert report.counts[-1] == expected == report.total_curves
        assert "szpiro_tail_theta_0.25" in report.tails

    def test_workers_do_not_change_report(self):
        X = 600
        r1 = census.run_census(census.CensusConfig(X=X, workers=1))
        r2 = census.run_census(census.CensusConfig(X=X, workers=2))
        assert r1.counts == r2.counts
        assert r1.total_curves == r2.total_curves
        assert r1.anomalies == r2.anomalies

    def test_explicit_cutoffs(self):
        report = census.run_census(census.CensusConfig(X=500), cutoffs=(100, 500))
        assert report.cutoffs == (100, 500)
        with pytest.raises(ValueError):
            census.run_census(census.CensusConfig(X=500), cutoffs=(100, 600))


class TestTails:
    def test_index_tail_matches_brute(self):
        X = 100
        got = census.tail_count_index(X, 0.1)
        thr = X**0.2
        expected = 0
        for c in census.enumerate_region(X * census.TAIL_INDEX_CAP, filter=in_family):
            cp = c.b * (c.a * c.a - 4 * c.b)
            fac = [(p, e) for p, e in ar.factorize(cp).factors if p >= 5]
            if any(e > 2 for _, e in fac):
                continue
            C = reduction(c).conductor_6
            if C <= X and _six_part(cp) // C > thr:
                expected += 1
        assert got == expected

    def test_szpiro_tail_matches_brute(self):
        # the tail counts only curves that Tate's algorithm calls good at 2 and 3
        X = 500
        got = census.tail_count_szpiro(X, 0.25, 2.25)
        expected = 0
        for c in census.enumerate_region(X * census.TAIL_INDEX_CAP, filter=in_family):
            if not all(tate_algorithm(c, p).conductor_exponent == 0 for p in (2, 3)):
                continue
            C = reduction(c).conductor_6
            if 1 < C <= X and 1.75 < avg_szpiro(c) <= 2.25:
                expected += 1
        assert expected > 0
        assert got == expected

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            census.tail_count_index(100, 0.0)
        with pytest.raises(ValueError):
            census.tail_count_index(100, 0.5)
        with pytest.raises(ValueError):
            census.tail_count_szpiro(100, 0.0, 2.0)
        with pytest.raises(ValueError):
            census.tail_count_szpiro(100, 0.1, 2.3)

    def test_empty_window_short_circuits(self):
        assert census.tail_count_szpiro(100, 0.8, 2.0) == 0
