"""Region enumeration against brute force, census counts against recounts."""

import math
import os
import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotor import arithmetic as ar
from twotor import census
from twotor._constants import PAIR_COUNT_CONST
from twotor.curve_core import (
    CurveParams,
    avg_szpiro,
    avg_szpiro_of_parts,
    in_family,
    in_good_family,
    reduction,
    tate_algorithm,
)

from oracles import b_intervals, curve_record, enumerate_region, records_as_tuples


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
            for lo, hi in b_intervals(a, Z):
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
        intervals = b_intervals(a, Z)
        for lo, hi in intervals:
            # endpoints satisfy the region predicate, one step out fails it
            if lo <= hi:
                assert abs(lo * (t - 4 * lo)) <= Z
                assert abs(hi * (t - 4 * hi)) <= Z
        for b in (x for lo, hi in intervals for x in (lo - 1, hi + 1)):
            if not any(lo <= b <= hi for lo, hi in intervals):
                assert abs(b * (t - 4 * b)) > Z


class TestBlockIntervals:
    @pytest.mark.parametrize("Z", [1, 7, 100, 10**6, 5 * 10**7, 10**9, 10**11, 10**12])
    def test_block_ends_match_scalar(self, Z):
        # both ends of the a-range, a near the hole threshold a^4 = 16 Z, and
        # seeded random a; column order and interval order as the scalar loop
        A = isqrt(4 * Z + 1)
        h = isqrt(isqrt(16 * Z))
        rng = random.Random(Z)
        a = {*range(-A, -A + 200), *range(A - 200, A + 1), *range(h - 100, h + 100),
             *range(-h - 100, -h + 100), *(rng.randint(-A, A) for _ in range(1000))}
        a = np.array(sorted(x for x in a if -A <= x <= A), dtype=np.int64)
        cols, los, his = census._block_intervals(a, Z)
        got = list(zip(cols.tolist(), los.tolist(), his.tolist()))
        assert got == [(x, lo, hi) for x in a.tolist() for lo, hi in b_intervals(x, Z)]
        assert len(got) > len(a) or Z <= 7  # some columns split around the hole

    @pytest.mark.parametrize("X", [10**2, 10**3, 10**4])
    def test_block_pairs_match_scalar_enumeration(self, X):
        A = isqrt(4 * X + 1)
        a, b, f = census._block_pairs(X, -A, A, use_family=False)
        assert list(zip(a.tolist(), b.tolist())) == [(c.a, c.b) for c in enumerate_region(X)]
        assert (f == b * (a * a - 4 * b)).all()


class TestEnumerateRegion:
    @pytest.mark.parametrize("X", [50, 300, 1000])
    def test_matches_brute_force(self, X):
        got = [(c.a, c.b) for c in enumerate_region(X)]
        assert len(got) == len(set(got))
        assert set(got) == brute_region(X)

    def test_narrow_neck_curve_present(self):
        # |a| exceeds sqrt(X/4 + 4) here; the region has long thin horns
        assert (9, 20) in {(c.a, c.b) for c in enumerate_region(100)}

    def test_deterministic_order(self):
        first = [(c.a, c.b) for c in enumerate_region(400)]
        second = [(c.a, c.b) for c in enumerate_region(400)]
        assert first == second

    def test_filter_applied(self):
        pairs = list(enumerate_region(2000, filter=in_family))
        assert pairs
        assert all(in_family(c) for c in pairs)
        everything = {(c.a, c.b) for c in enumerate_region(2000)}
        assert {(c.a, c.b) for c in pairs} < everything

    def test_count_tracks_three_quarters_power(self):
        X = 10**4
        n = sum(1 for _ in enumerate_region(X))
        ratio = n / (float(PAIR_COUNT_CONST) * X**0.75)
        assert 0.85 < ratio < 1.15

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            list(enumerate_region(0))
        with pytest.raises(ValueError):
            list(enumerate_region(10**13))


class TestCurveRecords:
    def test_multiplicative_curve(self):
        rec, anoms = curve_record(9, 20)
        assert rec == (9, 20, 20, 5, 1, True)
        assert anoms == []

    def test_additive_curve(self):
        rec, anoms = curve_record(5, 5)
        assert rec == (5, 5, 25, 25, 1, True)
        assert anoms == []

    def test_rescaled_copy_skipped(self):
        rec, _ = curve_record(25, 625)
        assert rec is None

    def test_out_of_list_symbol_reported(self):
        # v(b) = 2 with v(a^2-4b) = 3 lands outside {III, I0*, III*}
        rec, anoms = curve_record(10, 150)
        assert rec == (10, 150, 75000, 25, 125, False)
        assert anoms == [(10, 150, 5, "I1*")]

    def test_unit_conductor_polynomial(self):
        rec, _ = curve_record(1, 1)
        assert rec == (1, 1, 3, 1, 1, True)


@pytest.fixture(params=["default sieve", "sieve capped at 65536"])
def sieve(request, monkeypatch):
    """The shared SPF table, or a fresh one: 2^16 entries, below the region bound."""
    if request.param != "default sieve":
        monkeypatch.setattr(ar, "_sieve", ar._SpfSieve())
    return request.param


class TestColumnarSweep:
    def test_matches_scalar_records(self, sieve):
        # records, their order and the anomaly list, against curve_record
        Z = 10**5
        want_records, want_anomalies = [], []
        for c in enumerate_region(Z):
            if in_family(c):
                rec, anoms = curve_record(c.a, c.b)
                if rec is not None:
                    want_records.append(rec)
                    want_anomalies.extend(anoms)
        records, anomalies = census._census_records(Z)
        assert want_anomalies and any(not r[5] for r in want_records)
        assert records.dtype == census.RECORD_DTYPE
        assert records_as_tuples(records) == want_records
        assert anomalies == want_anomalies
        assert all(type(x) is int for x, *_ in anomalies)

    def test_family_table_is_in_family(self):
        # b0 - 96 is a nonzero b with a^2 - 4b > 0 in the class of b0
        want = [[in_family(CurveParams(a0, b0 - 96)) for b0 in range(96)] for a0 in range(96)]
        assert census._FAMILY_MOD96.tolist() == want

    def test_good_23_column_is_in_good_family(self):
        for use_family in (True, False):
            records, _ = census._census_records(2 * 10**4, use_family=use_family)
            want = [in_good_family(CurveParams(a, b))
                    for a, b in zip(records["a"].tolist(), records["b"].tolist())]
            assert records["good_23"].tolist() == want
            assert 0 < sum(want) < len(want)

    def test_all_residues_matches_scalar_records(self):
        Z = 2000
        want = [curve_record(c.a, c.b)[0] for c in enumerate_region(Z)]
        records, _ = census._census_records(Z, use_family=False)
        assert records_as_tuples(records) == [r for r in want if r is not None]

    def test_rescaled_copy_skipped_in_block(self):
        # (75, 1250) = (3 * 5^2, 2 * 5^4) is the rescaled copy of (3, 2)
        Z, a = 10**6, 75
        pairs = [(a, b) for lo, hi in b_intervals(a, Z) for b in range(lo, hi + 1)
                 if b * (a * a - 4 * b) != 0]
        want = [curve_record(a, b) for a, b in pairs]
        records, anomalies = census._block_records((Z, a, a, False))
        assert records_as_tuples(records) == [rec for rec, _ in want if rec is not None]
        assert anomalies == [x for _, anoms in want for x in anoms]
        assert (a, 1250) in pairs and (a, 1250) not in {r[:2] for r in records.tolist()}

    def test_conductor_ordering_beyond_the_sieve(self, sieve):
        X, cap = 100, 1000  # the sweep covers |cond poly| <= 1e5
        report = census.run_census(
            census.CensusConfig(X=X, order_by="Conductor", index_cap=cap))
        expected = sum(
            1 for c in enumerate_region(X * cap, filter=in_family)
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
        expected = sum(1 for _ in enumerate_region(X, filter=in_family))
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
        for c in enumerate_region(X, filter=in_family):
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
        for c in enumerate_region(X * 50, filter=in_family):
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
        for c in enumerate_region(X * 100, filter=in_family):
            C = reduction(c).conductor_6
            if 1 < C <= X and avg_szpiro(c) <= 2.27:
                expected += 1
        assert expected > 0
        assert report.counts[-1] == expected == report.total_curves
        assert "szpiro_tail_theta_0.25" in report.tails

    def test_kappa_filter_matches_avg_szpiro(self):
        # the filter reads the ratio off exact discriminants; avg_szpiro is the
        # per-curve oracle, and the float it gives must be the same float
        X, cap, kappa = 10**4, 100, 2.2
        cfg = census.CensusConfig(
            X=X, family="Kappa", kappa=kappa, order_by="Conductor", index_cap=cap
        )
        report = census.run_census(cfg)
        records, _ = census._census_records(X * cap)
        window = records[(records["conductor"] > 1) & (records["conductor"] <= X)]
        ratios = []
        for a, b, cond in zip(window["a"].tolist(), window["b"].tolist(),
                              window["conductor"].tolist()):
            ratio = avg_szpiro(CurveParams(a, b))
            parts = [math.prod(p**e for p, e in ar.factorize(n).factors if p >= 5)
                     for n in (b, a * a - 4 * b)]
            assert avg_szpiro_of_parts(a, b, *parts, cond) == ratio
            ratios.append(ratio)
        kept = sorted(cond for cond, r in zip(window["conductor"].tolist(), ratios)
                      if r <= kappa)
        assert 0 < report.total_curves == len(kept) < len(window)
        assert report.counts == tuple(
            sum(1 for cond in kept if cond <= cut) for cut in report.cutoffs)
        assert report.tails["szpiro_tail_theta_0.25"] == sum(
            1 for r in ratios if 1.5 + 0.25 < r <= kappa)

    def test_sweep_leaves_the_table_alone(self):
        # values past the SPF table are trial-divided; the table keeps its size
        report = census.run_census(census.CensusConfig(X=5 * 10**6))
        assert report.total_curves > 0
        assert ar._sieve.limit == 2**16

    def test_workers_do_not_change_report(self):
        X = 600
        r1 = census.run_census(census.CensusConfig(X=X, workers=1))
        r2 = census.run_census(census.CensusConfig(X=X, workers=2))
        assert r1.counts == r2.counts
        assert r1.total_curves == r2.total_curves
        assert r1.anomalies == r2.anomalies

    def test_pool_size_capped(self, monkeypatch):
        # a fork pool starts every worker at the first submit: the recorder
        # stands in for it, so no process is started whatever is asked for
        pools = []

        class Recorder:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def map(self, fn, blocks):
                return map(fn, blocks)

            def shutdown(self):
                pass

        monkeypatch.setattr(census, "ProcessPoolExecutor", Recorder)
        cpus = os.cpu_count() or 1
        # X = 1e6 sweeps a in [-2000, 2000]: four blocks of 1024 columns
        records, _ = census._census_records(10**6, workers=10**6)
        assert pools == ([min(4, cpus)] if cpus > 1 else [])
        assert np.array_equal(records, census._census_records(10**6)[0])
        for cpu_count, expected in ((64, 4), (3, 3)):
            pools.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
            census._census_records(10**6, workers=10**6)
            assert pools == [expected]
        # X = 1e3 is one block: no pool, and the config keeps what was asked
        pools.clear()
        report = census.run_census(census.CensusConfig(X=10**3, workers=64))
        assert pools == [] and report.config.workers == 64

    def test_explicit_cutoffs(self):
        report = census.run_census(census.CensusConfig(X=500), cutoffs=(100, 500))
        assert report.cutoffs == (100, 500)
        with pytest.raises(ValueError):
            census.run_census(census.CensusConfig(X=500), cutoffs=(100, 600))


class TestTails:
    def test_index_tail_matches_brute(self):
        X = 100
        got = census.tail_counts_index((X,), 0.1)[0]
        thr = X**0.2
        expected = 0
        for c in enumerate_region(X * census.TAIL_INDEX_CAP, filter=in_family):
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
        got = census.tail_counts_szpiro((X,), 0.25, 2.25)[0]
        expected = 0
        for c in enumerate_region(X * census.TAIL_INDEX_CAP, filter=in_family):
            if not all(tate_algorithm(c, p).conductor_exponent == 0 for p in (2, 3)):
                continue
            C = reduction(c).conductor_6
            if 1 < C <= X and 1.75 < avg_szpiro(c) <= 2.25:
                expected += 1
        assert expected > 0
        assert got == expected

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            census.tail_counts_index((100,), 0.0)
        with pytest.raises(ValueError):
            census.tail_counts_index((100,), 0.5)
        with pytest.raises(ValueError):
            census.tail_counts_szpiro((100,), 0.0, 2.0)
        with pytest.raises(ValueError):
            census.tail_counts_szpiro((100,), 0.1, 2.3)

    def test_empty_window_short_circuits(self):
        assert census.tail_counts_szpiro((100,), 0.8, 2.0)[0] == 0
        assert census.tail_counts_szpiro((100, 1000), 0.8, 2.0) == [0, 0]

    def test_grid_counts_equal_per_x_counts(self, monkeypatch):
        grid = (3000, 100, 1000)  # unsorted on purpose: counts come back in grid order
        sweeps = []
        sweep = census._census_records
        monkeypatch.setattr(census, "_census_records",
                            lambda Z, **kw: sweeps.append(Z) or sweep(Z, **kw))
        index = census.tail_counts_index(grid, 0.1)
        szpiro = census.tail_counts_szpiro(grid, 0.25, 2.25)
        assert sweeps == [3000 * census.TAIL_INDEX_CAP] * 2
        assert index == [census.tail_counts_index((X,), 0.1)[0] for X in grid]
        assert szpiro == [census.tail_counts_szpiro((X,), 0.25, 2.25)[0] for X in grid]
        assert sweeps[2:] == [X * census.TAIL_INDEX_CAP for X in grid] * 2
        assert all(type(n) is int for n in index + szpiro) and min(index + szpiro) > 0


@pytest.fixture(scope="module")
def szpiro_window():
    """avg_szpiro, by Tate's algorithm, on every in_good_family curve with
    1 < C <= 1e6 and |cond poly| <= 1e8; and the sweep it was read from."""
    records, anomalies = census._census_records(10**6 * census.TAIL_INDEX_CAP)
    near = np.flatnonzero((records["conductor"] > 1) & (records["conductor"] <= 10**6))
    rows = []
    for i, a, b in zip(near.tolist(), records["a"][near].tolist(), records["b"][near].tolist()):
        c = CurveParams(a, b)
        if in_good_family(c):
            rows.append((int(records["conductor"][i]), int(records["cond_poly"][i]),
                         avg_szpiro(c)))
    return (records, anomalies), rows


class TestClosedFormSzpiro:
    @pytest.mark.parametrize("theta, kappa", [
        (0.25, 2.2), (0.25, 2.25), (0.1, 1.9), (0.4, 2.27), (0.2, 2.0), (0.5, 2.1)])
    def test_counts_match_avg_szpiro(self, szpiro_window, monkeypatch, theta, kappa):
        sweep, rows = szpiro_window
        monkeypatch.setattr(census, "_census_records", lambda Z, **kw: sweep)
        grid = (10**4, 3 * 10**4, 10**5, 10**6)
        got = census.tail_counts_szpiro(grid, theta, kappa)
        want = [
            sum(1 for cond, cp, r in rows
                if cond <= X and cp <= X * census.TAIL_INDEX_CAP and 1.5 + theta < r <= kappa)
            for X in grid
        ]
        assert got == want
        assert min(want) > 0

    def test_closed_form_is_avg_szpiro(self, szpiro_window):
        (records, _), rows = szpiro_window
        good = records[records["good_23"] & (records["conductor"] > 1)
                       & (records["conductor"] <= 10**6)]
        assert len(good) == len(rows) > 10**4
        n6 = (good["index_6"] * good["conductor"]).tolist()
        closed = [3 * math.log(n) / (2 * math.log(cond))
                  for n, cond in zip(n6, good["conductor"].tolist())]
        assert max(abs(x - r) for x, (_, _, r) in zip(closed, rows)) < 1e-12
