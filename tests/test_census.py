"""Region enumeration against brute force, census counts against recounts."""

import concurrent.futures
import math
import os
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotor import arithmetic as ar
from twotor import census
from twotor import curve_core
from twotor._constants import PAIR_COUNT_CONST
from twotor.curve_core import (
    CurveParams,
    avg_szpiro,
    avg_szpiro_of_parts,
    in_family,
    reduction,
    tate_algorithm,
)

from oracles import (
    b_intervals,
    block_pairs_by_mask,
    census_records,
    count_by_lines,
    curve_record,
    enumerate_region,
    good_family,
    structured,
)

# A block table's columns and their dtypes.
COLUMNS = {"a": "int64", "b": "int64", "cond_poly": "int64", "conductor": "int64",
           "index_6": "int64", "cubefree": "bool"}


def column_types(table):
    """{name: dtype name} of a block table whose columns are all contiguous 1-D arrays."""
    assert all(col.ndim == 1 and col.flags.c_contiguous for col in table.values())
    return {name: col.dtype.name for name, col in table.items()}


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
        a, b, f = census._block_pairs(X, -A, A, census._ALL_RESIDUES)
        assert list(zip(a.tolist(), b.tolist())) == [(c.a, c.b) for c in enumerate_region(X)]
        assert (f == b * (a * a - 4 * b)).all()

    @pytest.mark.parametrize("Z", [10**4, 10**6, 10**7])
    @pytest.mark.parametrize("use_family", [True, False, "good"])
    def test_block_pairs_match_mask_expansion(self, Z, use_family):
        # the family's 96-table, the 1x1 table and the good classes' 384-table
        table = census._residue_table(use_family)
        for a_lo, a_hi in census._blocks(Z):
            got = census._block_pairs(Z, a_lo, a_hi, table)
            want = block_pairs_by_mask(Z, a_lo, a_hi, table)
            assert all(np.array_equal(x, y) for x, y in zip(got, want)), (Z, a_lo, a_hi)
            assert all(x.dtype == np.int64 for x in got)

    @pytest.mark.parametrize("use_family", [True, False, "good"])
    def test_block_pairs_come_in_order_without_a_sort(self, use_family, monkeypatch):
        Z, table = 10**6, census._residue_table(use_family)
        blocks = census._blocks(Z)
        want = [block_pairs_by_mask(Z, a_lo, a_hi, table) for a_lo, a_hi in blocks]
        for name in ("lexsort", "argsort", "sort"):
            monkeypatch.setattr(np, name, lambda *a, **k: pytest.fail("_block_pairs sorted"))
        for (a_lo, a_hi), expected in zip(blocks, want):
            got = census._block_pairs(Z, a_lo, a_hi, table)
            assert all(np.array_equal(x, y) for x, y in zip(got, expected)), (a_lo, a_hi)


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
        records, anomalies = census_records(Z)
        assert want_anomalies and any(not r[5] for r in want_records)
        table, _ = census._block_records((Z, *census._blocks(Z)[0], True))
        assert column_types(table) == COLUMNS
        assert records.tolist() == want_records
        assert anomalies == want_anomalies
        assert all(type(x) is int for x, *_ in anomalies)

    def test_family_table_is_in_family(self):
        # b0 - 96 is a nonzero b with a^2 - 4b > 0 in the class of b0
        want = [[in_family(CurveParams(a0, b0 - 96)) for b0 in range(96)] for a0 in range(96)]
        assert curve_core.FAMILY_MOD96.tolist() == want

    def test_all_residues_matches_scalar_records(self):
        Z = 2000
        want = [curve_record(c.a, c.b)[0] for c in enumerate_region(Z)]
        records, _ = census_records(Z, use_family=False)
        assert records.tolist() == [r for r in want if r is not None]

    def test_rescaled_copy_skipped_in_block(self):
        # (75, 1250) = (3 * 5^2, 2 * 5^4) is the rescaled copy of (3, 2)
        Z, a = 10**6, 75
        pairs = [(a, b) for lo, hi in b_intervals(a, Z) for b in range(lo, hi + 1)
                 if b * (a * a - 4 * b) != 0]
        want = [curve_record(a, b) for a, b in pairs]
        records, anomalies = structured(*census._block_records((Z, a, a, False)))
        assert records.tolist() == [rec for rec, _ in want if rec is not None]
        assert anomalies == [x for _, anoms in want for x in anoms]
        assert (a, 1250) in pairs and (a, 1250) not in {r[:2] for r in records.tolist()}

    def test_shared_primes_need_no_scalar_code(self, monkeypatch):
        # the shared-prime rows are columns: no Kodaira call and no lone factoring
        want = census_records(10**6, use_family=False)
        for module, name in ((curve_core, "kodaira_symbol_large_p"), (ar, "factorize")):
            monkeypatch.setattr(module, name, lambda *a: pytest.fail(f"{name} called"))
        records, anomalies = census_records(10**6, use_family=False)
        assert np.array_equal(records, want[0]) and anomalies == want[1]
        assert len(anomalies) == 648 and (75, 1250) not in set(zip(records["a"].tolist(),
                                                                   records["b"].tolist()))

    @pytest.mark.parametrize("use_family", [False, True])
    def test_block_without_copy_hands_on_the_pairs(self, monkeypatch, use_family):
        # only a block with a rescaled copy, such as (75, 1250) of all residues,
        # gathers its rows; the family's first copy is swept at 1e7
        pairs, tables = [], []
        block_pairs = census._block_pairs
        monkeypatch.setattr(census, "_block_pairs",
                            lambda *args: pairs.append(block_pairs(*args)) or pairs[-1])
        keep = partial(census._sweep_block, reduce=lambda table, star: tables.append(table) or (0,))
        census._census_records(10**7 if use_family else 10**6, keep, use_family=use_family)
        assert len(pairs) == len(tables) > 2
        copies = 0
        for (a, b, _), table in zip(pairs, tables):
            gathered = len(table["a"]) < len(a)
            copies += gathered
            assert np.shares_memory(table["a"], a) != gathered
            assert np.shares_memory(table["b"], b) != gathered
        assert 0 < copies < len(tables)

    def test_shared_radical_past_the_table(self):
        # a = 0 with all residues is the one column where the shared part
        # gcd(a, b) = |b| can pass the SPF table (|b| up to sqrt(Z) / 2 = 67082 here)
        Z = 18 * 10**9
        pairs = [b for lo, hi in b_intervals(0, Z) for b in range(lo, hi + 1) if b]
        want = [curve_record(0, b) for b in pairs]
        records, anomalies = structured(*census._block_records((Z, 0, 0, False)))
        assert records.tolist() == [rec for rec, _ in want if rec is not None]
        assert anomalies == [x for _, anoms in want for x in anoms]
        assert {65537, 65545, -65537} <= set(records["b"].tolist())

    @pytest.mark.parametrize("use_family", [True, False])
    def test_shared_primes_are_those_of_gcd_a_b(self, use_family):
        # p >= 5 divides b and a^2 - 4b exactly when it divides a and b
        Z = 10**7
        for lo, hi in census._blocks(Z):
            a, b, _ = census._block_pairs(Z, lo, hi, census._residue_table(use_family))
            rad_b, rad_c = (ar.prime_to_6_profile(x)[0] for x in (b, a * a - 4 * b))
            want = ar.prime_divisors(np.gcd(rad_b, rad_c))
            row, p = ar.prime_divisors(np.gcd(a, b))
            assert np.array_equal(row[p >= 5], want[0]) and np.array_equal(p[p >= 5], want[1])

    @pytest.mark.parametrize("Z", [10**6, 10**7])
    @pytest.mark.parametrize("use_family", [True, False])
    def test_partition_matches_fixed_width_blocks(self, Z, use_family):
        # blocks balanced by pair count give what blocks of 1024 columns gave
        A = isqrt(4 * Z + 1)
        blocks = census._blocks(Z)
        assert blocks[0][0] == -A and blocks[-1][1] == A
        assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        fixed = [(lo, min(lo + 1023, A)) for lo in range(-A, A + 1, 1024)]
        assert blocks != fixed
        parts = [structured(*census._block_records((Z, lo, hi, use_family))) for lo, hi in fixed]
        records, anomalies = census_records(Z, use_family=use_family)
        assert np.array_equal(records, np.concatenate([r for r, _ in parts]))
        assert anomalies == [x for _, anoms in parts for x in anoms]

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
        assert report.anomalies["predicate_oracle_2_3"]["family_curves"] == expected

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

    # (config, the sweep's Z, whether the census counts a minimal curve c of
    # the sweep, given its curve_record row (a, b, |C|, conductor, index, cube-free))
    @pytest.mark.parametrize("config, Z, counted", [
        (census.CensusConfig(X=10**5), 10**5, lambda c, rec: True),
        (census.CensusConfig(X=10**5, family="CubeFree"), 10**5, lambda c, rec: rec[5]),
        (census.CensusConfig(X=100, order_by="Conductor", index_cap=1000), 10**5,
         lambda c, rec: rec[3] <= 100),
        (census.CensusConfig(X=10**4, good_reduction_filter=False), 10**4,
         lambda c, rec: True),
        (census.CensusConfig(X=10**5, family="Kappa", kappa=2.2), 10**5,
         lambda c, rec: rec[3] > 1 and avg_szpiro(c) <= 2.2),
    ], ids=["condpoly", "cubefree", "conductor", "all-residues", "kappa"])
    def test_predicate_counter_matches_tate(self, config, Z, counted):
        # every counted curve recounted with Tate's algorithm: the predicate is
        # exact at 3, and the report's bad_at_2 is the exact count of f_2 > 0
        curves = []
        for c in enumerate_region(Z, filter=in_family if config.good_reduction_filter else None):
            rec, _ = curve_record(c.a, c.b)
            if rec is not None and counted(c, rec):
                curves.append(c)
        family = [c for c in curves if in_family(c)]
        assert all(tate_algorithm(c, 3).conductor_exponent == 0 for c in family)
        bad_at_2 = sum(tate_algorithm(c, 2).conductor_exponent > 0 for c in family)
        report = census.run_census(config)
        assert report.total_curves == len(curves)
        assert (len(family) == len(curves)) == config.good_reduction_filter
        assert report.anomalies["predicate_oracle_2_3"] == {
            "family_curves": len(family), "bad_at_2": bad_at_2}
        assert 0 < bad_at_2 < len(family)

    @pytest.mark.parametrize("config", [
        census.CensusConfig(X=10**5),
        census.CensusConfig(X=10**5, family="CubeFree"),
        census.CensusConfig(X=10**3, order_by="Conductor", index_cap=100),
        census.CensusConfig(X=10**5, good_reduction_filter=False),
    ], ids=["condpoly", "cubefree", "conductor", "all-residues"])
    def test_census_runs_no_tate(self, monkeypatch, config):
        # outside the Kappa filter a census reads its 2,3 counter off residue tables
        want = census.run_census(config)
        monkeypatch.setattr(curve_core, "tate_on_model",
                            lambda *a: pytest.fail("tate_on_model called"))
        assert census.run_census(config) == want

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
        records, _ = census_records(X * cap)
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

    def test_two_workers_give_the_same_records(self):
        # 1e7: several blocks and 147 anomalies
        one = census_records(10**7)
        two = census_records(10**7, workers=2)
        assert len(census._blocks(10**7)) > 2 and len(one[1]) == 147
        assert np.array_equal(one[0], two[0]) and one[1] == two[1]

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

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def map(self, fn, blocks):
                return map(fn, blocks)

        # census imports the pool class where it starts one, from concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        cpus = os.cpu_count() or 1
        blocks = len(census._blocks(10**6))
        assert blocks > 3
        records, _ = census_records(10**6, workers=10**6)
        assert pools == ([min(blocks, cpus)] if cpus > 1 else [])
        assert np.array_equal(records, census_records(10**6)[0])
        for cpu_count, expected in ((64, blocks), (3, 3)):
            pools.clear()
            monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
            census_records(10**6, workers=10**6)
            assert pools == [expected]
        # X = 1e3 is one block: no pool, and the config keeps what was asked
        assert len(census._blocks(10**3)) == 1
        pools.clear()
        report = census.run_census(census.CensusConfig(X=10**3, workers=64))
        assert pools == [] and report.config.workers == 64

    def test_explicit_cutoffs(self):
        report = census.run_census(census.CensusConfig(X=500), cutoffs=(100, 500))
        assert report.cutoffs == (100, 500)
        with pytest.raises(ValueError):
            census.run_census(census.CensusConfig(X=500), cutoffs=(100, 600))


class TestBlockReduction:
    """Each block is reduced where it is swept and the partials are merged:
    the reports do not depend on which process swept a block, and the
    calling process never holds the whole record table."""

    @pytest.mark.parametrize("config", [
        census.CensusConfig(X=10**6),
        census.CensusConfig(X=10**6, good_reduction_filter=False),
        census.CensusConfig(X=10**6, family="CubeFree"),
        census.CensusConfig(X=10**6, family="Kappa", kappa=2.2),
        census.CensusConfig(X=10**3, order_by="Conductor", index_cap=10**3),
        census.CensusConfig(X=10**3, family="CubeFree", order_by="Conductor", index_cap=10**3),
        census.CensusConfig(X=10**3, family="Kappa", kappa=2.2, order_by="Conductor",
                            index_cap=10**3),
    ], ids=lambda c: f"{c.family}-{c.order_by}-{c.good_reduction_filter}")
    def test_one_and_two_workers_give_one_report(self, config):
        # Z = 1e6 in every case: four blocks, so each worker of a real fork
        # pool sweeps more than one, and the merge sees them out of process
        Z = config.X * (config.index_cap if config.order_by == "Conductor" else 1)
        assert len(census._blocks(Z)) >= 3
        one = census.run_census(config)
        two = census.run_census(replace(config, workers=2))
        assert one.total_curves > 0 and one.anomalies["out_of_list_symbols"] > 0
        assert replace(two, config=config) == one

    @pytest.fixture
    def cuts(self, monkeypatch):
        """The cut of each sweep, in order, as ``census._blocks`` returns it."""
        cuts = []
        blocks = census._blocks
        monkeypatch.setattr(census, "_blocks", lambda *args: cuts.append(blocks(*args)) or cuts[-1])
        return cuts

    @pytest.mark.parametrize("count", [
        lambda w: census.tail_counts_index((10**4, 10**3, 3 * 10**3), 0.1, workers=w),
        lambda w: census.tail_counts_szpiro((10**3, 10**7), 0.25, 2.2, workers=w),
    ])
    def test_one_and_two_workers_give_one_tail(self, count, cuts):
        # the cut each tail's own sweep makes (the Szpiro tail's good classes get
        # blocks 8 times wider, so its grid reaches 1e7) has at least three blocks
        one = count(1)
        assert len(cuts) == 1 and len(cuts[0]) >= 3
        assert count(2) == one and min(one) > 0 and all(type(n) is int for n in one)

    @pytest.mark.parametrize("scale", [2, 0.5])
    def test_reports_do_not_depend_on_the_cut(self, scale, cuts, monkeypatch):
        # each table's cut against one twice and one half as wide: the same
        # census counts, anomalies and tails, from a different set of blocks
        # (CubeFree: a census that sweeps; TestCounting cuts the counts)
        def sweeps():
            cuts.clear()
            return (census.run_census(census.CensusConfig(X=10**6, family="CubeFree")),
                    census.run_census(census.CensusConfig(X=10**5, family="CubeFree",
                                                          good_reduction_filter=False)),
                    census.tail_counts_index((10**3, 10**4), 0.1),
                    census.tail_counts_szpiro((10**3, 10**6), 0.25, 2.2)), list(cuts)

        want, want_cuts = sweeps()
        monkeypatch.setattr(census, "_PAIRS_PER_ROOT_Z", census._PAIRS_PER_ROOT_Z * scale)
        got, got_cuts = sweeps()
        assert got == want
        assert want[0].anomalies["out_of_list_symbols"] > 0 and min(want[3]) > 0
        assert all(x != y for x, y in zip(want_cuts, got_cuts)) and len(got_cuts) == 4
        assert all(len(x) > 1 for x in (want_cuts if scale > 1 else got_cuts))

    def test_sparse_table_blocks_hold_no_more_rows(self):
        # the good classes keep 1/8 of the family's pairs and get blocks 8 times
        # wider: no block of theirs holds more rows than the largest family block.
        # The table of every residue is about 30 times denser, and its blocks as
        # much narrower: the largest holds at most twice the largest family
        # block's rows (745,830 against 25,446 at 1e8 with the family's cut)
        good = census._good_mod384()
        assert len(census._blocks(3 * 10**6, good)) == 1 and len(census._blocks(10**8, good)) == 2
        for Z in (10**8, 10**9):
            rows = [[len(census._block_pairs(Z, lo, hi, table)[0]) for lo, hi in census._blocks(Z, table)]
                    for table in (curve_core.FAMILY_MOD96, good, census._ALL_RESIDUES)]
            assert len(rows[0]) >= 4 * len(rows[1]) and max(rows[1]) <= max(rows[0])
            assert len(rows[2]) >= 20 * len(rows[0]) and max(rows[2]) <= 2 * max(rows[0])

    def test_blocks_memory_at_the_top_of_the_range(self):
        # The bound, three float64 arrays of A + 1 entries (48 MB at Z = 1e12),
        # was fixed before measuring.  The cut still partitions [-A, A].
        Z = census._MAX_Z
        A = isqrt(4 * Z + 1)
        tracemalloc.start()
        try:
            blocks = census._blocks(Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks[0][0] == -A and blocks[-1][1] == A and len(blocks) > 1
        assert all(lo <= hi for lo, hi in blocks)
        assert all(hi + 1 == nxt for (_, hi), (nxt, _) in zip(blocks, blocks[1:]))
        assert peak <= 3 * 8 * (A + 1)

    def test_only_printed_examples_are_formatted(self, monkeypatch):
        # X = 1e6: 21 I* rows over 4 blocks, of which the report prints 10
        _, anomalies = census_records(10**6)
        assert len(anomalies) == 21 and len(census._blocks(10**6)) == 4
        built = []
        monkeypatch.setattr(census, "KodairaSymbol",
                            lambda *args: built.append(args) or curve_core.KodairaSymbol(*args))
        report = census.run_census(census.CensusConfig(X=10**6))
        assert report.anomalies["out_of_list_symbols"] == 21
        assert report.anomalies["out_of_list_examples"] == anomalies[:10]
        assert len(built) == 10 and all(tag == "I*" for tag, _ in built)

    def test_main_process_memory_is_one_block(self):
        # The bound, 8 times the largest sweep block's pair arrays (a, b and
        # b (a^2 - 4b), int64), was fixed before measuring.  At Z = 1e8 the
        # traced peak of a one-worker census, which counts, reads 4.3 times
        # them (2.65 MB); the a, b and cond_poly columns of its curves alone
        # are 10.3 times them, and a sweep that concatenates the block tables
        # peaks at 20.8 times.
        Z = 10**8
        largest = max(len(census._block_pairs(Z, lo, hi, curve_core.FAMILY_MOD96)[0])
                      for lo, hi in census._blocks(Z))
        bound = 8 * 3 * 8 * largest
        census.run_census(census.CensusConfig(X=10**3))  # the caches a census fills once
        tracemalloc.start()
        try:
            report = census.run_census(census.CensusConfig(X=Z))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.total_curves * 3 * 8 > bound  # three int64 columns of its curves
        assert peak < bound


class TestCounting:
    """The default census and --all-residues count without listing
    (``census._count_block``): against the sweep's partial on each block of
    the sweep's own cut, and past the sweep's reach against
    ``oracles.count_by_lines``, which shares no code with it."""

    @pytest.mark.parametrize("Z, use_family", [
        *((Z, use_family) for Z in (10**3, 10**4, 10**6, 10**7, 5 * 10**7)
          for use_family in (True, False)),
        (10**9, True)])
    def test_count_block_is_the_sweep_block(self, Z, use_family):
        # every field: the cutoff counts, the total, no tail or overflow, the
        # I* count and first ten rows, family_curves and bad_at_2
        cutoffs = census._default_cutoffs(Z)
        reduce = partial(census._census_block, cutoffs=cutoffs,
                         config=census.CensusConfig(X=Z, good_reduction_filter=use_family))
        blocks = census._blocks(Z, census._residue_table(use_family))
        stars = 0
        for lo, hi in blocks:
            want = census._sweep_block((Z, lo, hi, use_family), reduce)
            got = census._count_block((Z, lo, hi, use_family), cutoffs)
            assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
            stars += want[4]
        assert Z < 10**6 or (len(blocks) > 1 and stars > 10)

    def test_empty_walks(self):
        # blocks on which a walk has no column: the count still equals the
        # sweep, and the pair generator passes its empty walk through
        family = census._table_layout(curve_core.FAMILY_MOD96)[2]
        every = census._table_layout(census._ALL_RESIDUES)[2]
        star = census._sublattice(False, 5)[2]
        # row 8 of the family's table allows no b
        assert not len(census._walk(10**6, 8, 8, family)) and len(census._walk(10**6, 9, 9, family))
        # narrower than 5^2: at Z = 5^8 the d = 5 term has no column
        assert not len(census._walk(1, 1, 24, every, 5**2)) and len(census._walk(1, 1, 25, every, 5**2))
        # the p = 5 sublattice's one column, 5, is not prime to 5
        assert not len(census._walk(10**6 // 5**4, 25, 25, star, 5, coprime=True))
        assert len(census._walk(10**6 // 5**4, 25, 25, star, 5))
        for Z, lo, hi, use_family in ((10**6, 8, 8, True), (5**8, 1, 24, False), (10**6, 25, 25, False)):
            cutoffs = census._default_cutoffs(Z)
            reduce = partial(census._census_block, cutoffs=cutoffs,
                             config=census.CensusConfig(X=Z, good_reduction_filter=use_family))
            want = census._sweep_block((Z, lo, hi, use_family), reduce)
            got = census._count_block((Z, lo, hi, use_family), cutoffs)
            assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
            assert got[1:] == want[1:]
        pairs = census._block_pairs(10**6, 8, 8, curve_core.FAMILY_MOD96)
        assert [(len(x), x.dtype) for x in pairs] == [(0, np.int64)] * 3

    @pytest.mark.parametrize("Z", [10**6, 10**7])
    @pytest.mark.parametrize("use_family", [True, False])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_matches_sweep(self, Z, use_family, workers, monkeypatch):
        # the count on its own column blocks, cut two ways and with I* runs
        # of a few rows, sums to the sweep's partials, in and out of process
        cutoffs = census._default_cutoffs(Z)
        config = census.CensusConfig(X=Z, good_reduction_filter=use_family)
        want = census._census_records(Z, partial(census._sweep_block, reduce=partial(
            census._census_block, config=config, cutoffs=cutoffs)), use_family=use_family)
        count = partial(census._count_block, cutoffs=cutoffs)
        for columns, rows in ((1000, 50), (333, 7)):
            monkeypatch.setattr(census, "_COLUMNS_PER_BLOCK", columns)
            monkeypatch.setattr(census, "_STAR_ROWS", rows)
            assert len(census._column_blocks(Z)) > 3
            got = census._census_records(Z, count, workers, use_family, counting=True)
            # each block hands on its first ten I* rows: a report prints the first ten
            assert np.array_equal(got[0], want[0]) and got[5][:10] == want[5][:10]
            assert got[1:5] == want[1:5] and got[6:] == want[6:]
        assert want[4] > 10 and len(want[5]) > 10

    def test_run_census_counts(self, monkeypatch):
        # the default census and --all-residues list no pair and sweep no block
        want = [census.run_census(census.CensusConfig(X=10**6, good_reduction_filter=f))
                for f in (True, False)]
        monkeypatch.setattr(census, "_block_records", lambda *a: pytest.fail("swept"))
        got = [census.run_census(census.CensusConfig(X=10**6, good_reduction_filter=f))
               for f in (True, False)]
        assert got == want

    @pytest.mark.parametrize("use_family", [True, False, "good"])
    def test_rescaling_keeps_the_table(self, use_family):
        # (d^2 a, d^4 b) is (a, b) rescaled by d, prime to 6: the same curve at
        # 2 and 3, so a table of conditions there admits both or neither, and
        # the Moebius sum counts every term on the table itself
        table = census._residue_table(use_family)
        k = np.arange(len(table))
        for d in range(5, 2 * len(table) + 5, 2):
            if d % 3:
                assert np.array_equal(table[d * d * k % len(k)][:, d**4 * k % len(k)], table)

    @pytest.mark.parametrize("use_family", [True, False, "good"])
    def test_lines_oracle_matches_the_sweep(self, use_family):
        for Z in (10**4, 10**6):
            records, _ = census_records(Z, use_family=use_family)
            assert count_by_lines(Z, [census._residue_table(use_family)]) == [len(records)]

    @pytest.mark.parametrize("use_family", [True, False])
    def test_count_past_the_sweep(self, use_family):
        # the family gives 263,501,445; all residues 8,430,084,918
        Z = census._MAX_Z + 10**6
        got = sum(census._pair_counts(Z, lo, hi, (use_family,))[0]
                  for lo, hi in census._column_blocks(Z))
        assert [got] == count_by_lines(Z, [census._residue_table(use_family)])

    def test_count_limit_is_derived(self):
        # the error bound in census._block_intervals' docstring, at the limit:
        # t = a^2 and 16 Z exact floats, every estimate within the nudge
        # budget, a one-integer hole's estimates inside its margin 1/D, and
        # the walks' products inside int64
        Z, u = census._MAX_COUNT_Z, 2.0**-53
        assert census._MAX_Z < Z <= 2**50 and 4 * Z + 1 < 2**53
        assert 3 * u * Z + 1 < census._NUDGE - 1
        assert (math.sqrt(32 * u * Z) + 6 * u * (4 * Z + 1)) / 8 + 1 < census._NUDGE - 1
        assert 4 * u * Z + 16 * u * math.sqrt(Z) < 1
        assert 40 * Z < 2**63

    def test_intervals_exact_at_the_limit(self):
        # evidence next to the bound: the ends, the columns around a^4 = 16 Z
        # (where the hole opens, one integer wide) and random columns
        Z = census._MAX_COUNT_Z
        A, edge = isqrt(4 * Z + 1), isqrt(isqrt(16 * Z))
        rng = random.Random(5)
        cols = sorted({*range(-A, -A + 200), *range(A - 200, A + 1), *range(-300, 300),
                       *range(edge - 300, edge + 300), *range(-edge - 300, -edge + 300),
                       *(rng.randint(-A, A) for _ in range(1000))})
        got = census._block_intervals(np.array(cols, dtype=np.int64), Z)
        want = [(a, lo, hi) for a in cols for lo, hi in b_intervals(a, Z)]
        assert list(zip(*(x.tolist() for x in got))) == want
        assert sum(len(b_intervals(a, Z)) == 2 for a in range(edge, edge + 3)) >= 1

    def test_limit_of_each_kind(self, monkeypatch):
        # each kind refuses past its own limit, before any block
        monkeypatch.setattr(census, "_block_intervals", lambda *a: pytest.fail("counted"))
        for config, limit, kind in (
                (census.CensusConfig(X=census._MAX_COUNT_Z + 1), census._MAX_COUNT_Z, "count"),
                (census.CensusConfig(X=census._MAX_Z + 1, family="CubeFree"), census._MAX_Z, "sweep"),
                (census.CensusConfig(X=census._MAX_Z + 1, order_by="Conductor", index_cap=1),
                 census._MAX_Z, "sweep")):
            with pytest.raises(ValueError, match=f"limit {limit} of a census {kind}"):
                census.run_census(config)

    def test_count_memory_is_flat(self):
        # The bound, 16 int64 arrays of two I* runs (33.6 MB), depends on no
        # Z, and holds a count block's column arrays too.  At Z = 1e11 the
        # count peaks at 10.8 MB, where the a, b and cond_poly columns of its
        # 46.8M curves would take 1.1 GB.
        bound = 16 * 8 * 2 * census._STAR_ROWS
        census.run_census(census.CensusConfig(X=10**3))  # the caches a census fills once
        tracemalloc.start()
        try:
            report = census.run_census(census.CensusConfig(X=10**11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.total_curves * 3 * 8 > 30 * bound
        assert peak < bound


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

    @pytest.mark.parametrize("count", [
        lambda w: census.tail_counts_index((100,), 0.1, workers=w),
        lambda w: census.tail_counts_szpiro((100,), 0.25, 2.2, workers=w),
        lambda w: census.tail_counts_szpiro((100,), 1.0, 2.0, workers=w),  # an empty band
    ])
    @pytest.mark.parametrize("workers", [0, -4])
    def test_bad_workers_rejected(self, count, workers, monkeypatch):
        monkeypatch.setattr(census, "_block_records",
                            lambda *a: pytest.fail("swept before workers was checked"))
        with pytest.raises(ValueError, match="workers must be >= 1"):
            count(workers)


class TestGoodClasses:
    def test_table_is_good_family_on_one_period(self):
        table = census._good_mod384()
        assert table.shape == (384, 384) and not table.flags.writeable
        assert census._good_mod384() is table
        assert np.array_equal(table, good_family(*np.ogrid[:384, :384]))
        assert np.count_nonzero(table) == 384**2 // 256  # an eighth of the family's 1/32

    @pytest.mark.parametrize("shift_a, shift_b", [(384, 0), (0, -384), (-768, 10**9 * 384),
                                                  (-384 * 5021, -384 * 77)])
    def test_table_on_shifted_representatives(self, shift_a, shift_b):
        a, b = np.ogrid[:384, :384]
        assert np.array_equal(census._good_mod384(), good_family(a + shift_a, b + shift_b))

    def test_table_on_negative_pairs(self):
        rng = np.random.default_rng(24)
        a = rng.integers(-10**6, 0, 50000)
        b = rng.integers(-10**11, 10**11, 50000)
        want = good_family(a, b)
        assert want.any() and np.array_equal(census._good_mod384()[a % 384, b % 384], want)

    def test_good_sweep_is_the_filtered_family_sweep(self):
        Z = 10**7
        family, family_anomalies = census_records(Z)
        good, anomalies = census_records(Z, use_family="good")
        assert np.array_equal(good, family[good_family(family["a"], family["b"])])
        assert anomalies == [x for x in family_anomalies if good_family(x[0], x[1])]
        assert 0 < len(good) < len(family) // 4


@pytest.fixture(scope="module")
def szpiro_window():
    """avg_szpiro, by Tate's algorithm, on every good_family curve with
    1 < C <= 1e6 and |cond poly| <= 1e8; and the good-class sweep it was read from."""
    records, anomalies = census_records(10**6 * census.TAIL_INDEX_CAP, use_family="good")
    near = np.flatnonzero((records["conductor"] > 1) & (records["conductor"] <= 10**6))
    rows = []
    for i, a, b in zip(near.tolist(), records["a"][near].tolist(), records["b"][near].tolist()):
        if good_family(a, b):
            rows.append((int(records["conductor"][i]), int(records["cond_poly"][i]),
                         avg_szpiro(CurveParams(a, b))))
    return (records, anomalies), rows


class TestClosedFormSzpiro:
    @pytest.mark.parametrize("theta, kappa", [
        (0.25, 2.2), (0.25, 2.25), (0.1, 1.9), (0.4, 2.27), (0.2, 2.0), (0.5, 2.1)])
    def test_counts_match_avg_szpiro(self, szpiro_window, monkeypatch, theta, kappa):
        (records, _), rows = szpiro_window
        # the whole table is one block to the tail's reducer, which reads no I* row
        table = {name: records[name] for name in records.dtype.names}
        monkeypatch.setattr(census, "_blocks", lambda Z, table: [(0, 0)])
        monkeypatch.setattr(census, "_block_records", lambda args: (table, None))
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
        good = records[good_family(records["a"], records["b"]) & (records["conductor"] > 1)
                       & (records["conductor"] <= 10**6)]
        assert len(good) == len(rows) > 10**4
        n6 = (good["index_6"] * good["conductor"]).tolist()
        closed = [3 * math.log(n) / (2 * math.log(cond))
                  for n, cond in zip(n6, good["conductor"].tolist())]
        assert max(abs(x - r) for x, (_, _, r) in zip(closed, rows)) < 1e-12
