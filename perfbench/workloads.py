"""Workload definitions and the seeded op generator.

An op is one argv list for ``twotor.cli.main``.  A workload is the op list
that one fresh child process runs back to back.  ``--seed`` only chooses
inputs here; the program sees nothing but the generated argv lists.

The classify curves are drawn from a fixed pool whose exact outputs were
recorded at the seed commit (``ref/classify_pool.json``, written by
``record_refs.py``), so that every seed's ops can be checked exactly.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "ref"

# Fixed seed of the classify pool; changing it invalidates ref/classify_pool.json.
POOL_SEED = 20230329

# The classify curves: admissible (a, b) drawn uniformly with |a| <= A_MAX and
# |b| <= B_MAX.  The pool holds POOL_SIZE of them; an op list takes
# CLASSIFY_OPS.  Classifying the whole pool leaves the SPF sieve at its
# initial size (record_refs.py stores the limit it ends at): the values these
# curves factor are either that small or beyond the sieve cap.
A_MAX = 10**6
B_MAX = 10**11
POOL_SIZE = 1000
CLASSIFY_OPS = 200

MC_SAMPLES = 10**7

WORKLOADS = {
    "census": {
        "why": "census --x 5e7 --workers 1: the bulk SPF-sieve path, a sweep of ~155k records "
               "with two factorizations each; Euler work is ~0 here",
        "generator": {"kind": "fixed"},
    },
    "tails": {
        "why": "tails szpiro --grid 1e4,3e4 and tails index --grid 1e4,1e5: avg_szpiro on every "
               "window curve and four |C| <= 100X sweeps; no Euler products",
        "generator": {"kind": "fixed"},
    },
    "euler": {
        "why": "euler --family cubefree --tol 0.01: no curves; primes_up_to(4.4e7), the float128 "
               "product three times and the exact Q4 assembly to 1e5",
        "generator": {"kind": "fixed"},
    },
    "classify": {
        "why": "200 seeded classify a b with |a| <= 1e6, |b| <= 1e11, lp --sweep, real-density "
               "quad and mc: per-op CLI cost and big-number factoring, no sieve",
        "generator": {"kind": "one curve per latency stratum of a uniform pool",
                      "pool_seed": POOL_SEED, "pool_size": POOL_SIZE, "a_max": A_MAX,
                      "b_max": B_MAX, "ops": CLASSIFY_OPS, "mc_samples": MC_SAMPLES},
    },
}


def fixed_ops(name: str) -> list[list[str]]:
    if name == "census":
        return [["census", "--x", "5e7", "--workers", "1"]]
    if name == "tails":
        return [["tails", "szpiro", "--grid", "1e4,3e4", "--workers", "1"],
                ["tails", "index", "--grid", "1e4,1e5", "--workers", "1"]]
    if name == "euler":
        return [["euler", "--family", "cubefree", "--tol", "0.01"]]
    raise KeyError(name)


def _prime_to_6(n: int) -> int:
    n = abs(n)
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n


def admissible(a: int, b: int) -> bool:
    """Curves on which classify is defined and reports a Szpiro ratio.

    b != 0 and a^2 != 4b make the curve nonsingular.  gcd(a, b) = 1 makes
    (a, b) minimal at every p >= 5, and a prime-to-6 part of b above 1 then
    gives a prime p >= 5 of bad reduction for E and for its 2-isogenous
    curve, so both Szpiro ratios have log C > 0.
    """
    return b != 0 and a * a != 4 * b and math.gcd(a, b) == 1 and _prime_to_6(b) > 1


def generate_pool() -> list[tuple[int, int]]:
    """The classify pool: distinct admissible (a, b) pairs, drawn uniformly."""
    rng = random.Random(POOL_SEED)
    seen: set = set()
    while len(seen) < POOL_SIZE:
        a = rng.randint(-A_MAX, A_MAX)
        b = rng.randint(-B_MAX, B_MAX)
        if admissible(a, b):
            seen.add((a, b))
    return sorted(seen)


def load_pool() -> list:
    """The recorded pool entries, in order of recorded latency; each starts with (a, b)."""
    with open(REF_DIR / "classify_pool.json") as fh:
        return json.load(fh)["curves"]


def classify_ops(seed: int, pool: list) -> list[list[str]]:
    """Classify ops for ``seed``, then lp and real-density ops.

    The pool, sorted by recorded latency, is cut into CLASSIFY_OPS strata and
    one curve is drawn from each.  The seed changes the curves and their
    order but hardly the cost profile, so op latency percentiles move little
    with the seed.
    """
    rng = random.Random(seed)
    k = CLASSIFY_OPS
    curves = [rng.choice(pool[i * len(pool) // k:(i + 1) * len(pool) // k])[:2]
              for i in range(k)]
    rng.shuffle(curves)
    ops = [["classify", str(a), str(b)] for a, b in curves]
    ops.append(["lp", "--sweep"])
    ops.append(["real-density", "--method", "quad", "--z", "1e6"])
    ops.append(["real-density", "--method", "mc", "--z", "1e6",
                "--samples", str(MC_SAMPLES), "--seed", str(seed)])
    return ops


def make_ops(name: str, seed: int) -> list[list[str]]:
    """The op list of workload ``name`` for ``seed``; same seed, same list."""
    if name == "classify":
        return classify_ops(seed, load_pool())
    return fixed_ops(name)
