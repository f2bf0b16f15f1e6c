"""Toolkit for curves y^2 = x(x^2 + ax + b) with marked rational 2-torsion.

Modules
-------
arithmetic     factorization, primality, valuations, SPF sieve
curve_core     invariants, Kodaira symbols, Tate oracle, conductor, Szpiro ratios
real_density   region area: closed form, quadrature, Monte Carlo
local_density  p-adic pattern densities, Euler factors, Dirichlet index sums
census         counts and sweeps by conductor polynomial, family counts, tail decay
lp_bounds      exact-rational linear program, certificates, simplex, duality
cli            batch front door with CSV/JSON reports and run manifests

Every function here is reached by a CLI call, apart from a short allow-list
(tests/test_reachability.py).  The paper's uniformity estimates and the
per-curve references live with the tests (tests/uniformity.py,
tests/oracles.py).
"""

__version__ = "0.1.0"
