"""Constants shared by the density modules.

AREA_CONST is a float literal: its 50-digit value, rounded once to the
nearest float.  Gamma(1/4), g = Gamma(1/4)^2 / (4 sqrt(pi)) and the two
slice integrals behind AREA_CONST are read by the tests alone, so they live
in tests/oracles.py.  The tests derive Gamma(1/4), g and AREA_CONST again
with mpmath at 50 digits, check that each literal is that value exactly, and
check Gamma(1/4) against the reflection identity
Gamma(1/4) * Gamma(3/4) = pi * sqrt(2).  Importing the package needs no
mpmath.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)

# Full area of {|y(x^2-y)| <= Z} is AREA_CONST * Z^(3/4) + O(Z^(1/2)), with
# AREA_CONST = 2 (1 + sqrt2) Gamma(1/4)^2 / (3 sqrt(pi)).
AREA_CONST = 11.936352617582644

# Leading constant for lattice pair counts |b(a^2-4b)| <= X: pairs (a, b)
# correspond to lattice points (x, y) = (a, 4b) of covolume 4 in the region
# with parameter 4X, so the count is Area(4X)/4 = (sqrt2/2) * AREA_CONST * X^(3/4).
PAIR_COUNT_CONST = AREA_CONST * SQRT2 / 2.0
