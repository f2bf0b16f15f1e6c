"""High-precision constants shared by the density modules.

Gamma(1/4) is evaluated by mpmath at 50 digits (inside ``workdps``, so the
process-wide mpmath precision is left as it was) and self-checked at import time
against the reflection identity Gamma(1/4) * Gamma(3/4) = pi * sqrt(2); the
check guards against a miscompiled or truncated constant, since the acceptance
comparisons against quadrature run at 1e-6 relative and below.
"""

from __future__ import annotations

import math

import mpmath

SQRT2 = math.sqrt(2.0)

with mpmath.workdps(50):
    _g14 = mpmath.gamma(mpmath.mpf(1) / 4)
    _g34 = mpmath.gamma(mpmath.mpf(3) / 4)
    _check = _g14 * _g34 - mpmath.pi * mpmath.sqrt(2)
    if abs(_check) > mpmath.mpf(10) ** -40:
        raise ArithmeticError("Gamma(1/4) self-check failed")

    GAMMA_QUARTER = float(_g14)

    # g = Gamma(1/4)^2 / (4 sqrt(pi)), the lemniscatic building block of the areas.
    _G = float(_g14 * _g14 / (4 * mpmath.sqrt(mpmath.pi)))

    # Full area of {|y(x^2-y)| <= Z} is AREA_CONST * Z^(3/4) + O(Z^(1/2)).
    AREA_CONST = float(2 * (1 + mpmath.sqrt(2)) * _g14 * _g14 / (3 * mpmath.sqrt(mpmath.pi)))

# Slice-length integrals of the region |y(x^2 - y)| <= Z after rescaling:
#   CENTER_INTEGRAL = int_0^1 sqrt(z^4 + 1) dz              = (sqrt2 + g) / 3
#   TAIL_INTEGRAL   = int_1^inf sqrt(z^4+1) - sqrt(z^4-1) dz = (-sqrt2 + (1+sqrt2) g) / 3
CENTER_INTEGRAL = (SQRT2 + _G) / 3.0
TAIL_INTEGRAL = (-SQRT2 + (1.0 + SQRT2) * _G) / 3.0

# Leading constant for lattice pair counts |b(a^2-4b)| <= X: pairs (a, b)
# correspond to lattice points (x, y) = (a, 4b) of covolume 4 in the region
# with parameter 4X, so the count is Area(4X)/4 = (sqrt2/2) * AREA_CONST * X^(3/4).
PAIR_COUNT_CONST = AREA_CONST * SQRT2 / 2.0
