"""The scalar phase evaluation the array kernel ``_exact.cis`` replaced.

Kept as the reference the differential tests compare against: one
``Fraction`` at a time, reduced mod 1, exact at the quarter phases,
otherwise cos and sin of 2 pi float(q).
"""

import math
from fractions import Fraction

_QUARTER_PHASES = {
    Fraction(0): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}


def cis(q) -> complex:
    """e^{2 pi i q} for rational q, reduced mod 1 before exponentiating."""
    q = Fraction(q) % 1
    exact = _QUARTER_PHASES.get(q)
    if exact is not None:
        return exact
    t = 2.0 * math.pi * float(q)
    return complex(math.cos(t), math.sin(t))
