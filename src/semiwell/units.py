"""Conversions between physical well parameters and dimensionless form.

hbar is a field on the well description rather than a global so natural
unit systems (hbar = 1) coexist with SI in one process.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .dimensionless import WellStrength, _validated_make
from .errors import DomainError

HBAR_SI = 1.054571817e-34  # J s
ELECTRON_MASS_SI = 9.1093837015e-31  # kg
EV_SI = 1.602176634e-19  # J
NM_SI = 1e-9  # m


class PhysicalWell(namedtuple("PhysicalWell", "mass width_a depth_v0 hbar")):
    """Particle mass, well width and depth in mutually consistent units."""

    __slots__ = ()

    def __new__(
        cls, mass: float, width_a: float, depth_v0: float, hbar: float = HBAR_SI
    ) -> PhysicalWell:
        self = tuple.__new__(cls, (mass, width_a, depth_v0, hbar))
        for label, value in zip(self._fields, self):
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{label} must be finite and positive, got {value!r}")
        return self

    _make = classmethod(_validated_make)


def strength_from_physical(well: PhysicalWell) -> WellStrength:
    """z0 = sqrt(2 m V0) a / hbar for a physical well."""
    z0 = math.sqrt(2.0 * well.mass * well.depth_v0) * well.width_a / well.hbar
    if not 0.0 < z0 <= 1e300:
        flow = "underflow" if z0 == 0.0 else "overflow"
        raise DomainError(f"well parameters {flow} the strength z0; check units")
    return WellStrength(z0)


def energy_from_z(z: float, well: PhysicalWell) -> float:
    """E = hbar^2 z^2 / (2 m a^2), in the energy unit of the well's depth."""
    z0 = strength_from_physical(well).z0
    if not 0.0 < z < z0:
        raise DomainError(f"z must lie in (0, z0): z={z!r}, z0={z0!r}")
    # V0 (z / z0)^2 cannot overflow, and V0 z / z0, taken first, is not below E
    return well.depth_v0 * (z / z0) * (z / z0)


def critical_depth(mass: float, width_a: float, hbar: float = HBAR_SI) -> float:
    """Depth pi^2 hbar^2 / (8 m a^2) below which the well holds no state.

    At exactly this depth z0 = pi/2 and the would-be state merges with the
    continuum, so the count is still zero.
    """
    PhysicalWell(mass, width_a, 1.0, hbar)  # checks each is finite and positive
    # on the mantissas, in [0.5, 1), it rounds as unscaled but stays in range
    (m, i), (a, j), (h, k) = map(math.frexp, (mass, width_a, hbar))
    try:
        depth = math.ldexp(math.pi**2 * (h * h) / (8.0 * m * (a * a)), 2 * (k - j) - i)
    except OverflowError:
        depth = math.inf
    if depth == 0.0 or depth == math.inf:
        flow = "underflows" if depth == 0.0 else "overflows"
        raise DomainError(f"critical depth {flow} float64 at m={mass!r}, a={width_a!r}")
    return depth
