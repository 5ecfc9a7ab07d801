"""Normalized bound-state eigenfunctions.

A bound state of the well (hard wall at x = 0, step of height V0 at
x = a) has the piecewise form

    psi(x) = A sin(k x)                     0 <= x <= a
    psi(x) = B exp(-kappa (x - a))          x > a

with B = A sin(k a) fixed by continuity and A > 0 by convention.  The
normalization integral splits into

    I1 = (a / 4z) (2z - sin 2z)             inside,  z = k a
    I2 = a sin^2(z) / (2 z_tilde)           outside, z_tilde = kappa a

and A = 1 / sqrt(I1 + I2).  The probability of finding the particle
inside the well is A^2 I1.  Derivative continuity at x = a holds because
(z, z_tilde) solves the eigenvalue equation, not by construction here;
checking it numerically is a genuine test of the root.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .dimensionless import BoundState, WellStrength, strength_value
from .errors import DomainError

# consistency slack for the circle constraint of a supplied state,
# relative to z0^2
_CIRCLE_SLACK = 1e-6

# Gauss-Legendre panels per radian of k a.  Inside, psi^2 = A^2 (1 - cos 2kx) / 2,
# so panels of width h = 1 / (32 k) bound the three-point rule's error,
# a A^2 (2 k h)^6 / 4032000, below 5e-14 of the norm (a A^2 < 3)
_PANELS_PER_RADIAN = 32


class WavefunctionSpec(
    namedtuple("WavefunctionSpec", "a k k_tilde amplitude outside_coeff")
):
    """Everything needed to evaluate one normalized eigenfunction.

    Lengths are in units of the well width argument passed to
    :func:`build_wavefunction`; k and k_tilde carry inverse length.
    """

    __slots__ = ()


def build_wavefunction(
    state: BoundState,
    z0: WellStrength | float,
    a: float = 1.0,
) -> WavefunctionSpec:
    """Normalized eigenfunction for a solved bound state.

    The state must belong to the well of strength z0 (its (z, z_tilde)
    must sit on the circle of radius z0); a is the physical well width.
    """
    v = strength_value(z0)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"well width must be positive, got {a!r}")
    z = state.z
    zt = state.z_tilde
    if not zt > 0.0:
        raise DomainError("state is not normalizable: decay constant <= 0")
    # |r^2 - z0^2| = |r - z0| (r + z0), about 2 z0 |r - z0|, for the radius
    # r = hypot(z, z_tilde), which cannot overflow as z0^2 can
    if not abs(math.hypot(z, zt) - v) <= 0.5 * _CIRCLE_SLACK * v:
        raise DomainError(
            f"state (z={z!r}, z_tilde={zt!r}) does not belong to z0={v!r}"
        )
    i1 = (a / (4.0 * z)) * (2.0 * z - math.sin(2.0 * z))
    i2 = a * math.sin(z) ** 2 / (2.0 * zt)
    amplitude = 1.0 / math.sqrt(i1 + i2)
    return WavefunctionSpec(
        a=a,
        k=z / a,
        k_tilde=zt / a,
        amplitude=amplitude,
        outside_coeff=amplitude * math.sin(z),
    )


def evaluate(spec: WavefunctionSpec, x: float) -> float:
    """psi(x).  Defined for x >= 0 only; the hard wall excludes x < 0."""
    if not x >= 0.0:
        raise DomainError(f"x must be >= 0, got {x!r}")
    if x <= spec.a:
        return spec.amplitude * math.sin(spec.k * x)
    return spec.outside_coeff * math.exp(-spec.k_tilde * (x - spec.a))


def probability_inside(spec: WavefunctionSpec) -> float:
    """Integral of psi^2 over [0, a], from the closed form A^2 I1."""
    z = spec.k * spec.a
    i1 = (spec.a / (4.0 * z)) * (2.0 * z - math.sin(2.0 * z))
    return spec.amplitude**2 * i1


def quadrature_norm_check(spec: WavefunctionSpec) -> float:
    """Total norm of psi^2 by composite Gauss-Legendre; 1 for a normalized state.

    The interior [0, a] is split into ceil(32 k a) equal panels, each
    integrated with the three-point Gauss-Legendre rule (nodes 0 and
    +-sqrt(3/5) of the half-width, weights 8/9 and 5/9) and the terms
    summed with math.fsum.  It samples psi only through :func:`evaluate`,
    so it stays independent of the closed forms used for normalization.
    The exponential tail beyond a is added analytically as
    B^2 / (2 kappa), which is exact.
    """
    panels = math.ceil(_PANELS_PER_RADIAN * spec.k * spec.a)
    half = 0.5 * spec.a / panels
    offset = math.sqrt(0.6) * half
    inside = math.fsum(
        weight * evaluate(spec, (2 * i + 1) * half + shift) ** 2
        for i in range(panels)
        for weight, shift in ((8.0, 0.0), (5.0, -offset), (5.0, offset))
    ) * (half / 9.0)
    tail = spec.outside_coeff**2 / (2.0 * spec.k_tilde)
    return inside + tail
