"""Dimensionless core of the semi-infinite square well problem.

The potential is infinitely high for x < 0, zero on [0, a] and V0 for
x > a.  Writing z = k a and z0 = sqrt(2 m V0 a^2) / hbar, a bound state
with 0 < E < V0 satisfies the transcendental equation

    sqrt(z0^2 - z^2) = -z cot(z),        0 < z < z0,

so the point (z, z_tilde) with z_tilde = a * kappa (kappa the exterior
decay constant) lies on the circle z^2 + z_tilde^2 = z0^2.  The energy is
E = V0 (z / z0)^2.  Solutions only exist where cot(z) < 0, i.e. in the
bands ((2m - 1) pi / 2, m pi) for m = 1, 2, ...

Everything in this module is a pure function of z and z0.  Physical
units enter only through :mod:`semiwell.units`.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError

# cot() rejects arguments closer to a pole than this; in practice only
# z = 0.0 trips it, since float multiples of pi have |sin| ~ 1e-16.
_SIN_GUARD = 1e-300

_HALF_PI = math.pi / 2.0


def _validated_make(cls, iterable):
    # namedtuple's _make, which _replace builds through, skips __new__ and
    # so the checks; a validated record's _make goes through the constructor
    return cls(*iterable)


class WellStrength(namedtuple("WellStrength", "z0")):
    """Dimensionless well depth z0 = sqrt(2 m V0 a^2) / hbar."""

    __slots__ = ()

    def __new__(cls, z0: float) -> WellStrength:
        self = tuple.__new__(cls, (z0,))
        self.__post_init__()
        return self

    # the check keeps its own method, under which bench/tracing.py counts
    # validations
    def __post_init__(self) -> None:
        _check_strength(self.z0)

    _make = classmethod(_validated_make)


def _check_strength(v: float) -> None:
    if not math.isfinite(v) or v <= 0.0:
        raise DomainError(f"well strength must be finite and positive, got {v!r}")


def strength_value(z0: WellStrength | float) -> float:
    """Validated float value of a well strength passed either way."""
    if isinstance(z0, WellStrength):
        return z0.z0
    v = float(z0)
    _check_strength(v)
    return v


def _check_int(label: str, n: int, least: int) -> None:
    # an int (not a bool, not a float such as 2.0) of at least least
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise DomainError(f"{label} must be an int >= {least}, got {n!r}")


def _band_edges(m: int) -> tuple[float, float]:
    # the m-th band ((2m - 1) pi / 2, m pi), the only place a root can sit
    return ((2 * m - 1) * _HALF_PI, m * math.pi)


class BoundState(namedtuple("BoundState", "m z z_tilde energy_ratio")):
    """A single bound state: interval index m, root z, decay constant z_tilde.

    The root lies strictly inside the m-th band ((2m - 1) pi / 2, m pi),
    the only places the eigenvalue equation can balance; its float may be
    that of an edge, where a root within half an ulp of the edge rounds.
    The band check already certifies E > 0, so energy_ratio may be 0.0,
    where (z / z0)^2 underflows (z0 above about 1.6e162).
    """

    __slots__ = ()

    def __new__(
        cls, m: int, z: float, z_tilde: float, energy_ratio: float
    ) -> BoundState:
        _check_int("interval index", m, 1)
        lo, hi = _band_edges(m)
        if not lo <= z <= hi:
            raise DomainError(f"z={z!r} outside interval [{lo!r}, {hi!r}] for m={m}")
        if not z_tilde > 0.0:
            raise DomainError(f"decay constant must be positive, got {z_tilde!r}")
        if not 0.0 <= energy_ratio < 1.0:
            raise DomainError(f"bound state needs 0 < E/V0 < 1, got {energy_ratio!r}")
        return tuple.__new__(cls, (m, z, z_tilde, energy_ratio))

    _make = classmethod(_validated_make)


def cot(z: float) -> float:
    """cos(z) / sin(z), guarded against evaluation at a pole."""
    s = math.sin(z)
    if abs(s) < _SIN_GUARD:
        raise DomainError(f"cot undefined this close to a multiple of pi: z={z!r}")
    return math.cos(z) / s


def residual_exact(z: float, z0: WellStrength | float) -> float:
    """sqrt(z0^2 - z^2) + z cot(z); zero exactly at a bound-state root.

    The square-root term is evaluated as sqrt((z0 - z)(z0 + z)) to avoid
    cancellation when z approaches z0.  Near a pole of cot the residual is
    dominated by z cot(z) and its sign matches the sign of cot.
    """
    v = strength_value(z0)
    if not 0.0 < z < v:
        raise DomainError(f"z must lie in (0, z0): z={z!r}, z0={v!r}")
    return math.sqrt((v - z) * (v + z)) + z * cot(z)


def residual_interval(z: float, m: int, z0: WellStrength | float) -> float:
    """f(z) = z + (-1)^m z0 sin(z), smooth surrogate for the m-th band.

    Total on the real line (no pole, no square root), so a Newton step can
    be taken anywhere.  Inside ((2m - 1) pi / 2, m pi) its zero coincides
    with the zero of :func:`residual_exact`; f is negative at the left edge
    and positive at the right edge whenever the band holds a root.
    """
    _check_int("interval index", m, 1)
    v = strength_value(z0)
    sign = -1.0 if m % 2 else 1.0
    return z + sign * v * math.sin(z)


def residual_interval_derivative(z: float, m: int, z0: WellStrength | float) -> float:
    """d/dz of :func:`residual_interval`: 1 + (-1)^m z0 cos(z)."""
    _check_int("interval index", m, 1)
    v = strength_value(z0)
    sign = -1.0 if m % 2 else 1.0
    return 1.0 + sign * v * math.cos(z)


def energy_ratio(z: float, z0: WellStrength | float) -> float:
    """E / V0 = (z / z0)^2 for a root z of the eigenvalue equation."""
    v = strength_value(z0)
    if not 0.0 < z < v:
        raise DomainError(f"z must lie in (0, z0): z={z!r}, z0={v!r}")
    return (z / v) ** 2


def interval_index(z: float) -> int:
    """Index m of the half-open band ((2m - 1) pi / 2, m pi] containing z.

    Only these bands (where cot(z) <= 0) can hold roots.  A z outside every
    band has no index and raises DomainError.
    """
    if not math.isfinite(z) or z <= _HALF_PI:
        raise DomainError(f"z={z!r} lies below the first root interval")
    m = max(1, math.ceil(z / math.pi))
    # ceil() can slip by one when z sits within rounding of a band edge
    if z > m * math.pi:
        m += 1
    elif z <= (2 * m - 1) * _HALF_PI:
        m -= 1
    if m < 1 or not (2 * m - 1) * _HALF_PI < z <= m * math.pi:
        raise DomainError(f"z={z!r} lies between root intervals (cot z > 0 there)")
    return m
