"""Dimensionless core of the semi-infinite square well problem.

The potential is infinitely high for x < 0, zero on [0, a] and V0 for
x > a.  Writing z = k a and z0 = sqrt(2 m V0 a^2) / hbar, a bound state
with 0 < E < V0 satisfies the transcendental equation

    sqrt(z0^2 - z^2) = -z cot(z),        0 < z < z0,

so the point (z, z_tilde) with z_tilde = a * kappa (kappa the exterior
decay constant) lies on the circle z^2 + z_tilde^2 = z0^2.  The energy is
E = V0 (z / z0)^2.  Solutions only exist where cot(z) < 0, i.e. in the
bands ((2m - 1) pi / 2, m pi) for m = 1, 2, ...  Their edges are placed
here alone, exactly as pairs of floats while 2m - 1 is exact (m <= 2^52,
float64's band resolution, past which the frame refuses a band): e_m by
:func:`_band_frames`, a run of bands per call, and m pi = e_m + pi / 2
by :func:`_band_top`.  Every edge check and every band solve reads them.

Everything in this module is a pure function of z and z0.  Physical
units enter only through :mod:`semiwell.units`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .errors import DomainError

# cot() rejects arguments closer to a pole than this; in practice only
# z = 0.0 trips it, since float multiples of pi have |sin| ~ 1e-16.
_SIN_GUARD = 1e-300

_HALF_PI = math.pi / 2.0
# pi - math.pi, so that pi = math.pi + _PI_LO to about 3e-33
_PI_LO = 1.2246467991473532e-16


def _validated_make(cls, iterable):
    # namedtuple's _make, which _replace builds through, skips __new__ and
    # so the checks; a validated record's _make goes through the constructor
    return cls(*iterable)


class WellStrength(namedtuple("WellStrength", "z0")):
    """Dimensionless well depth z0 = sqrt(2 m V0 a^2) / hbar."""

    __slots__ = ()

    def __new__(cls, z0: float) -> WellStrength:
        self = tuple.__new__(cls, (_as_float(z0),))
        self.__post_init__()
        return self

    # the check keeps its own method, under which bench/tracing.py counts
    # validations
    def __post_init__(self) -> None:
        _check_strength(self.z0)

    _make = classmethod(_validated_make)


def _as_float(z0: float) -> float:
    # float(z0), or a DomainError that names the cause: 10**400 has 401 digits
    try:
        return float(z0)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"well strength must be a float64 number: {exc}") from None


def _check_strength(v: float) -> None:
    if not math.isfinite(v) or v <= 0.0:
        raise DomainError(f"well strength must be finite and positive, got {v!r}")


def strength_value(z0: WellStrength | float) -> float:
    """Validated float value of a well strength passed either way."""
    if isinstance(z0, WellStrength):
        return z0.z0
    v = _as_float(z0)
    _check_strength(v)
    return v


def _check_int(label: str, n: int, least: int) -> None:
    # an int (not a bool, not a float such as 2.0) of at least least
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise DomainError(f"{label} must be an int >= {least}, got {n!r}")


# math.pi = hi + lo by Dekker's split (2^27 + 1), halves of 26 bits each
_PI_SPLIT = (3.1415926814079285, -2.781813535079891e-08)


def _band_frames(bands: Iterable[int], v: float) -> Iterator[tuple]:
    # the frame (m, hi, lo, eps) of each band m of bands.  Its left edge
    # e_m = (2m - 1) pi / 2 = hi + lo, hi the float nearest it, to about 1e-32
    # relative: (2m - 1) math.pi is its rounded product plus the exact error
    # (Dekker's two-product), which (2m - 1)(pi - math.pi) joins.  Also
    # eps = z0 - e_m, 0 at the threshold: z0 is hi or the float past hi
    # toward e_m, so that no float lies strictly between z0 and e_m and no
    # root z can satisfy e_m < z < z0.  Past band 2^52, where 2m - 1 has no
    # exact float, no band can be placed.
    ph, pl = _PI_SPLIT
    for m in bands:
        if m > 2**52:
            raise DomainError(f"band m={m} is past float64's band resolution: m > 2^52")
        x = float(2 * m - 1)
        p = x * math.pi
        c = 134217729.0 * x
        xh = c - (c - x)
        xl = x - xh
        err = ((xh * ph - p) + xh * pl + xl * ph) + xl * pl + x * _PI_LO
        hi = p + err
        e_hi, e_lo = 0.5 * hi, 0.5 * (err - (hi - p))
        at = v == e_hi or v == math.nextafter(e_hi, math.copysign(math.inf, e_lo))
        yield m, e_hi, e_lo, 0.0 if at else (v - e_hi) - e_lo


def _band_top(e_hi: float, e_lo: float) -> tuple[float, float]:
    # band m's right edge m pi = e_m + pi / 2 as a pair hi + lo, by Fast2Sum
    hi = e_hi + _HALF_PI
    return hi, ((e_hi - hi) + _HALF_PI) + (e_lo + 0.5 * _PI_LO)


class BoundState(namedtuple("BoundState", "m z z_tilde energy_ratio")):
    """A single bound state: interval index m, root z, decay constant z_tilde.

    The root lies strictly inside the m-th band ((2m - 1) pi / 2, m pi),
    the only places the eigenvalue equation can balance; its float may be
    the float nearest an edge, where a root within half an ulp rounds.
    The band check already certifies E > 0, so energy_ratio may be 0.0,
    where (z / z0)^2 underflows (z0 above about 1.6e162).
    """

    __slots__ = ()

    def __new__(
        cls, m: int, z: float, z_tilde: float, energy_ratio: float
    ) -> BoundState:
        _check_int("interval index", m, 1)
        # the floats nearest the band's edges, the only place a root can sit
        _, lo, e_lo, _ = next(_band_frames((m,), 0.0))
        hi = sum(_band_top(lo, e_lo))
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
    s = _circle_scale(v)
    u, y = v * s, z * s
    return math.sqrt((u - y) * (u + y)) / s + z * cot(z)


def _circle_scale(v: float) -> float:
    # a power of two s for sqrt(((v - z) s)((v + z) s)) / s = sqrt(v^2 - z^2),
    # 0 <= z <= v: 1 unless v^2 or 2 v could overflow, and exact, so the bits
    # are the unscaled form's wherever that is finite
    return 2.0**-600 if v > 2.0**500 else 1.0


# bench/tracing.py counts calls of this function by its code object, so it
# stays until the tracer counts elsewhere (ROADMAP item 1)
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
