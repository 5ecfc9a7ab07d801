"""Graphical-solution variants of the eigenvalue equation.

Multiplying sqrt(z0^2 - z^2) = -z cot(z) by sin(z) and using the circle
constraint is a popular shortcut, but the bookkeeping of signs along the
way is easy to fumble.  Four rewritings of the equation as z = z0 g(z)
are implemented here:

    SIN        g(z) = sin(z)         sign of sin dropped and sign of cot lost
    ABS_SIN    g(z) = |sin(z)|       sign of cot lost
    NEG_SIN    g(z) = -sin(z)        wrong branch kept
    CORRECT    g(z) = -sin(z) cos(z) / |cos(z)|

Only CORRECT reproduces the true spectrum and nothing else.  The flawed
forms intersect the line y = z in extra places where cot(z) > 0; those
crossings solve the rewritten equation but not the original one, and
``spurious`` marks them.  Filtering them out recovers the true roots for
SIN-type errors only when no genuine root is also lost, which is what
:func:`filtered_equivalence` checks.

The crossings are counted exactly, cell by cell.  On each half-pi cell
[k pi/2, (k + 1) pi/2] every g above is either +|sin z| or -|sin z|.
Where it is -|sin z| the line cannot meet the curve.  Where it is
+|sin z| the crossings are roots of the solver's concave band residual
h_m(delta) = -(z - z0 |sin z|), delta = z - e_m, with m = k // 2 + 1.
The odd cell k = 2m - 1 is band m (delta > 0), where h_m falls from
z0 - e_m: one root when that is positive, the spectrum's, from the band
solve.  The even cell k = 2m - 2 lies between the bands (cot(z) > 0):
h_m rises from -(m - 1) pi to its maximum at delta = -arcsin(1/z0), then
falls to z0 - e_m, so it has at most one root on either side, found by
the solver's Newton loop from the cell's ends.  The signs of h_m there
give the count; the parity of the cell is the ``spurious`` flag.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .dimensionless import _HALF_PI, WellStrength, strength_value
from .errors import DomainError
from .solver import SolveConfig, _band_frame, _band_root, _newton, count_bound_states


class VariantKind(enum.Enum):
    SIN = "sin"
    ABS_SIN = "abs-sin"
    NEG_SIN = "neg-sin"
    CORRECT = "correct"


# the right-hand sides g(z) of the rewritings z = z0 g(z); the curves of
# semiwell.output are drawn from this table too
_G = {
    VariantKind.SIN: math.sin,
    VariantKind.ABS_SIN: lambda z: abs(math.sin(z)),
    VariantKind.NEG_SIN: lambda z: -math.sin(z),
    VariantKind.CORRECT: lambda z: -math.sin(z) * math.copysign(1.0, math.cos(z)),
}


def variant_residual(kind: VariantKind, z: float, z0: WellStrength | float) -> float:
    """z - z0 g(z) for the chosen rewriting; zero at an intersection."""
    v = strength_value(z0)
    if not z > 0.0:
        raise DomainError(f"z must be positive, got {z!r}")
    return z - v * _G[kind](z)


class Intersection(namedtuple("Intersection", "z spurious")):
    """One crossing of y = z with y = z0 g(z), flagged if non-physical."""

    __slots__ = ()


class VariantReport(namedtuple("VariantReport", "kind intersections")):
    """The crossings of one rewriting, a tuple of Intersection in increasing z."""

    __slots__ = ()

    @property
    def n_total(self) -> int:
        return len(self.intersections)

    @property
    def n_spurious(self) -> int:
        return sum(1 for i in self.intersections if i.spurious)

    def spurious_positions(self) -> list[int]:
        """1-based positions of the spurious crossings, in increasing z."""
        return [
            pos
            for pos, item in enumerate(self.intersections, start=1)
            if item.spurious
        ]

    def genuine_roots(self) -> list[float]:
        return [i.z for i in self.intersections if not i.spurious]


def _gap_crossings(
    m: int, v: float, frame: tuple[float, float, float], config: SolveConfig
) -> list[float]:
    # roots of z = z0 |sin z| between bands m - 1 and m, delta = z - e_m in
    # (-pi/2, 0), in increasing z: h rises from -(m - 1) pi to its maximum at
    # -arcsin(1/z0), then falls to eps; for z0 <= 1 it only falls
    e_hi, e_lo, eps = frame
    if v <= 1.0:
        return []
    d = -math.asin(1.0 / v)
    if eps - d - 2.0 * v * math.sin(0.5 * d) ** 2 <= 0.0:
        return []
    # started from a piece end, where h < 0, Newton on a concave h never
    # crosses the root
    starts = ([-_HALF_PI] if m > 1 else []) + ([0.0] if eps < 0.0 else [])
    return [e_hi + (e_lo + _newton(m, v, x, eps, None, config)[-1]) for x in starts]


def enumerate_intersections(
    kind: VariantKind, z0: WellStrength | float
) -> VariantReport:
    """All crossings of y = z with y = z0 g(z) on (0, z0], in increasing z.

    Crossings can only occur for z <= z0 since |g| <= 1.  Each half-pi
    cell below z0 on which g = +|sin z| holds at most two; the signs of
    z - z0 |sin z| at the ends of the cell's monotone pieces count them
    exactly, and a crossing on a band is the band solve's root (see the
    module docstring).  At a threshold, where no float lies strictly
    between z0 and k pi/2, the grazing crossing z = z0 is not reported.  A
    crossing between the bands, where cot(z) > 0 and the original equation
    fails, is spurious.
    """
    v = strength_value(z0)
    config = SolveConfig()
    g = _G[kind]
    found: list[Intersection] = []
    m = 1
    while (m - 1) * math.pi < v:
        # the cell below band m, then band m itself, tested at their middles
        gap, band = g((m - 0.75) * math.pi) > 0.0, g((m - 0.25) * math.pi) > 0.0
        if gap or band:
            frame = _band_frame(m, v)
            if gap:
                for z in _gap_crossings(m, v, frame, config):
                    found.append(Intersection(z=z, spurious=True))
            if band and frame[2] > 0.0:
                z = _band_root(m, v, frame, config)[0]
                found.append(Intersection(z=z, spurious=False))
        m += 1
    return VariantReport(kind=kind, intersections=tuple(found))


def filtered_equivalence(kind: VariantKind, z0: WellStrength | float) -> bool:
    """Does discarding spurious crossings recover the true spectrum?

    True when g = +|sin z| on each band 1..N of the N bound states: those
    bands, and no others, hold a genuine crossing, the band solve's root
    (see :func:`enumerate_intersections`), so it cannot disagree with the
    spectrum in value.  NEG_SIN fails by losing entire bands, SIN by losing
    every even one.
    """
    g = _G[kind]
    n = count_bound_states(z0)
    return all(g((m - 0.25) * math.pi) > 0.0 for m in range(1, n + 1))
