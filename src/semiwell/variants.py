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
+|sin z| the residual z - z0 |sin z| is the solver's own
f(z) = z + (-1)^m z0 sin(z) with m = k // 2 + 1, and it is convex on the
cell.  The odd cells k = 2m - 1 are the bands: f rises there and has at
most one root, the spectrum's, taken from the solver's band solve.  The
even cells lie between the bands, where cot(z) > 0, and hold the spurious
crossings: f has one minimum, at k pi/2 + arccos(1/z0) when z0 > 1, and at
most one root on either side of it, refined by the solver's Newton loop.
The signs of f at the ends of these monotone pieces give the count, and
the parity of the cell is the ``spurious`` flag.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

from .dimensionless import _HALF_PI, WellStrength, _band_edges, strength_value
from .errors import DomainError
from .solver import SolveConfig, _band_root, _newton, count_bound_states


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


@dataclass(frozen=True)
class Intersection:
    """One crossing of y = z with y = z0 g(z), flagged if non-physical."""

    z: float
    spurious: bool


@dataclass(frozen=True)
class VariantReport:
    kind: VariantKind
    intersections: tuple[Intersection, ...]

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


def _cell_crossings(k: int, v: float, config: SolveConfig) -> Iterator[float]:
    # roots of f(z) = z - z0 |sin z| on (k pi/2, (k + 1) pi/2), in increasing z;
    # f is residual_interval, inline as in the Newton loop
    m = k // 2 + 1
    sv = -v if m % 2 else v
    a = k * _HALF_PI
    if k % 2:
        # band m, where f rises from its left edge: the root is the spectrum's
        if a + sv * math.sin(a) < 0.0:
            yield _band_root(m, v, config)[0]
        return
    b = (k + 1) * _HALF_PI
    # f falls to its minimum at c, where z0 |cos z| = 1; for z0 <= 1 it
    # only rises, so the falling piece is empty
    c = a + math.acos(min(1.0, 1.0 / v))
    for lo, hi, rising in ((a, c, False), (c, b, True)):
        f_lo = lo + sv * math.sin(lo)
        f_hi = hi + sv * math.sin(hi)
        if (f_lo < 0.0 < f_hi) if rising else (f_lo > 0.0 > f_hi):
            # started where f > 0, Newton on a convex f never overshoots
            z, _, _ = _newton(m, v, lo, hi, hi if rising else lo, rising, config)
            # f > 0 beyond z0, so only rounding can put the root there
            yield min(z, v)


def enumerate_intersections(
    kind: VariantKind, z0: WellStrength | float
) -> VariantReport:
    """All crossings of y = z with y = z0 g(z) on (0, z0], in increasing z.

    Crossings can only occur for z <= z0 since |g| <= 1.  Each half-pi
    cell below z0 on which g = +|sin z| holds at most two; the signs of
    z - z0 |sin z| at the ends of the cell's monotone pieces count them
    exactly, and a crossing on a band is the band solve's root (see the
    module docstring).  At a threshold z0 = k pi/2 the grazing crossing
    z = z0 is not reported.  A crossing between the bands, where
    cot(z) > 0 and the original equation fails, is spurious.
    """
    v = strength_value(z0)
    config = SolveConfig()
    found: list[Intersection] = []
    k = 0
    while k * _HALF_PI < v:
        if _G[kind]((k + 0.5) * _HALF_PI) > 0.0:
            spurious = k % 2 == 0
            for z in _cell_crossings(k, v, config):
                found.append(Intersection(z=z, spurious=spurious))
        k += 1
    return VariantReport(kind=kind, intersections=tuple(found))


def filtered_equivalence(kind: VariantKind, z0: WellStrength | float) -> bool:
    """Does discarding spurious crossings recover the true spectrum?

    A count check: True when the bands 1..N of the N bound states keep one
    crossing each.  A genuine crossing is the band solve's root, so it
    cannot disagree with the spectrum in value.  NEG_SIN fails by losing
    entire bands; any form with a crossing in band N + 1 (just above a
    tangency threshold, inside the snap of the count) fails too.
    """
    v = strength_value(z0)
    kept = enumerate_intersections(kind, v).genuine_roots()
    n = count_bound_states(v)
    # the kept roots lie one per band in increasing z, so n of them that
    # end in band n are the bands 1..n
    return len(kept) == n and (n == 0 or kept[-1] < _band_edges(n)[1])
