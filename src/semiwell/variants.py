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

The crossings are counted exactly, in one scan per well that every kind
reads.  On each half-pi cell [k pi/2, (k + 1) pi/2] every g above is
either +|sin z| or -|sin z|, so a kind keeps the crossings of y = z0 |sin z|
on the cells where its g is +|sin z|, by the parity of the cell or band.
They are roots of the solver's concave band residual h_m(delta) =
-(z - z0 |sin z|), delta = z - e_m, with m = k // 2 + 1.  The odd cell
k = 2m - 1 is band m (delta > 0), where h_m falls from z0 - e_m: one root
when that is positive, the spectrum's, from the band solve.  The even cell
k = 2m - 2 lies between the bands (cot(z) > 0): h_m rises from -(m - 1) pi
to its maximum at delta = -arcsin(1/z0), then falls to z0 - e_m, so it has
at most one root on either side, found by the solver's batch kernel from
the cells' ends, all left ends in one run and all right ends in another.
The signs of h_m there give the count; the parity of the cell is the
``spurious`` flag.  The scan of the last well asked about is kept.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections import namedtuple

from .dimensionless import _HALF_PI, WellStrength, _band_frames, strength_value
from .errors import DomainError
from .solver import SolveConfig, _band_roots, count_bound_states


class VariantKind(enum.Enum):
    SIN = "sin"
    ABS_SIN = "abs-sin"
    NEG_SIN = "neg-sin"
    CORRECT = "correct"


# z0 g(z) of each rewriting z = z0 g(z) over a grid, from z0, the sines of
# the grid and its points; the curves of semiwell.output read it too
_G = {
    VariantKind.SIN: lambda v, sines, zs: [v * s for s in sines],
    VariantKind.ABS_SIN: lambda v, sines, zs: [v * abs(s) for s in sines],
    VariantKind.NEG_SIN: lambda v, sines, zs: [v * -s for s in sines],
    # -sin(z) cos(z) / |cos(z)|: cos(z) has no float zero
    VariantKind.CORRECT: lambda v, sines, zs: [
        v * s if c < 0.0 else v * -s for s, c in zip(sines, map(math.cos, zs))
    ],
}


# whether g = +|sin z| on band m, at m % 2, and on the cell below it, at 2 + m % 2:
# g has period 2 pi, so they test as band 2 - m % 2 and its cell, at their middles
_PROBES = [1.75 * math.pi, 0.75 * math.pi, 1.25 * math.pi, 0.25 * math.pi]
_SINES = list(map(math.sin, _PROBES))
_KEEP = {kind: [y > 0.0 for y in g(1.0, _SINES, _PROBES)] for kind, g in _G.items()}


def _rewriting(kind: VariantKind) -> tuple:
    # the z0 g(z) of _G and the _KEEP flags of a kind checked here
    if not isinstance(kind, VariantKind):
        raise DomainError(f"kind must be a VariantKind, got {kind!r}")
    return _G[kind], _KEEP[kind]


# bench/tracing.py counts calls of this function by its code object, so it
# stays until the tracer counts elsewhere (ROADMAP item 1)
def variant_residual(kind: VariantKind, z: float, z0: WellStrength | float) -> float:
    """z - z0 g(z) for the chosen rewriting; zero at an intersection."""
    v = strength_value(z0)
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError(f"z must be finite and positive, got {z!r}")
    g, _ = _rewriting(kind)
    return z - g(v, [math.sin(z)], [z])[0]


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
    _, keep = _rewriting(kind)
    found = _crossings(strength_value(z0))
    return VariantReport(kind, tuple([i for i, k in found if keep[k]]))


@functools.lru_cache(maxsize=1)
def _crossings(v: float) -> tuple[tuple[Intersection, int], ...]:
    # each crossing of y = z0 |sin z| for a validated z0 v, sorted, with its _KEEP index
    bands = itertools.takewhile(lambda m: (m - 1) * math.pi < v, itertools.count(1))
    frames = list(_band_frames(bands, v))
    if v > 1.0:  # h peaks at delta = d, where it is eps - d - sag
        d = -math.asin(1.0 / v)
        sag = 2.0 * v * math.sin(0.5 * d) ** 2
        cells = [f for f in frames if f[3] - d - sag > 0.0]
    else:  # h only falls: no cell holds a crossing
        cells = []
    # runs from the cells' left and right ends, where h < 0, so that Newton on
    # a concave h never crosses a root, and on the bands; each run is in
    # increasing z and no two runs share a z but two spurious ones of a cell
    runs = (
        ([f for f in cells if f[0] > 1], -_HALF_PI),
        ([f for f in cells if f[3] < 0.0], 0.0),
        ([f for f in frames if f[3] > 0.0], None),
    )
    config = SolveConfig()
    found = sorted(
        (Intersection(z, x is not None), 2 * (x is not None) + m % 2)
        for run, x in runs
        for m, z, _ in _band_roots(v, run, config, start=x)
    )
    return tuple(found)


def filtered_equivalence(kind: VariantKind, z0: WellStrength | float) -> bool:
    """Does discarding spurious crossings recover the true spectrum?

    True when g = +|sin z| on each band 1..N of the N bound states: those
    bands, and no others, hold a genuine crossing, the band solve's root
    (see :func:`enumerate_intersections`), so it cannot disagree with the
    spectrum in value.  NEG_SIN fails by losing entire bands, SIN by losing
    every even one: SIN holds only for N <= 1, NEG_SIN only for N = 0.
    Bands 1 and 2 decide at any depth.
    """
    n = count_bound_states(z0)
    _, keep = _rewriting(kind)
    return all(keep[m % 2] for m in range(1, min(n, 2) + 1))
