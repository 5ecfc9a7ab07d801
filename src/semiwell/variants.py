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

On each half-pi cell every g above is +sin z or -sin z, picked by the
sign of sin z or of cos z: ``_G`` holds that sign rule, and the crossings,
the residual and the curves of :mod:`semiwell.output` all read it.

The crossings are counted exactly, in one scan per well that every kind
reads.  On each half-pi cell [k pi/2, (k + 1) pi/2] every g above is
+|sin z| or -|sin z|, so a kind keeps the crossings of y = z0 |sin z| on
the cells where its g is +|sin z|, by the parity of the cell or band.
They are roots of the solver's concave band residual h_m(delta) =
-(z - z0 |sin z|), delta = z - e_m, m = k // 2 + 1.  The odd cell
k = 2m - 1 is band m, where h_m falls from eps_m = z0 - e_m: by the count
rule of :func:`count_bound_states`, bands 1..N hold one root each, the
spectrum's.  The even cell k = 2m - 2 lies between the bands (cot(z) > 0),
where h_m rises from -(m - 1) pi to its peak at delta = -arcsin(1/z0),
then falls to eps_m: below bands 2..N it holds one root, on the rising
side.  Only the top cell, below band N + 1, is tested: its pair needs a
positive peak, its right root eps_m < 0 and its left root N >= 1.  The
solver's batch kernel finds the left roots in one run and the right one in
another; the parity of the cell is the ``spurious`` flag.  The scan of the
last well asked about is kept.
"""

from __future__ import annotations

import enum
import functools
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


class _Picture:
    # a grid of z for a z0 v and, each taken when first read, the grid's sines
    # and cosines and its points (z, z0 sin z) and (z, -z0 sin z)
    def __init__(self, v: float, grid: tuple) -> None:
        self.v, self.grid = v, grid

    sines = functools.cached_property(lambda p: tuple(map(math.sin, p.grid)))
    cosines = functools.cached_property(lambda p: tuple(map(math.cos, p.grid)))
    plus = functools.cached_property(lambda p: tuple(zip(p.grid, [p.v * s for s in p.sines])))
    minus = functools.cached_property(lambda p: tuple(zip(p.grid, [p.v * -s for s in p.sines])))


# the sign rule of each rewriting (see the module docstring): each point (z, z0 g(z))
# is the picture's plus or minus point, as v (-s) = -(v s) and v |s| = |v s|, v > 0
_G = {
    VariantKind.SIN: lambda p: list(p.plus),
    VariantKind.ABS_SIN: lambda p: [
        mi if s < 0.0 else pl for pl, mi, s in zip(p.plus, p.minus, p.sines)
    ],
    VariantKind.NEG_SIN: lambda p: list(p.minus),
    # -sin(z) cos(z) / |cos(z)|: cos(z) has no float zero
    VariantKind.CORRECT: lambda p: [
        pl if c < 0.0 else mi for pl, mi, c in zip(p.plus, p.minus, p.cosines)
    ],
}


# whether g = +|sin z| on band m, at m % 2, and on the cell below it, at 2 + m % 2:
# g has period 2 pi, so they test as band 2 - m % 2 and its cell, at their middles
_PROBES = [1.75 * math.pi, 0.75 * math.pi, 1.25 * math.pi, 0.25 * math.pi]
_KEEP = {kind: [y > 0.0 for _, y in g(_Picture(1.0, _PROBES))] for kind, g in _G.items()}


def _rewriting(kind: VariantKind) -> tuple:
    # the sign rule of _G and the _KEEP flags of a kind checked here
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
    return z - g(_Picture(v, (z,)))[0][1]


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
        return [pos for pos, i in enumerate(self.intersections, start=1) if i.spurious]

    def genuine_roots(self) -> list[float]:
        return [i.z for i in self.intersections if not i.spurious]


def enumerate_intersections(
    kind: VariantKind, z0: WellStrength | float
) -> VariantReport:
    """All crossings of y = z with y = z0 g(z) on (0, z0], in increasing z.

    Crossings can only occur for z <= z0 since |g| <= 1.  The count of
    bound states N places them on the cells where g = +|sin z| (see the
    module docstring): one on each of bands 1..N, the band solve's root,
    one on each gap cell below bands 2..N, and at most two on the gap cell
    below band N + 1.  At a threshold, where no float lies strictly
    between z0 and k pi/2, the grazing crossing z = z0 is not reported.  A
    crossing between the bands, where cot(z) > 0 and the original equation
    fails, is spurious.
    """
    _, keep = _rewriting(kind)
    found = _crossings(strength_value(z0))
    return VariantReport(kind, tuple([i for i, k in found if keep[k]]))


@functools.lru_cache(maxsize=1)
def _crossings(v: float) -> tuple[tuple[Intersection, int], ...]:
    # each crossing of y = z0 |sin z| for a validated z0 v, sorted, with its _KEEP
    # index; band n + 1's frame comes first, to refuse a well past band 2^52 at once
    n = count_bound_states(v)
    top = next(_band_frames((n + 1,), v))
    frames = list(_band_frames(range(1, n + 1), v))
    # h peaks at delta = d, where it is eps - d - sag; for z0 <= 1 it only falls
    d = -math.asin(min(1.0, 1.0 / v))
    pair = v > 1.0 and top[3] - d - 2.0 * v * math.sin(0.5 * d) ** 2 > 0.0
    # runs from the cells' left ends and the top cell's right end, where h < 0,
    # so that Newton on a concave h never crosses a root, and on the bands;
    # each run is in increasing z and no two runs share a z but the top pair
    runs = (
        (frames[1:] + ([top] if pair and n >= 1 else []), -_HALF_PI),
        ([top] if pair and top[3] < 0.0 else [], 0.0),
        (frames, None),
    )
    config, new = SolveConfig(), tuple.__new__
    found = sorted(
        (new(Intersection, (z, x is not None)), 2 * (x is not None) + m % 2)
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
