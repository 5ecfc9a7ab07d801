"""Root counting and the safeguarded Newton solve for the full spectrum.

The number of bound states follows from where the circle of radius z0
meets the bands with cot(z) < 0: with t = 2 z0 / pi,

    N = 0                 if t <= 1,
    N = floor((t + 1)/2)  otherwise,

except at the degenerate thresholds t = 3, 5, 7, ... where the circle is
tangent to a band edge and the grazing intersection z = z0 carries no
normalizable state, so N drops back by one.  Those thresholds are snapped
to within 1e-12 relative.

Each root is found by Newton's method on the smooth per-band surrogate
f(z) = z + (-1)^m z0 sin(z), started from the band midpoint and kept
honest by a shrinking sign-change bracket: any step that leaves the
bracket, or lands where |f'| is negligible, is replaced by a bisection
step.  The same band solve gives the crossings of :mod:`semiwell.variants`
on the bands, and the loop refines their crossings between the bands.
Every routine here is a pure function, so solves for different bands or
depths can run concurrently without shared state.

Inputs are validated once per public call, where they enter; the loops
below that run on the plain float z0.  The Newton loop evaluates
f = z + s sin z and f' = 1 + s cos z inline, with s = (-1)^m z0 fixed per
band, in the same operations and order as
:func:`semiwell.dimensionless.residual_interval` and its derivative, so
its iterates are those of the public residuals bit for bit.
:func:`solve_all` counts the states once and solves every band through the
same per-band solve as :func:`newton_solve`, which adds the band check of
:func:`bracket_for`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dimensionless import (
    BoundState,
    WellStrength,
    _band_edges,
    _check_band,
    strength_value,
)
from .errors import ConvergenceError, DomainError

# relative snap width for the tangency thresholds 2 z0 / pi = 3, 5, 7, ...
_THRESHOLD_SNAP = 1e-12

# a Newton step is refused when |f'| falls below this
_DERIVATIVE_FLOOR = 1e-14


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances for the Newton solve.

    root_tol is the absolute step-size target (widened internally to a few
    ulps of the iterate when z is large enough that 1e-12 is below float
    resolution).  residual_tol double-checks |f| at the accepted root.
    """

    root_tol: float = 1e-12
    residual_tol: float = 1e-9
    max_newton_iters: int = 50

    def __post_init__(self) -> None:
        if not (math.isfinite(self.root_tol) and self.root_tol > 0.0):
            raise DomainError(f"root_tol must be positive, got {self.root_tol!r}")
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0.0):
            raise DomainError(
                f"residual_tol must be positive, got {self.residual_tol!r}"
            )
        n = self.max_newton_iters
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise DomainError(f"max_newton_iters must be an int >= 1, got {n!r}")


@dataclass(frozen=True)
class NewtonTrace:
    """Iterate history of one root solve.

    iterates[0] is the starting guess; each later entry is one accepted
    step (Newton where safe, bisection otherwise).  fallback_bisections
    counts the replaced steps.
    """

    iterates: tuple[float, ...]
    converged: bool
    fallback_bisections: int


def count_bound_states(z0: WellStrength | float) -> int:
    """Number of bound states held by a well of strength z0.

    Always at least one for z0 > pi/2; exactly zero at and below pi/2.
    At the degenerate thresholds z0 = m pi / 2 (odd m > 1) the grazing
    solution z = z0 is excluded, which lowers the count by one relative
    to the generic formula.
    """
    v = strength_value(z0)
    t = 2.0 * v / math.pi
    if t <= 1.0:
        return 0
    nearest = round(t)
    if (
        nearest % 2 == 1
        and nearest > 1
        and abs(t - nearest) <= _THRESHOLD_SNAP * max(1.0, t)
    ):
        return (nearest - 1) // 2
    return int(math.floor((t + 1.0) / 2.0))


def bracket_for(m: int, z0: WellStrength | float) -> tuple[float, float]:
    """Open interval ((2m - 1) pi / 2, m pi) bracketing the m-th root.

    Raises DomainError when m exceeds the state count for this z0, since
    the band then holds no root to bracket.
    """
    v = strength_value(z0)
    _check_band(m)
    n = count_bound_states(v)
    if m > n:
        raise DomainError(
            f"band m={m} holds no root: z0={v!r} supports {n} bound state(s)"
        )
    return _band_edges(m)


def _newton(
    m: int,
    v: float,
    lo: float,
    hi: float,
    z: float,
    rising: bool,
    config: SolveConfig,
) -> tuple[float, list[float], int]:
    """Root of f(z) = z + (-1)^m v sin(z) on [lo, hi], started from z.

    v is the already validated z0.  f changes sign once on the bracket:
    upwards when ``rising``, else downwards.  The bracket shrinks around
    the root by the sign of f; a candidate step outside the open bracket,
    or taken where |f'| < 1e-14, is discarded for the bracket midpoint.
    Terminates when the step size drops below config.root_tol (or a few
    ulps of z if that is larger), then certifies |f(z)|.  Returns the
    root, the iterates and the number of replaced steps.
    """
    # f and f' are residual_interval and its derivative, inline and with
    # the same operations in the same order, so the iterates keep their bits
    sv = -v if m % 2 else v
    sin, cos, ulp = math.sin, math.cos, math.ulp
    root_tol = config.root_tol
    iterates = [z]
    fallbacks = 0
    for _ in range(config.max_newton_iters):
        fz = z + sv * sin(z)
        if fz == 0.0:
            break
        if (fz < 0.0) == rising:
            lo = z
        else:
            hi = z
        dfz = 1.0 + sv * cos(z)
        if abs(dfz) < _DERIVATIVE_FLOOR:
            candidate = 0.5 * (lo + hi)
            fallbacks += 1
        else:
            candidate = z - fz / dfz
            if candidate == z:
                # correction below float resolution: z is the root
                break
            if not lo < candidate < hi:
                candidate = 0.5 * (lo + hi)
                fallbacks += 1
        iterates.append(candidate)
        step = abs(candidate - z)
        z = candidate
        if step < root_tol or step < 4.0 * ulp(z):
            break
    else:
        raise ConvergenceError(
            f"no convergence after {config.max_newton_iters} iterations "
            f"for m={m}, z0={v!r}"
        )
    # residual_tol is the floor; a deliberately loose root_tol widens the
    # double-check so a coarse solve is not rejected as a failure.  Neither
    # can ask for less than float64 reaches: the float nearest the root
    # leaves |f'| ulp(z), and evaluating z + z0 sin z adds a few ulp more.
    residual_cap = max(config.residual_tol, 10.0 * root_tol * max(1.0, v))
    rounding = abs(1.0 + sv * cos(z)) * ulp(z)
    rounding += 4.0 * ulp(max(z, v))
    if abs(z + sv * sin(z)) > residual_cap + rounding:
        raise ConvergenceError(
            f"step size converged but |f(z)| exceeds tolerance "
            f"for m={m}, z0={v!r}, z={z!r}"
        )
    return z, iterates, fallbacks


def _band_root(m: int, v: float, config: SolveConfig) -> tuple[float, list[float], int]:
    # the root in band m of a well of validated strength v that reaches it
    lo, hi = _band_edges(m)
    z, iterates, fallbacks = _newton(
        m, v, lo, hi, (4 * m - 1) * math.pi / 4.0, True, config
    )
    # Just above a degenerate threshold the true root is closer to z0 than
    # one ulp; pin it inside (0, z0) so the decay constant stays positive.
    if z >= v:
        z = math.nextafter(v, 0.0)
    return z, iterates, fallbacks


def _solve_band(
    m: int, v: float, config: SolveConfig
) -> tuple[BoundState, NewtonTrace]:
    # the m-th bound state of a well of validated strength v, which holds it
    z, iterates, fallbacks = _band_root(m, v, config)
    state = BoundState(
        m=m,
        z=z,
        z_tilde=math.sqrt((v - z) * (v + z)),
        energy_ratio=(z / v) ** 2,
    )
    return state, NewtonTrace(
        iterates=tuple(iterates),
        converged=True,
        fallback_bisections=fallbacks,
    )


def newton_solve(
    m: int,
    z0: WellStrength | float,
    config: SolveConfig = SolveConfig(),
) -> tuple[BoundState, NewtonTrace]:
    """Solve for the m-th root of a well of strength z0.

    Safeguarded Newton on f(z) = z + (-1)^m z0 sin(z), rising across the
    band bracket of :func:`bracket_for`, from its midpoint (4m - 1) pi / 4.
    The root is accepted when |f(z)| is within config.residual_tol or,
    where float64 cannot reach that, within the rounding floor of f.
    """
    v = strength_value(z0)
    bracket_for(m, v)
    return _solve_band(m, v, config)


def solve_all(
    z0: WellStrength | float,
    config: SolveConfig = SolveConfig(),
) -> list[BoundState]:
    """All bound states of a well of strength z0, in increasing energy.

    One Newton solve per band; the per-band brackets are disjoint, so the
    returned roots are strictly increasing by construction.
    """
    v = strength_value(z0)
    return [_solve_band(m, v, config)[0] for m in range(1, count_bound_states(v) + 1)]
