"""Root counting and the Newton solve of the spectrum in band-edge coordinates.

The number of bound states is the number of band edges
e_m = (2m - 1) pi / 2 below z0, each band holding one root.  At a
threshold, where no float lies strictly between z0 and e_m, the circle is
tangent to the band edge and the grazing intersection z = z0 carries no
state: a root needs a float z with e_m < z < z0.  :func:`_band_frame` is
the one place that decides it.

Band m is solved from its left edge e_m, held as an exact pair of floats.
With eps_m = z0 - e_m and delta = z - e_m the residual

    h_m(delta) = eps_m - delta - 2 z0 sin^2(delta / 2) = -(z - z0 |sin z|)

is concave on (-pi/2, pi/2).  The band is delta > 0, where h_m falls from
eps_m: it holds a root exactly when eps_m > 0, with z_tilde = z0 sin(delta).
A root past the band midpoint (E/V0 < 1/2, h_m > 0 there) is solved in the
paper's theta = m pi - z instead, on theta + z0 sin(theta) - m pi, concave
on (0, pi), with z_tilde = z0 cos(theta).  Neither cancels near a
threshold, and on a concave residual plain Newton from the band midpoint
(4m - 1) pi / 4 needs no bracket.  The same loop finds the crossings of
:mod:`semiwell.variants` between the bands (delta < 0).

Inputs are validated once per public call, where they enter; the loops
below that run on the plain float z0.  :func:`solve_all` counts the states
once and solves every band through the same per-band solve as
:func:`newton_solve`, which adds the band check of :func:`bracket_for`.
Every routine here is a pure function.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .dimensionless import (
    _HALF_PI,
    BoundState,
    WellStrength,
    _band_edges,
    _check_int,
    _validated_make,
    strength_value,
)
from .errors import ConvergenceError, DomainError

# pi - math.pi, so that pi = math.pi + _PI_LO to about 3e-33
_PI_LO = 1.2246467991473532e-16

# h at the band midpoint delta = pi/4 is eps - pi/4 - _MIDPOINT_SAG z0
_MIDPOINT_SAG = 2.0 * math.sin(math.pi / 8.0) ** 2


class SolveConfig(namedtuple("SolveConfig", "root_tol residual_tol max_newton_iters")):
    """Tolerances for the Newton solve.

    root_tol is the step-size target relative to the iterate, in the band's
    own coordinate (widened to a few ulps of it below float resolution).
    residual_tol double-checks |z - z0 |sin z|| at the accepted root.
    """

    __slots__ = ()

    def __new__(
        cls,
        root_tol: float = 1e-12,
        residual_tol: float = 1e-9,
        max_newton_iters: int = 50,
    ) -> SolveConfig:
        if not (math.isfinite(root_tol) and root_tol > 0.0):
            raise DomainError(f"root_tol must be positive, got {root_tol!r}")
        if not (math.isfinite(residual_tol) and residual_tol > 0.0):
            raise DomainError(f"residual_tol must be positive, got {residual_tol!r}")
        _check_int("max_newton_iters", max_newton_iters, 1)
        return tuple.__new__(cls, (root_tol, residual_tol, max_newton_iters))

    _make = classmethod(_validated_make)


class NewtonTrace(namedtuple("NewtonTrace", "iterates converged fallback_bisections")):
    """Iterate history of one root solve in z, from the band midpoint.

    iterates is a tuple of floats; fallback_bisections is always 0: no
    Newton step needs a safeguard.
    """

    __slots__ = ()


def count_bound_states(z0: WellStrength | float) -> int:
    """Number of bound states held by a well of strength z0.

    The number of bands m with eps_m = z0 - (2m - 1) pi / 2 > 0 in
    :func:`_band_frame`, which is 0 at a threshold: none at and below pi/2.
    The estimate round(z0 / pi) is corrected by the frames of its band and
    the next.  Above about 1.4e16, where 2m - 1 is no longer exact as a
    float, the count is only as exact as z0 / pi in float.
    """
    v = strength_value(z0)
    n = round(v / math.pi)
    if n >= 2**52:
        return n
    if _band_frame(n + 1, v)[2] > 0.0:
        return n + 1
    return n if n == 0 or _band_frame(n, v)[2] > 0.0 else n - 1


def bracket_for(m: int, z0: WellStrength | float) -> tuple[float, float]:
    """Open interval ((2m - 1) pi / 2, m pi) holding the m-th root.

    Raises DomainError when band m holds no root for this z0, that is when
    z0 lies at or below the band's left edge.
    """
    v = strength_value(z0)
    _check_int("interval index", m, 1)
    # m - 1 < z0 / pi compares exactly, so a huge m never reaches the frame;
    # the count only words the error
    if not (m - 1 < v / math.pi and _band_frame(m, v)[2] > 0.0):
        raise DomainError(
            f"band m={m} holds no root: z0={v!r} supports "
            f"{count_bound_states(v)} bound state(s)"
        )
    return _band_edges(m)


def _split(a: float) -> tuple[float, float]:
    # Dekker's split by 2^27 + 1: a = hi + lo, halves of 26 bits whose
    # products are exact
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_PI_SPLIT = _split(math.pi)


def _band_frame(m: int, v: float) -> tuple[float, float, float]:
    # band m's left edge e_m = (2m - 1) pi / 2 = hi + lo, hi the float nearest
    # it, to about 1e-32 relative: (2m - 1) math.pi is its rounded product
    # plus the exact error (Dekker's two-product), which (2m - 1)(pi - math.pi)
    # joins.  Also eps_m = z0 - e_m, 0 at the threshold: z0 is hi or the
    # float past hi toward e_m, so that no float lies strictly between z0
    # and e_m and no root z can satisfy e_m < z < z0.
    x = float(2 * m - 1)
    p = x * math.pi
    (xh, xl), (ph, pl) = _split(x), _PI_SPLIT
    err = ((xh * ph - p) + xh * pl + xl * ph) + xl * pl + x * _PI_LO
    hi = p + err
    e_hi, e_lo = 0.5 * hi, 0.5 * (err - (hi - p))
    at = v == e_hi or v == math.nextafter(e_hi, math.copysign(math.inf, e_lo))
    return e_hi, e_lo, 0.0 if at else (v - e_hi) - e_lo


def _newton(
    m: int,
    v: float,
    x: float,
    eps: float,
    m_pi: tuple[float, float] | None,
    config: SolveConfig,
) -> list[float]:
    """Plain Newton iterates on band m's residual from x; the last is the root.

    x is delta = z - e_m, on h(delta) = eps - delta - 2 z0 sin^2(delta / 2);
    given m_pi, m pi = hi + lo, x is theta = m pi - z instead, on
    theta + z0 sin(theta) - m pi.  Both are -(z - z0 |sin z|).  Stops when
    the step drops below root_tol |x| or 4 ulps of x, then certifies the
    residual against residual_tol (widened for a loose root_tol) plus its
    rounding floor: |slope| ulp(x), and a few ulp(z0) from terms up to z0.
    """
    sin, cos = math.sin, math.cos
    p_hi, p_lo = m_pi or (0.0, 0.0)
    root_tol = config.root_tol
    iterates = [x]
    step = math.inf
    for _ in range(config.max_newton_iters + 1):
        if m_pi:
            fx = ((v * sin(x) - p_hi) + x) - p_lo
            dfx = 1.0 + v * cos(x)
        else:
            s = sin(0.5 * x)
            fx = eps - x - 2.0 * v * s * s
            dfx = -1.0 - v * sin(x)
        if abs(step) < root_tol * abs(x) or abs(step) < 4.0 * math.ulp(x):
            break
        step = fx / dfx if fx else 0.0
        if x - step == x:
            # no correction, or one below float resolution: x is the root
            break
        x -= step
        iterates.append(x)
    else:
        raise ConvergenceError(
            f"no convergence after {config.max_newton_iters} iterations "
            f"for m={m}, z0={v!r}"
        )
    residual_cap = max(config.residual_tol, 10.0 * root_tol * max(1.0, v))
    if abs(fx) > residual_cap + abs(dfx) * math.ulp(x) + 4.0 * math.ulp(v):
        raise ConvergenceError(
            f"step size converged but the residual {fx!r} exceeds tolerance "
            f"for m={m}, z0={v!r}"
        )
    return iterates


def _band_root(
    m: int, v: float, frame: tuple[float, float, float], config: SolveConfig
) -> tuple[float, float, list[float]]:
    # z, z_tilde and the iterates in z of the root of band m, which holds one;
    # frame is _band_frame(m, v)
    e_hi, e_lo, eps = frame
    start = (4 * m - 1) * math.pi / 4.0
    if eps > 0.25 * math.pi + _MIDPOINT_SAG * v:
        # h > 0 at the midpoint: the root lies past it, nearer m pi = e_m + pi/2
        p_hi = e_hi + _HALF_PI
        p_lo = ((e_hi - p_hi) + _HALF_PI) + (e_lo + 0.5 * _PI_LO)
        thetas = _newton(m, v, (p_hi - start) + p_lo, eps, (p_hi, p_lo), config)
        zs = [p_hi + (p_lo - t) for t in thetas]
        z_tilde = v * math.cos(thetas[-1])
    else:
        deltas = _newton(m, v, (start - e_hi) - e_lo, eps, None, config)
        zs = [e_hi + (e_lo + x) for x in deltas]
        z_tilde = v * math.sin(deltas[-1])
    zs[0] = start
    # E < V0: a root within half an ulp of z0 is reported one ulp below it,
    # which the threshold rule of _band_frame keeps above e_m
    if zs[-1] == v:
        zs[-1] = math.nextafter(v, 0.0)
    return zs[-1], z_tilde, zs


def _solve_band(m: int, v: float, config: SolveConfig) -> tuple[BoundState, list[float]]:
    # the m-th bound state of a well of validated strength v, which holds it,
    # and the iterates in z that found it
    z, z_tilde, iterates = _band_root(m, v, _band_frame(m, v), config)
    return BoundState(m=m, z=z, z_tilde=z_tilde, energy_ratio=(z / v) ** 2), iterates


def newton_solve(
    m: int,
    z0: WellStrength | float,
    config: SolveConfig = SolveConfig(),
) -> tuple[BoundState, NewtonTrace]:
    """Solve for the m-th root of a well of strength z0.

    Newton on the band's concave residual (see the module docstring), from
    the band midpoint (4m - 1) pi / 4; m must be a band of
    :func:`bracket_for`.  The root is accepted when its residual is within
    config.residual_tol or, where float64 cannot reach that, within the
    rounding floor of the residual.
    """
    v = strength_value(z0)
    bracket_for(m, v)
    state, iterates = _solve_band(m, v, config)
    return state, NewtonTrace(tuple(iterates), converged=True, fallback_bisections=0)


def solve_all(
    z0: WellStrength | float,
    config: SolveConfig = SolveConfig(),
) -> list[BoundState]:
    """All bound states of a well of strength z0, in increasing energy.

    One Newton solve per band; each root lies inside its own band, so the
    returned roots are strictly increasing.
    """
    v = strength_value(z0)
    return [_solve_band(m, v, config)[0] for m in range(1, count_bound_states(v) + 1)]
