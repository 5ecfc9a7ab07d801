"""Root counting and the Newton solve of the spectrum in band-edge coordinates.

Band m, from e_m = (2m - 1) pi / 2 to m pi, is placed by the band frames
of :mod:`semiwell.dimensionless`, which refuse a run past band 2^52, where
they cannot be exact.  Band m holds one root when eps_m = z0 - e_m > 0, which
is 0 at a threshold: no float lies strictly between z0 and e_m, and the
grazing intersection z = z0 carries no state.

With delta = z - e_m the residual

    h_m(delta) = eps_m - delta - 2 z0 sin^2(delta / 2) = -(z - z0 |sin z|)

is concave on (-pi/2, pi/2) and falls from eps_m on the band, delta > 0,
with z_tilde = z0 sin(delta).  A root past the band midpoint (E/V0 < 1/2,
h_m > 0 there) is solved in the paper's theta = m pi - z instead, on
theta + z0 sin(theta) - m pi, concave on (0, pi), with
z_tilde = z0 cos(theta).  Neither cancels near a threshold, and on a
concave residual plain Newton from the band midpoint (4m - 1) pi / 4 needs
no bracket.  The same loop finds the crossings of :mod:`semiwell.variants`
between the bands (delta < 0).

Inputs are checked once per public call.  One batch kernel,
:func:`_band_roots`, runs Newton inline on the plain float z0 over a run
of bands and yields each root with its step count: :func:`solve_spectrum`
passes every counted band, :func:`newton_solve` one band, with a list for
the z history, and :mod:`semiwell.variants` its bands and its starts
between them.  A band with eps_m > 0 holds its root within its edges, with
z_tilde > 0 and z < z0, and the kernel refuses an iterate that a loose
root_tol stopped outside them, so the solver builds its states bare.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator

from .dimensionless import (
    BoundState,
    WellStrength,
    _band_frames,
    _band_top,
    _check_int,
    _validated_make,
    strength_value,
)
from .errors import ConvergenceError, DomainError

# h at the band midpoint delta = pi/4 is eps - pi/4 - _MIDPOINT_SAG z0
_MIDPOINT_SAG = 2.0 * math.sin(math.pi / 8.0) ** 2

# the residual |z - z0 |sin z|| an accepted root must reach, above its
# rounding floor
_RESIDUAL_TOL = 1e-9


class SolveConfig(namedtuple("SolveConfig", "root_tol max_newton_iters")):
    """Settings of the Newton solve.

    root_tol is the step-size target relative to the iterate, in the band's
    own coordinate (widened to a few ulps of it below float resolution), and
    max_newton_iters caps the steps of one band.
    """

    __slots__ = ()

    def __new__(cls, root_tol: float = 1e-12, max_newton_iters: int = 50) -> SolveConfig:
        if not (math.isfinite(root_tol) and root_tol > 0.0):
            raise DomainError(f"root_tol must be positive, got {root_tol!r}")
        _check_int("max_newton_iters", max_newton_iters, 1)
        return tuple.__new__(cls, (root_tol, max_newton_iters))

    _make = classmethod(_validated_make)


class Spectrum(namedtuple("Spectrum", "states newton_iters")):
    """A well's list of BoundState, and a list of the Newton steps each took."""

    __slots__ = ()


class NewtonTrace(namedtuple("NewtonTrace", "iterates fallback_bisections")):
    """Iterate history of one root solve in z, from the band midpoint.

    iterates is a tuple of floats; fallback_bisections is always 0: no
    Newton step needs a safeguard.  bench/tracing.py reads both fields, so
    fallback_bisections stays until the tracer counts elsewhere (ROADMAP
    item 1).
    """

    __slots__ = ()


def count_bound_states(z0: WellStrength | float) -> int:
    """Number of bound states held by a well of strength z0.

    The number of bands m with eps_m = z0 - (2m - 1) pi / 2 > 0 in
    :func:`_band_frames`, which is 0 at a threshold: none at and below pi/2.
    The estimate round(z0 / pi) is corrected by the frames of its band and
    the next, placed in one pass.  Above about 1.4e16, where 2m - 1 is no
    longer exact as a float, the count is only as exact as z0 / pi in float.
    """
    v = strength_value(z0)
    n = round(v / math.pi)
    if n >= 2**52:
        return n
    # band 0's eps, z0 + pi/2, is positive: the count never falls below 0
    (_, _, _, here), (_, _, _, past) = _band_frames(n, n + 1, v)
    return n + 1 if past > 0.0 else n if here > 0.0 else n - 1


def _band_roots(
    v: float,
    frames: Iterable[tuple[int, float, float, float]],
    config: SolveConfig,
    trail: list[float] | None = None,
    start: float | None = None,
) -> Iterator[tuple[int, float, float, int]]:
    """(m, z, z_tilde, steps) of the root of each band frame (m, e_hi, e_lo, eps).

    Newton in delta or theta stops when the step drops below root_tol |x|
    or 4 ulps of x, then certifies the residual against _RESIDUAL_TOL
    (widened for a loose root_tol) plus its rounding floor: |slope| ulp(x),
    and a few ulp(z0) from terms up to z0; steps counts its Newton steps.
    trail, if given, receives the iterates in z.  Given start, Newton runs
    in delta from there instead, for a crossing between the bands; z is its
    last iterate, left to the residual check at the cap.
    """
    sin, cos, ulp, pi, inf = math.sin, math.cos, math.ulp, math.pi, math.inf
    root_tol = config.root_tol
    steps = range(config.max_newton_iters + 1)
    residual_cap = max(_RESIDUAL_TOL, 10.0 * root_tol * max(1.0, v))
    ulps_v = 4.0 * ulp(v)
    sag = 0.25 * pi + _MIDPOINT_SAG * v
    for m, hi, lo, eps in frames:
        if start is not None:
            theta, x, s = False, start, 1.0
        else:
            mid = (4 * m - 1) * pi / 4.0
            theta = eps > sag
            if theta:
                # the root lies past the midpoint, nearer m pi = e_m + pi/2
                hi, lo = _band_top(hi, lo)
                x, s = (hi - mid) + lo, -1.0
            else:
                x, s = (mid - hi) - lo, 1.0
            if trail is not None:
                trail.append(mid)
        step = inf
        for i in steps:
            # z_tilde is z0 cos(theta) or z0 sin(delta), taken from the slope
            if theta:
                z_tilde = v * cos(x)
                fx = ((v * sin(x) - hi) + x) - lo
                dfx = 1.0 + z_tilde
            else:
                z_tilde = v * sin(x)
                h = sin(0.5 * x)
                fx = eps - x - 2.0 * v * h * h
                dfx = -1.0 - z_tilde
            if (size := abs(step)) < root_tol * abs(x) or size < 4.0 * ulp(x):
                break
            step = fx / dfx if fx else 0.0
            if x - step == x:
                # no correction, or one below float resolution: x is the root
                break
            x -= step
            if trail is not None:
                trail.append(hi + (lo + s * x))
        else:
            # a crossing's near-double root may never settle: its residual decides
            if start is None:
                raise ConvergenceError(
                    f"no convergence after {config.max_newton_iters} iterations "
                    f"for m={m}, z0={v!r}"
                )
        if abs(fx) > residual_cap + abs(dfx) * ulp(x) + ulps_v:
            raise ConvergenceError(
                f"step size converged but the residual {fx!r} exceeds tolerance "
                f"for m={m}, z0={v!r}"
            )
        if start is not None:
            yield m, hi + (lo + x), z_tilde, i
            continue
        # a band solved with no Newton step reports the float midpoint
        z = mid if i == 0 else hi + (lo + s * x)
        # the iterates never pass the start; a loose root_tol can stop them
        # short of the root, past z0 (delta) or past m pi (theta <= 0)
        if not (x > 0.0 and z <= v):
            raise ConvergenceError(
                f"Newton stopped at z={z!r}, outside the roots of band m={m} for "
                f"z0={v!r}: root_tol={config.root_tol!r} is too loose"
            )
        # E < V0: a root within half an ulp of z0 is reported one ulp below it,
        # which the threshold rule of _band_frames keeps above e_m
        if z == v:
            z = math.nextafter(v, 0.0)
        if trail is not None:
            trail[-1] = z
        yield m, z, z_tilde, i


def newton_solve(
    m: int,
    z0: WellStrength | float,
    config: SolveConfig = SolveConfig(),
) -> tuple[BoundState, NewtonTrace]:
    """Solve for the m-th root of a well of strength z0.

    Newton on the band's concave residual (see the module docstring), from
    the band midpoint (4m - 1) pi / 4.  The root is accepted when its
    residual is within _RESIDUAL_TOL (1e-9) or, where float64 cannot reach
    that, within the rounding floor of the residual.  Raises DomainError
    when band m holds no root for this z0 (z0 lies at or below its left
    edge) or is past float64's band resolution (m > 2^52).
    """
    v = strength_value(z0)
    _check_int("interval index", m, 1)
    # m - 1 < z0 / pi compares exactly, so a huge m never reaches the frame,
    # and the count only words the error
    if not (m - 1 < v / math.pi and (frame := next(_band_frames(m, m, v)))[3] > 0.0):
        raise DomainError(
            f"band m={m} holds no root: z0={v!r} supports "
            f"{count_bound_states(v)} bound state(s)"
        )
    zs: list[float] = []
    [(_, z, z_tilde, _)] = _band_roots(v, (frame,), config, zs)
    state = tuple.__new__(BoundState, (m, z, z_tilde, (z / v) ** 2))
    return state, NewtonTrace(tuple(zs), fallback_bisections=0)


def solve_spectrum(
    z0: WellStrength | float,
    config: SolveConfig = SolveConfig(),
) -> Spectrum:
    """All bound states of a well of strength z0, with their step counts.

    One Newton solve per band; each root lies inside its own band, so the
    returned roots are strictly increasing, each with the steps that
    :func:`newton_solve` takes for it.  A well of more than 2^52 states
    (z0 above about 1.4e16) raises DomainError before any solve.
    """
    v = strength_value(z0)
    n = count_bound_states(v)
    new, states, iters = tuple.__new__, [], []
    for m, z, z_tilde, steps in _band_roots(v, _band_frames(1, n, v), config):
        states.append(new(BoundState, (m, z, z_tilde, (z / v) ** 2)))
        iters.append(steps)
    return new(Spectrum, (states, iters))


def solve_all(
    z0: WellStrength | float, config: SolveConfig = SolveConfig()
) -> list[BoundState]:
    """All bound states of a well of strength z0: :func:`solve_spectrum`'s."""
    return solve_spectrum(z0, config).states
