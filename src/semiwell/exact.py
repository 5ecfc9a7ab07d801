"""The closed-form family of wells with an exactly solvable member.

Whenever sin(2z) = -1 and z_tilde = z, both the eigenvalue equation and
the circle constraint hold with elementary values.  That happens at
z = (4k + 3) pi / 4 with z0 = sqrt(2) z, on band k + 1, where the state
sits exactly halfway up the well, E / V0 = 1/2, and the normalization
integral collapses to a rational expression.  The family coded here is
the odd-band half, k = 2n:

    z_n = (8n + 3) pi / 4,      z0_n = sqrt(2) z_n,      n = 0, 1, 2, ...

on band 2n + 1.  The even-band half, z = (8n + 7) pi / 4 on band 2n + 2,
is not coded, though the solver finds its states too.  In natural units
(hbar = 1, m = 1/2, a = 1) the matching depth is
V0 = (8n + 3)^2 pi^2 / 16.  These members double as an analytic
cross-check of the Newton solver.

Note the index n ranges over wells, not energy levels: each record pairs
one energy with its own specially chosen depth z0_n, so different n are
eigenstates of different wells, never a ladder of levels in a single one.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .dimensionless import _check_int
from .errors import DomainError
from .solver import SolveConfig, newton_solve

_EXACT_FIELDS = "n z z0 z_tilde energy_over_v0 v0_natural amplitude_sq_times_a p_inside"


class ExactSolutionRecord(namedtuple("ExactSolutionRecord", _EXACT_FIELDS)):
    """Closed-form data for family member n.

    amplitude_sq_times_a is A^2 a, the squared normalization constant made
    dimensionless with the well width; p_inside is the probability of
    finding the particle inside [0, a].
    """

    __slots__ = ()


def exact_solution(n: int) -> ExactSolutionRecord:
    """Closed-form record for the n-th exactly solvable well."""
    _check_int("family index", n, 0)
    odd = 8 * n + 3
    # (8n + 3)^2 has a float below 8n + 3 = 6e153, and V0 overflows before that
    v0_natural = odd * odd * math.pi * math.pi / 16.0 if odd < 6e153 else math.inf
    if v0_natural == math.inf:
        raise DomainError("family index must be at most 5.3348e152: V0 overflows")
    z = odd * math.pi / 4.0
    return ExactSolutionRecord(
        n=n,
        z=z,
        z0=math.sqrt(2.0) * z,
        z_tilde=z,
        energy_over_v0=0.5,
        v0_natural=v0_natural,
        amplitude_sq_times_a=2.0 * odd * math.pi / (odd * math.pi + 4.0),
        p_inside=(odd * math.pi + 2.0) / (odd * math.pi + 4.0),
    )


def cross_validate(n: int, config: SolveConfig = SolveConfig()) -> bool:
    """Does the Newton solver reproduce family member n?

    The member lands in band m = 2n + 1: its z sits in the second-quadrant
    part of ((4n + 1) pi / 2, (2n + 1) pi).  So this solves that one band
    at z0 = sqrt(2) (8n + 3) pi / 4 and checks that the root equals
    (8n + 3) pi / 4 to within the solver's root tolerance (plus a few ulps
    at large z).
    """
    record = exact_solution(n)
    tol = 10.0 * config.root_tol + 8.0 * math.ulp(record.z)
    state, _ = newton_solve(2 * n + 1, record.z0, config)
    return abs(state.z - record.z) <= tol
