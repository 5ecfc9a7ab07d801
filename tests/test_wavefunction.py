"""Eigenfunction construction, normalization, and continuity.

The frozen amplitude and sample value come from a 50-digit mpmath
evaluation of the closed-form family member n = 0 with a = 1, and the
frozen deep states from 60-digit mpmath roots.
"""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semiwell import (
    BoundState,
    DomainError,
    build_wavefunction,
    count_bound_states,
    evaluate,
    exact_solution,
    newton_solve,
    probability_inside,
    quadrature_norm_check,
    solve_all,
)

AMPLITUDE_N0 = 1.1849417615726495  # A for n = 0, a = 1
PSI_AT_WALL_N0 = 0.83788035491915366  # psi(a) = A sin(3 pi / 4)


def family_state(n: int) -> tuple[BoundState, float]:
    rec = exact_solution(n)
    return (
        BoundState(m=2 * n + 1, z=rec.z, z_tilde=rec.z_tilde, energy_ratio=0.5),
        rec.z0,
    )


def test_amplitude_frozen_value():
    state, z0 = family_state(0)
    spec = build_wavefunction(state, z0, a=1.0)
    assert spec.amplitude == pytest.approx(AMPLITUDE_N0, rel=1e-12)


@pytest.mark.parametrize("n", range(0, 6))
def test_amplitude_matches_family_closed_form(n):
    state, z0 = family_state(n)
    rec = exact_solution(n)
    for a in (1.0, 0.37):
        spec = build_wavefunction(state, z0, a=a)
        assert spec.amplitude == pytest.approx(
            math.sqrt(rec.amplitude_sq_times_a / a), rel=1e-12
        )


def test_amplitude_scales_as_inverse_sqrt_width():
    state, z0 = family_state(0)
    a1 = build_wavefunction(state, z0, a=1.0).amplitude
    a2 = build_wavefunction(state, z0, a=2.0).amplitude
    assert a2 == pytest.approx(a1 / math.sqrt(2.0), rel=1e-13)


def test_evaluate_fixed_points():
    state, z0 = family_state(0)
    spec = build_wavefunction(state, z0, a=1.0)
    assert evaluate(spec, 0.0) == 0.0  # hard wall
    assert evaluate(spec, 1.0) == pytest.approx(PSI_AT_WALL_N0, rel=1e-12)
    with pytest.raises(DomainError):
        evaluate(spec, -0.1)


def test_tail_is_a_clean_exponential():
    state, z0 = family_state(0)
    spec = build_wavefunction(state, z0, a=1.0)
    x = spec.a + 10.0 / spec.k_tilde
    assert evaluate(spec, x) == pytest.approx(
        spec.outside_coeff * math.exp(-10.0), rel=1e-12
    )


def test_outside_coefficient_sign_follows_sin():
    # even-m states end the interior piece on a falling sine: psi(a) < 0
    states = solve_all(15.0)
    for state in states:
        spec = build_wavefunction(state, 15.0, a=1.0)
        assert spec.amplitude > 0.0
        expected_sign = 1.0 if state.m % 2 else -1.0
        assert math.copysign(1.0, spec.outside_coeff) == expected_sign


def test_build_rejects_mismatched_strength():
    state = solve_all(15.0)[0]
    with pytest.raises(DomainError):
        build_wavefunction(state, 25.0)


def test_build_rejects_a_negative_decay_constant_on_the_circle():
    # BoundState itself refuses z_tilde <= 0, so the state is built bare:
    # it sits on the circle, and only the decay constant's sign is wrong; a
    # zero one, at the circle's end z = z0, would divide the norm
    # a (1 + z_tilde) / (2 z_tilde) by zero
    m, z, z_tilde, ratio = newton_solve(2, 15.0)[0]
    for bare in ((m, z, -z_tilde, ratio), (5, 15.0, 0.0, 1.0), (5, 15.0, -0.0, 1.0)):
        state = tuple.__new__(BoundState, bare)
        with pytest.raises(DomainError, match="not normalizable"):
            build_wavefunction(state, 15.0)


def test_circle_check_holds_where_z0_squared_overflows():
    # z0^2 is inf above about 1.34e154, where z^2 + z_tilde^2 - z0^2 would be
    # nan and let any state through; the check compares radii instead
    state, _ = newton_solve(1, 1e160)
    assert build_wavefunction(state, 1e160).k_tilde == pytest.approx(1e160, rel=1e-15)
    with pytest.raises(DomainError, match="does not belong"):
        build_wavefunction(state, 1e200)
    with pytest.raises(DomainError, match="does not belong"):
        build_wavefunction(state, 1e160 * (1.0 + 2e-6))
    # within the slack of 1e-6 of z0^2 on the squared radius
    build_wavefunction(state, 1e160 * (1.0 + 4e-7))


def test_build_rejects_bad_width():
    state, z0 = family_state(0)
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(DomainError):
            build_wavefunction(state, z0, a=bad)
    # widths so small that k = z / a or kappa = z_tilde / a overflows: both do
    # at 1e-308 and at 5e-324, where the norm would divide by 0.0; for band 1
    # of z0 = 15 at 2^-1022 only kappa does
    band_1 = newton_solve(1, 15.0)[0]
    assert band_1.z / 2.0**-1022 < math.inf and band_1.z_tilde / 2.0**-1022 == math.inf
    cases = [(state, z0, 1e-308), (state, z0, 5e-324)]
    cases += [(band_1, 15.0, bad) for bad in (1e-308, 2.0**-1022, 5e-324)]
    for member, strength, bad in cases:
        with pytest.raises(DomainError, match=f"well width {bad!r} is too small"):
            build_wavefunction(member, strength, a=bad)
    # widths so large that the norm I1 + I2 overflows, where 1 / sqrt(inf)
    # would give an all-zero eigenfunction: I2 = a sin^2 z / (2 z_tilde) grows
    # fastest near threshold, where z_tilde is small
    shallow = newton_solve(1, 1.6)[0]
    near_threshold = math.pi / 2 + 1e-10
    cases = [(shallow, 1.6, 5e307), (shallow, 1.6, 1.7e308)]
    cases += [(newton_solve(1, near_threshold)[0], near_threshold, 1e300)]
    for member, strength, bad in cases:
        with pytest.raises(DomainError, match=re.escape(f"well width {bad!r} is too large")):
            build_wavefunction(member, strength, a=bad)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    z0=st.floats(min_value=math.pi / 2, max_value=1e3, exclude_min=True),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    a=st.floats(min_value=-324.0, max_value=308.25).map(lambda e: 10.0**e),
)
@example(z0=1.6, frac=0.0, a=5e307)
@example(z0=math.pi / 2 + 1e-10, frac=0.0, a=1e300)
def test_any_width_gives_a_normalized_state_or_a_refusal(z0, frac, a):
    # a width log-uniform over the positive floats (10^-324 is 0.0): the state
    # of any band is refused or has a positive amplitude and a probability
    # inside in (0, 1]
    n = count_bound_states(z0)
    assume(n >= 1)  # the float just above pi/2 is a threshold
    state = newton_solve(1 + int(frac * n), z0)[0]
    try:
        spec = build_wavefunction(state, z0, a=a)
    except DomainError:
        return
    assert spec.amplitude > 0.0
    assert 0.0 < probability_inside(spec) <= 1.0


@pytest.mark.parametrize("z0", [15.0, 25.0])
def test_quadrature_norm_of_solved_states(z0):
    for state in solve_all(z0):
        spec = build_wavefunction(state, z0, a=1.0)
        assert abs(quadrature_norm_check(spec) - 1.0) < 1e-8


@pytest.mark.parametrize("n", range(0, 6))
def test_quadrature_norm_of_family_members(n):
    state, z0 = family_state(n)
    spec = build_wavefunction(state, z0, a=1.0)
    assert abs(quadrature_norm_check(spec) - 1.0) < 1e-8


def test_quadrature_norm_of_deep_states():
    # thousands of oscillations inside the well: the first, middle and top
    # of the 3,183 states at z0 = 1e4 still integrate to 1 at float64 level
    z0 = 1e4
    n = count_bound_states(z0)
    for m in (1, (n + 1) // 2, n):
        state, _ = newton_solve(m, z0)
        spec = build_wavefunction(state, z0, a=1.0)
        assert abs(quadrature_norm_check(spec) - 1.0) < 1e-12
    # and shallow states at widths near both ends of float64, where psi^2 is
    # about 1 / a and 32 k, 8 psi^2 and 2 kappa would pass float64 unscaled;
    # a width whose k overflows is refused by build_wavefunction
    for m, strength in ((1, 15.0), (5, 15.0), (1, 1.6), (8, 25.0)):
        state, _ = newton_solve(m, strength)
        for a in (1e-306, 2e-307, 1e-307, 1e307):
            if state.z / a < math.inf:
                spec = build_wavefunction(state, strength, a=a)
                assert abs(quadrature_norm_check(spec) - 1.0) < 1e-12


def test_quadrature_scales_with_squared_amplitude():
    # doubling A quadruples the norm integral; guards against the check
    # silently reusing the closed-form normalization
    state, z0 = family_state(0)
    spec = build_wavefunction(state, z0, a=1.0)
    doubled = spec._replace(
        amplitude=2.0 * spec.amplitude, outside_coeff=2.0 * spec.outside_coeff
    )
    assert quadrature_norm_check(doubled) == pytest.approx(4.0, abs=4e-8)


# A, B and P_inside of bands 1, N // 2 and N of deep wells at a = 1, from a
# 60-digit mpmath root of the float z0 and the unreduced integrals
# I1 = (a / 4z)(2z - sin 2z) and I2 = a sin^2 z / (2 z_tilde): A = 1 / sqrt(I1 + I2),
# B = A sin z, P_inside = A^2 I1
DEEP_STATES = [
    (1e4, 1, 1.41414285699434713855, 0.0004442216588993717464, 0.999999999990133355401),
    (1e4, 1591, 1.41413193202209450517, 0.706747867328918399958, 0.999971166106983098517),
    (1e4, 3183, 1.41056344398725989903, 1.41030078556941644191, 0.994846534527404128562),
    (1e8, 1, 1.41421355530202728997, 4.44288287151512300768e-8, 1.0),
    (1e8, 15915494, 1.41421355420812939161, -0.707106755962331131201, 0.999999997113248888777),
    (1e8, 31830989, 1.41413157061505383355, 1.41413156535713484101, 0.999884049505961730501),
    (1e12, 1, 1.41421356237238794202, 4.44288293815170192261e-12, 1.0),
    (1e12, 159154943092, 1.41421356237227855222, -0.707106781185863806547, 0.999999999999711324865),
    (1e12, 318309886184, 1.41421303914158014264, -1.41421303914028872542, 0.99999926003903224565),
]


@pytest.mark.parametrize("z0,m,amplitude,outside_coeff,p_inside", DEEP_STATES)
def test_deep_states_match_frozen_mpmath_values(z0, m, amplitude, outside_coeff, p_inside):
    # the root's own z_tilde and radius keep all three within 4e-16 at every
    # depth, band N of 1e12 included, where z_tilde itself is within 7e-17
    assert m in (1, count_bound_states(z0) // 2, count_bound_states(z0))
    spec = build_wavefunction(newton_solve(m, z0)[0], z0)
    assert spec.amplitude == pytest.approx(amplitude, rel=4e-16, abs=0.0)
    assert spec.outside_coeff == pytest.approx(outside_coeff, rel=4e-16, abs=0.0)
    assert probability_inside(spec) == pytest.approx(p_inside, rel=4e-16, abs=0.0)


def test_probability_inside_family_values():
    for n in (0, 1, 5):
        state, z0 = family_state(n)
        spec = build_wavefunction(state, z0, a=1.0)
        assert probability_inside(spec) == pytest.approx(
            exact_solution(n).p_inside, rel=1e-12
        )


def test_probability_inside_plus_tail_is_one():
    for state in solve_all(25.0):
        spec = build_wavefunction(state, 25.0, a=1.0)
        tail = spec.outside_coeff**2 / (2.0 * spec.k_tilde)
        assert probability_inside(spec) + tail == pytest.approx(1.0, abs=1e-12)


def test_deep_state_stays_mostly_inside():
    # the ground state of a deep well barely leaks: P -> 1 as z0 grows
    state = solve_all(40.0)[0]
    spec = build_wavefunction(state, 40.0, a=1.0)
    assert probability_inside(spec) > 0.98


@pytest.mark.parametrize("z0", [15.0, 25.0])
def test_continuity_at_the_step(z0):
    eps = 1e-9
    for state in solve_all(z0):
        spec = build_wavefunction(state, z0, a=1.0)
        at_wall = evaluate(spec, spec.a)
        jump = abs(evaluate(spec, spec.a - eps) - evaluate(spec, spec.a + eps))
        assert jump <= 1e-6 * abs(at_wall)


@pytest.mark.parametrize("z0", [15.0, 25.0])
def test_derivative_continuity_at_the_step(z0):
    """Slopes match across x = a only because (z, z_tilde) solves the
    eigenvalue equation; estimate each one-sided slope with a 3-point
    stencil (second order, so the psi'' jump at a does not pollute it)
    and compare against the analytic forms and each other."""
    h = 1e-5
    for state in solve_all(z0):
        spec = build_wavefunction(state, z0, a=1.0)
        a = spec.a
        slope_below = (
            3 * evaluate(spec, a) - 4 * evaluate(spec, a - h) + evaluate(spec, a - 2 * h)
        ) / (2 * h)
        slope_above = (
            -3 * evaluate(spec, a) + 4 * evaluate(spec, a + h) - evaluate(spec, a + 2 * h)
        ) / (2 * h)
        inside_slope = spec.amplitude * spec.k * math.cos(state.z)
        outside_slope = -spec.k_tilde * spec.outside_coeff
        assert slope_below == pytest.approx(slope_above, rel=1e-4)
        assert slope_below == pytest.approx(inside_slope, rel=1e-4)
        assert slope_above == pytest.approx(outside_slope, rel=1e-4)
        assert inside_slope == pytest.approx(outside_slope, rel=1e-9)


def test_interior_node_count_is_m_minus_one():
    z0 = 15.0
    for state in solve_all(z0):
        spec = build_wavefunction(state, z0, a=1.0)
        xs = [i / 4096 for i in range(1, 4096)]  # interior grid, wall excluded
        values = [evaluate(spec, x) for x in xs]
        crossings = sum(
            1 for u, w in zip(values, values[1:]) if (u < 0.0) != (w < 0.0)
        )
        assert crossings == state.m - 1
