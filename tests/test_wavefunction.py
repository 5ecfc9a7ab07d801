"""Eigenfunction construction, normalization, and continuity.

The frozen amplitude and sample value come from a 50-digit mpmath
evaluation of the closed-form family member n = 0 with a = 1.
"""

from __future__ import annotations

import math

import pytest

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


def test_quadrature_scales_with_squared_amplitude():
    # doubling A quadruples the norm integral; guards against the check
    # silently reusing the closed-form normalization
    state, z0 = family_state(0)
    spec = build_wavefunction(state, z0, a=1.0)
    doubled = spec._replace(
        amplitude=2.0 * spec.amplitude, outside_coeff=2.0 * spec.outside_coeff
    )
    assert quadrature_norm_check(doubled) == pytest.approx(4.0, abs=4e-8)


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
