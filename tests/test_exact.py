"""The closed-form family of wells and its solver cross-check.

Frozen probabilities were evaluated with mpmath at 50 digits from
p = ((8n+3) pi + 2) / ((8n+3) pi + 4).
"""

from __future__ import annotations

import math

import pytest

from semiwell import (
    DomainError,
    bracket_for,
    count_bound_states,
    cross_validate,
    exact_solution,
    residual_exact,
    solve_all,
)

P_INSIDE_FROZEN = {
    0: 0.85102174457972345,
    10: 0.99244576598921842,
    100: 0.99920845336999159,
}


def test_member_zero_geometry():
    rec = exact_solution(0)
    assert rec.n == 0
    assert rec.z == pytest.approx(3 * math.pi / 4, rel=1e-15)
    assert rec.z0 == pytest.approx(math.sqrt(2) * rec.z, rel=1e-15)
    assert rec.z_tilde == rec.z  # the circle point sits on the diagonal


@pytest.mark.parametrize("n", range(0, 101, 10))
def test_energy_sits_exactly_halfway_up(n):
    assert exact_solution(n).energy_over_v0 == 0.5


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 5 * 10**152])
def test_natural_depth_is_z_squared(n):
    # with hbar = 1, m = 1/2, a = 1: V0 = z0^2 / 2 = z^2
    rec = exact_solution(n)
    assert rec.v0_natural == pytest.approx(rec.z**2, rel=1e-14)
    assert rec.v0_natural == pytest.approx((8 * n + 3) ** 2 * math.pi**2 / 16, rel=1e-15)


@pytest.mark.parametrize("n,want", sorted(P_INSIDE_FROZEN.items()))
def test_probability_inside_frozen_values(n, want):
    assert exact_solution(n).p_inside == pytest.approx(want, rel=1e-12)


def test_probability_inside_three_decimal_checkpoints():
    assert exact_solution(0).p_inside == pytest.approx(0.851, abs=5e-4)
    assert exact_solution(10).p_inside == pytest.approx(0.992, abs=5e-4)
    assert exact_solution(100).p_inside == pytest.approx(0.999, abs=5e-4)


def test_probability_increases_toward_one():
    values = [exact_solution(n).p_inside for n in range(0, 30)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 1.0 for v in values)


@pytest.mark.parametrize("n", [0, 1, 10, 100, 1000, 10**5, 10**6])
def test_leakage_bound(n):
    # 1 - p = 2 / ((8n+3) pi + 4) < 2 / ((8n+3) pi)
    rec = exact_solution(n)
    assert 1.0 - rec.p_inside < 2.0 / ((8 * n + 3) * math.pi)


@pytest.mark.parametrize("n", range(0, 51, 5))
def test_double_angle_closure(n):
    # sin(2z) = -1 is what collapses the normalization integral
    rec = exact_solution(n)
    assert abs(math.sin(2.0 * rec.z) + 1.0) < 1e-9


def test_amplitude_closed_form():
    rec = exact_solution(0)
    odd_pi = 3 * math.pi
    assert rec.amplitude_sq_times_a == pytest.approx(
        2 * odd_pi / (odd_pi + 4), rel=1e-15
    )


def test_family_root_solves_the_full_equation():
    for n in range(0, 6):
        rec = exact_solution(n)
        assert abs(residual_exact(rec.z, rec.z0)) < 1e-10


@pytest.mark.parametrize("n", range(0, 11))
def test_member_lands_in_band_2n_plus_1(n):
    rec = exact_solution(n)
    m = 2 * n + 1
    assert m <= count_bound_states(rec.z0)
    lo, hi = bracket_for(m, rec.z0)
    assert lo < rec.z < hi


def test_rejects_negative_index():
    with pytest.raises(DomainError):
        exact_solution(-1)


@pytest.mark.parametrize(
    "n", [2.5, 1.5, 2.0, True, False, "1", 6 * 10**152, 10**160, 10**300]
)
def test_family_index_must_be_an_int(n):
    # 2.5 and True used to come back as records with n = 2.5 and n = True,
    # and cross_validate(1.5) failed on a band index of 4.0; past n of about
    # 5.3348e152 V0 overflowed to inf, and past about 1.7e153 the float
    # conversion of (8n + 3)^2 raised OverflowError
    with pytest.raises(DomainError, match="family index"):
        exact_solution(n)
    with pytest.raises(DomainError, match="family index"):
        cross_validate(n)


@pytest.mark.parametrize("n", [*range(0, 11), 10**6])
def test_cross_validate_against_newton_solver(n):
    assert cross_validate(n)


def test_cross_validated_member_is_the_expected_state():
    # not only present in the spectrum but at position 2n + 1 of it
    for n in (0, 2, 4):
        rec = exact_solution(n)
        states = solve_all(rec.z0)
        match = min(states, key=lambda s: abs(s.z - rec.z))
        assert match.m == 2 * n + 1
        assert match.energy_ratio == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", range(0, 4))
def test_even_band_half_of_the_family_solves_too(n):
    # sin 2z = -1 with z_tilde = z also holds at z = (8n + 7) pi / 4, on
    # band 2n + 2, the half exact_solution does not code
    z = (8 * n + 7) * math.pi / 4.0
    state = solve_all(math.sqrt(2.0) * z)[2 * n + 1]
    assert state.m == 2 * n + 2
    assert abs(state.z - z) <= math.ulp(z)
