"""State counting and the safeguarded Newton solve.

Roots marked frozen come from a 50-digit mpmath solve of
sqrt(z0^2 - z^2) = -z cot(z), rounded to 17 digits.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiwell import (
    DomainError,
    SolveConfig,
    WellStrength,
    bracket_for,
    count_bound_states,
    newton_solve,
    residual_exact,
    residual_interval,
    residual_interval_derivative,
    solve_all,
)

ROOTS_15 = [
    2.9440408044848854,
    5.8803549979342565,
    8.7980055609485634,
    11.674424811481884,
    14.416907317160316,
]

ROOTS_25 = [
    3.0204776614628805,
    6.0392037695699035,
    9.0541858249044793,
    12.062848024672316,
    15.06138915529965,
    18.043257070702063,
    20.994286425802736,
    23.864494935366601,
]

# frozen Newton iterates, midpoint start, m = 1, z0 = 15
ITERATES_15_1 = [
    3.0670319453067245,
    2.9448601416242359,
    2.9440408672123756,
    2.9440408044848857,
]

# frozen Newton iterates, midpoint start, m = 4, z0 = 25
ITERATES_25_4 = [
    12.096680846451691,
    12.063132204210478,
    12.062848045934534,
]


@pytest.mark.parametrize(
    "z0,expected",
    [
        (0.5, 0),
        (1.0, 0),
        (math.pi / 2, 0),
        (math.pi / 2 + 1e-9, 1),
        (2.0, 1),
        (math.pi, 1),
        (3 * math.pi / 2, 1),  # grazing solution at z = z0 carries no state
        (4.0, 1),
        (5.0, 2),
        (5 * math.pi / 2, 2),
        (7 * math.pi / 2, 3),
        (15.0, 5),
        (25.0, 8),
        (40.0, 13),
        (1e4, 3183),
    ],
)
def test_count_bound_states(z0, expected):
    assert count_bound_states(z0) == expected


def test_count_snaps_to_degenerate_threshold():
    z0 = 5 * math.pi / 2
    assert count_bound_states(z0 * (1 + 1e-13)) == 2  # inside the snap band
    assert count_bound_states(z0 * (1 + 1e-9)) == 3  # outside it
    assert count_bound_states(z0 * (1 - 1e-9)) == 2


def test_count_accepts_strength_object():
    assert count_bound_states(WellStrength(15.0)) == 5


def test_bracket_for_bounds():
    lo, hi = bracket_for(1, 15.0)
    assert lo == math.pi / 2 and hi == math.pi
    lo, hi = bracket_for(5, 15.0)
    assert lo == 9 * math.pi / 2 and hi == 5 * math.pi


@pytest.mark.parametrize("z0", [2.0, 15.0, 25.0, 40.0])
def test_bracket_endpoints_straddle_the_root(z0):
    # the smooth band residual must change sign across every returned bracket
    for m in range(1, count_bound_states(z0) + 1):
        lo, hi = bracket_for(m, z0)
        assert residual_interval(lo, m, z0) < 0.0
        assert residual_interval(hi, m, z0) > 0.0


def test_bracket_for_rejects_empty_bands():
    with pytest.raises(DomainError):
        bracket_for(6, 15.0)  # z0 = 15 holds only five states
    with pytest.raises(DomainError):
        bracket_for(1, 1.0)
    with pytest.raises(DomainError):
        bracket_for(0, 15.0)


def test_solve_config_validation():
    with pytest.raises(DomainError):
        SolveConfig(root_tol=0.0)
    with pytest.raises(DomainError):
        SolveConfig(residual_tol=-1e-9)
    with pytest.raises(DomainError):
        SolveConfig(max_newton_iters=0)


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", True, False])
def test_solve_config_rejects_non_integer_iteration_cap(bad):
    # a float cap used to pass and then fail as a bare TypeError in range()
    with pytest.raises(DomainError, match="max_newton_iters"):
        SolveConfig(max_newton_iters=bad)


class TestNewtonSolve:
    def test_starts_at_band_midpoint(self):
        _, trace = newton_solve(1, 15.0)
        assert trace.iterates[0] == 3 * math.pi / 4
        _, trace = newton_solve(4, 25.0)
        assert trace.iterates[0] == 15 * math.pi / 4

    def test_iterates_match_frozen_sequence_15(self):
        _, trace = newton_solve(1, 15.0)
        for got, want in zip(trace.iterates[1:], ITERATES_15_1):
            assert got == pytest.approx(want, abs=1e-9)

    def test_iterates_match_frozen_sequence_25(self):
        _, trace = newton_solve(4, 25.0)
        for got, want in zip(trace.iterates[1:], ITERATES_25_4):
            assert got == pytest.approx(want, abs=1e-9)

    def test_quadratic_convergence_tail(self):
        # error falls from ~8e-4 to ~6e-8 in one step near the root
        _, trace = newton_solve(1, 15.0)
        assert abs(trace.iterates[2] - ROOTS_15[0]) < 1e-3
        assert abs(trace.iterates[3] - ROOTS_15[0]) < 1e-6

    def test_lands_on_closed_form_root(self):
        # z0 = 3*sqrt(2)*pi/4 puts the ground state exactly at z = 3*pi/4
        z0 = 3.0 * math.sqrt(2.0) * math.pi / 4.0
        state, trace = newton_solve(1, z0)
        assert trace.converged
        assert state.z == pytest.approx(3.0 * math.pi / 4.0, rel=1e-14)
        assert abs(residual_exact(state.z, z0)) < 1e-12

    def test_final_iterate_residual_below_tolerance(self):
        for m in range(1, 6):
            _, trace = newton_solve(m, 15.0)
            assert trace.converged
            assert abs(residual_interval(trace.iterates[-1], m, 15.0)) < 1e-9

    def test_no_bisection_needed_for_plain_wells(self):
        for m in range(1, 6):
            _, trace = newton_solve(m, 15.0)
            assert trace.converged
            assert trace.fallback_bisections == 0

    def test_trace_is_short(self):
        _, trace = newton_solve(4, 25.0)
        assert len(trace.iterates) <= 8

    def test_respects_iteration_cap_config(self):
        state, trace = newton_solve(2, 25.0, SolveConfig(max_newton_iters=30))
        assert trace.converged
        assert len(trace.iterates) <= 31

    def test_rejects_band_without_root(self):
        with pytest.raises(DomainError):
            newton_solve(9, 25.0)


def test_solve_all_z0_15_matches_frozen_roots():
    states = solve_all(15.0)
    assert [s.m for s in states] == [1, 2, 3, 4, 5]
    for state, want in zip(states, ROOTS_15):
        assert state.z == pytest.approx(want, abs=1e-10)


def test_solve_all_z0_25_matches_frozen_roots():
    states = solve_all(25.0)
    assert len(states) == 8
    for state, want in zip(states, ROOTS_25):
        assert state.z == pytest.approx(want, abs=1e-10)


def test_solve_all_empty_below_critical_strength():
    assert solve_all(1.0) == []
    assert solve_all(math.pi / 2) == []


@pytest.mark.parametrize("z0", [5.0, 15.0, 25.0, 40.0])
def test_solve_all_residuals_and_ordering(z0):
    states = solve_all(z0)
    assert len(states) == count_bound_states(z0)
    previous = 0.0
    for state in states:
        assert abs(residual_exact(state.z, z0)) < 1e-9
        assert previous < state.z < z0
        previous = state.z


def test_solve_all_just_above_degenerate_threshold():
    """The third root here is closer to z0 than one float ulp; the solver
    must still return a valid state with a positive decay constant."""
    z0 = 5 * math.pi / 2 * (1 + 1e-11)
    states = solve_all(z0)
    assert len(states) == 3
    top = states[-1]
    assert 0.0 < top.z_tilde
    assert top.z < z0
    assert 0.0 < top.energy_ratio < 1.0


@given(z0=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=150, deadline=None)
def test_spectrum_invariants_hold_across_strengths(z0):
    states = solve_all(z0)
    assert len(states) == count_bound_states(z0)
    previous = 0.0
    for state in states:
        lo = (2 * state.m - 1) * math.pi / 2
        hi = state.m * math.pi
        assert lo < state.z < hi
        assert previous < state.z
        previous = state.z
        # circle constraint, relative to z0^2
        assert abs(state.z**2 + state.z_tilde**2 - z0**2) <= 1e-9 * z0**2
        assert math.isclose(state.energy_ratio, (state.z / z0) ** 2, rel_tol=1e-12)


@pytest.mark.parametrize("m,z0", [(41_749, 2e5), (200_001, 1e6)])
def test_deep_roots_are_certified_at_the_rounding_floor(m, z0):
    # |f'| ~ z0 here, so even the float nearest the root leaves |f| of
    # about z0 ulp(z), 6e-6 and 1e-4, far above residual_tol
    state, trace = newton_solve(m, z0)
    assert trace.converged
    step = 2.0 * math.ulp(state.z)
    assert residual_interval(state.z - step, m, z0) < 0.0
    assert residual_interval(state.z + step, m, z0) > 0.0


def test_deep_well_approaches_infinite_well_levels():
    # at z0 = 1e4 the low roots sit just below m pi, within m pi / z0 of it
    for m in range(1, 11):
        state, _ = newton_solve(m, 1e4)
        gap = m * math.pi - state.z
        assert 0.0 < gap < m * math.pi / 1e4


def _replayed_iterates(m, z0, config=SolveConfig()):
    # the documented safeguarded Newton loop, written out on the public
    # residual_interval and its derivative: the reference for the solver's
    # inline f and f'
    lo, hi = bracket_for(m, z0)
    z = (4 * m - 1) * math.pi / 4.0
    iterates = [z]
    for _ in range(config.max_newton_iters):
        fz = residual_interval(z, m, z0)
        if fz == 0.0:
            break
        if fz < 0.0:
            lo = z
        else:
            hi = z
        dfz = residual_interval_derivative(z, m, z0)
        if abs(dfz) < 1e-14:
            candidate = 0.5 * (lo + hi)
        else:
            candidate = z - fz / dfz
            if candidate == z:
                break
            if not lo < candidate < hi:
                candidate = 0.5 * (lo + hi)
        iterates.append(candidate)
        step = abs(candidate - z)
        z = candidate
        if step < max(config.root_tol, 4.0 * math.ulp(z)):
            break
    return iterates


@pytest.mark.parametrize(
    "z0,bands",
    [
        (15.0, range(1, 6)),
        (25.0, range(1, 9)),
        (21 * math.pi / 2 + 1e-7, range(1, 12)),  # m = 1 takes a bisection
        (1e4, [1, 2, 3, 1591, 3183]),  # fallback bisections on the low bands
        (2e5, [1, 679, 41_749, 63_662]),  # 679: one ulp of f/f' shows here
    ],
)
def test_trace_iterates_are_those_of_residual_interval(z0, bands):
    # every iterate of the trace, bit for bit, is what Newton on the public
    # residual_interval takes; a reordered float operation in the solver
    # moves some iterate by an ulp and fails this
    for m in bands:
        _, trace = newton_solve(m, z0)
        assert [x.hex() for x in trace.iterates] == [
            x.hex() for x in _replayed_iterates(m, z0)
        ]


@pytest.mark.parametrize("z0", [15.0, 25.0, 1e3, 1e4])
def test_solve_all_is_newton_solve_band_by_band(z0):
    states = solve_all(z0)
    singles = [newton_solve(m, z0)[0] for m in range(1, count_bound_states(z0) + 1)]
    assert repr(states) == repr(singles)
