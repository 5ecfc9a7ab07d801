"""State counting and the Newton solve in band-edge coordinates.

Roots marked frozen come from a 50-digit mpmath solve of
sqrt(z0^2 - z^2) = -z cot(z), rounded to 17 digits.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiwell import (
    BoundState,
    ConvergenceError,
    DomainError,
    SolveConfig,
    Spectrum,
    VariantKind,
    WellStrength,
    build_wavefunction,
    count_bound_states,
    enumerate_intersections,
    newton_solve,
    probability_inside,
    residual_exact,
    residual_interval,
    solve_all,
    solve_spectrum,
)
from semiwell.cli import run
from semiwell.dimensionless import _PI_SPLIT, _band_frames, _band_top

# pi - math.pi, from a 50-digit mpmath value of pi
PI_LO = 1.2246467991473532e-16


def _frame(m, z0):
    # band m's (hi, lo, eps), from a one-band run of the frame generator
    return next(_band_frames(m, m, z0))[1:]


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
        # frozen: the exact count, 50-digit mpmath
        (21 * math.pi / 2 + 1e-11, 11),  # band 11 opens 1e-11 below z0
        (1e15, 318_309_886_183_791),
        (2**52 * math.pi, 2**52),  # the deepest band the frame places
        (math.nextafter(math.pi / 2, 4.0), 0),  # no float between pi/2 and z0
    ],
)
def test_count_bound_states(z0, expected):
    assert count_bound_states(z0) == expected


def test_count_snaps_to_degenerate_threshold():
    z0 = 5 * math.pi / 2
    # about 880 ulp above the threshold: floats lie between it and z0, so the
    # third band holds a state; only the floats next to it are the threshold
    assert count_bound_states(z0 * (1 + 1e-13)) == 3
    assert count_bound_states(z0 * (1 + 1e-9)) == 3
    assert count_bound_states(z0 * (1 - 1e-9)) == 2


def test_count_accepts_strength_object():
    assert count_bound_states(WellStrength(15.0)) == 5


def _one_float_count(z0):
    # band m holds a state when a float z fits between its edge and z0,
    # e_m < z < z0: the number of m with e_m below the float under z0
    pi = Fraction(math.pi) + Fraction(PI_LO)
    return math.floor(Fraction(math.nextafter(z0, 0.0)) / pi + Fraction(1, 2))


@given(z0=st.floats(min_value=0.05, max_value=1e15))
@settings(max_examples=300, deadline=None)
def test_count_is_the_one_float_rule(z0):
    assert count_bound_states(z0) == _one_float_count(z0)


@pytest.mark.parametrize("k", [1, 3, 5, 7, 21, 101, 1001, 2 * 10**6 - 1])
def test_count_is_the_one_float_rule_around_thresholds(k):
    z0 = k * math.pi / 2
    for _ in range(3):
        z0 = math.nextafter(z0, 0.0)
    for _ in range(7):
        assert count_bound_states(z0) == _one_float_count(z0)
        z0 = math.nextafter(z0, math.inf)


def test_count_answers_at_any_depth():
    # z0 / pi is finite where 2 z0 / pi overflows
    n = count_bound_states(sys.float_info.max)
    assert isinstance(n, int) and n > 10**307


def _edges(m):
    # the floats nearest band m's edges, from its frame
    e_hi, e_lo, _ = _frame(m, 0.0)
    return e_hi, sum(_band_top(e_hi, e_lo))


def test_band_edge_floats():
    assert _edges(1) == (math.pi / 2, math.pi)
    assert _edges(5) == (9 * math.pi / 2, 5 * math.pi)


@pytest.mark.parametrize("z0", [2.0, 15.0, 25.0, 40.0])
def test_bracket_endpoints_straddle_the_root(z0):
    # the band residual f(z) = z - z0 |sin z| must change sign across the
    # edges of every band that holds a root
    for m in range(1, count_bound_states(z0) + 1):
        lo, hi = _edges(m)
        assert lo - z0 * abs(math.sin(lo)) < 0.0
        assert hi - z0 * abs(math.sin(hi)) > 0.0


@pytest.mark.parametrize(
    "m,z0,message",
    [
        (6, 15.0, "band m=6 holds no root: z0=15.0 supports 5 bound state"),
        (1, 1.0, "band m=1 holds no root: z0=1.0 supports 0 bound state"),
        # at the threshold z0 = 3 pi / 2 band 2 only grazes the circle
        (2, 3 * math.pi / 2, "band m=2 holds no root: z0=4.71238898038469 supports 1 bound"),
        (0, 15.0, "interval index must be an int >= 1, got 0"),
        # no float holds 2m - 1
        (10**400, 15.0, "holds no root: z0=15.0 supports 5 bound state"),
    ],
)
def test_newton_solve_rejects_empty_bands(m, z0, message):
    with pytest.raises(DomainError, match=message):
        newton_solve(m, z0)


def test_solve_config_validation():
    with pytest.raises(DomainError):
        SolveConfig(root_tol=0.0)
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
        state, _ = newton_solve(1, z0)
        assert state.z == pytest.approx(3.0 * math.pi / 4.0, rel=1e-14)
        assert abs(residual_exact(state.z, z0)) < 1e-12

    def test_final_iterate_residual_below_tolerance(self):
        for m in range(1, 6):
            _, trace = newton_solve(m, 15.0)
            assert abs(residual_interval(trace.iterates[-1], m, 15.0)) < 1e-9

    def test_no_bisection_needed_for_plain_wells(self):
        for m in range(1, 6):
            _, trace = newton_solve(m, 15.0)
            assert trace.fallback_bisections == 0

    def test_trace_is_short(self):
        _, trace = newton_solve(4, 25.0)
        assert len(trace.iterates) <= 8

    def test_respects_iteration_cap_config(self):
        _, trace = newton_solve(2, 25.0, SolveConfig(max_newton_iters=30))
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
    # the state would need a float z strictly between pi/2 and z0
    assert solve_all(math.nextafter(math.pi / 2, 4.0)) == []


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
    # about z0 ulp(z), 6e-6 and 1e-4, far above the solver's residual
    # tolerance of 1e-9
    state, _ = newton_solve(m, z0)
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
    # the documented loop in band-edge coordinates, written out: plain Newton
    # from the band midpoint on h(delta) = eps - delta - 2 z0 sin^2(delta/2),
    # delta = z - e_m, or, where h > 0 at the midpoint delta = pi/4, on
    # theta + z0 sin(theta) - m pi, theta = m pi - z; iterates mapped to z
    sin, cos = math.sin, math.cos
    e_hi, e_lo, _ = _frame(m, z0)
    eps = (z0 - e_hi) - e_lo
    start = (4 * m - 1) * math.pi / 4.0
    if eps - math.pi / 4 - 2.0 * z0 * sin(math.pi / 8) ** 2 > 0.0:
        # m pi = e_m + pi/2, the pair renormalized by Fast2Sum
        p_hi = e_hi + math.pi / 2
        p_lo = ((e_hi - p_hi) + math.pi / 2) + (e_lo + 0.5 * PI_LO)
        x = (p_hi - start) + p_lo

        def r(t):
            return ((z0 * sin(t) - p_hi) + t) - p_lo, 1.0 + z0 * cos(t)

        def to_z(t):
            return p_hi + (p_lo - t)

    else:
        x = (start - e_hi) - e_lo

        def r(d):
            s = sin(0.5 * d)
            return eps - d - 2.0 * z0 * s * s, -1.0 - z0 * sin(d)

        def to_z(d):
            return e_hi + (e_lo + d)

    iterates = [start]
    for _ in range(config.max_newton_iters):
        fx, dfx = r(x)
        if fx == 0.0 or x - fx / dfx == x:
            break
        step = fx / dfx
        x -= step
        iterates.append(to_z(x))
        if abs(step) < max(config.root_tol * abs(x), 4.0 * math.ulp(x)):
            break
    return iterates


@pytest.mark.parametrize(
    "z0,bands",
    [
        (15.0, range(1, 6)),
        (25.0, range(1, 9)),  # m = 1 steps past m pi on the way
        (21 * math.pi / 2 + 1e-7, range(1, 12)),
        (1e4, [1, 2, 3, 1591, 3183]),
        (2e5, [1, 679, 41_749, 63_662]),
    ],
)
def test_trace_iterates_are_those_of_residual_interval(z0, bands):
    # Newton on residual_interval, written in band-edge coordinates (where
    # it is -h): every iterate of the trace, bit for bit, is what the
    # documented loop takes; a reordered float operation in the solver moves
    # some iterate by an ulp and fails this
    for m in bands:
        _, trace = newton_solve(m, z0)
        assert [x.hex() for x in trace.iterates] == [
            x.hex() for x in _replayed_iterates(m, z0)
        ]


@pytest.mark.parametrize("k", [3, 5, 7, 21, 101])
def test_a_root_that_rounds_to_z0_is_reported_one_float_below_it(k):
    # two floats above the threshold k pi / 2 the top band's root rounds to
    # z0, where E = V0; the state, solve_all and the last iterate of the
    # trace all report the float below z0 instead
    z0 = math.nextafter(math.nextafter(k * math.pi / 2, math.inf), math.inf)
    m = (k + 1) // 2
    state, trace = newton_solve(m, z0)
    assert state.z == math.nextafter(z0, 0.0) == trace.iterates[-1]
    assert len(trace.iterates) > 1
    assert solve_all(z0)[-1] == state


def test_band_edges_are_exact_pairs():
    # hi is the float nearest e_m = (2m - 1) pi / 2 and hi + lo carries it
    # to about 1e-32 relative; eps = z0 - e_m, and 0 on the two floats next
    # to e_m (hi is one), where no float lies strictly between z0 and e_m
    pi = Fraction(math.pi) + Fraction(PI_LO)
    ms = list(range(1, 200)) + [500_001, 2**40 + 3, 318_309_886_184, 2**52 - 1]
    for m in ms:
        exact = (2 * m - 1) * pi / 2
        hi, lo, eps = _frame(m, 1e300)
        assert hi == float(exact)
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact * 2**-104
        side = math.inf if Fraction(hi) < exact else -math.inf
        below, above = sorted([hi, math.nextafter(hi, side)])
        assert Fraction(below) < exact < Fraction(above)
        assert _frame(m, below)[2] == 0.0 == _frame(m, above)[2]
        assert _frame(m, hi)[2] == 0.0
        assert _frame(m, math.nextafter(above, math.inf))[2] > 0.0 < eps
        assert sum(_band_top(hi, lo)) == float(m * pi)


# frozen: top state at z0 = k pi / 2 + d, 50-digit mpmath
# (k, d, m, z_tilde, E/V0, P_inside); the top state is that of the band
# whose edge k pi / 2 lies just below z0, which grazes z0
THRESHOLD_TOP_STATES = [
    (3, 1e-11, 2, 4.7123028050072555e-11, 1.0, 4.7123028047951975e-11),
    (3, 1e-09, 2, 4.712388494534388e-09, 1.0, 4.712388473327782e-09),
    (3, 1e-07, 2, 4.7123879746131575e-07, 0.99999999999999, 4.7123858539540676e-07),
    (5, 1e-11, 3, 7.853741824680715e-11, 1.0, 7.853741824073902e-11),
    (5, 1e-09, 3, 7.85397984938497e-09, 1.0, 7.85397978869997e-09),
    (5, 1e-07, 3, 7.853978647704581e-07, 0.99999999999999, 7.853972579211208e-07),
    (7, 1e-11, 4, 1.0994127294248412e-10, 1.0, 1.09941272930497e-10),
    (7, 1e-09, 4, 1.0995570424897688e-08, 1.0, 1.0995570304995119e-08),
    (7, 1e-07, 4, 1.0995568228483006e-06, 0.99999999999999, 1.0995556238244012e-06),
    (21, 1e-11, 11, 3.297955408318027e-10, 1.0, 3.297955407231376e-10),
    (21, 1e-09, 11, 3.2986624035838264e-08, 1.0, 3.298662294872093e-08),
    (21, 1e-07, 11, 3.2986669103954427e-06, 0.99999999999999, 3.2986560392278846e-06),
]


@pytest.mark.parametrize("k,d,m,z_tilde,ratio,p_inside", THRESHOLD_TOP_STATES)
def test_top_state_just_above_a_threshold(k, d, m, z_tilde, ratio, p_inside):
    # z_tilde = z0 sin(delta) keeps its relative precision where
    # sqrt((z0 - z)(z0 + z)) cancelled (1,940 times too large at 3 pi/2 +
    # 1e-11); E/V0 is (z/z0)^2 and may be one ulp of z low, since z < z0
    z0 = k * math.pi / 2 + d
    top = solve_all(z0)[-1]
    assert top.m == m
    assert top.z_tilde == pytest.approx(z_tilde, rel=2e-15)
    assert top.energy_ratio == pytest.approx(ratio, rel=1e-15)
    p = probability_inside(build_wavefunction(top, z0))
    assert p == pytest.approx(p_inside, rel=4e-15)


def test_top_band_of_a_very_deep_well():
    # frozen, 50-digit mpmath: the root sits 1.35e-6 inside the band's left
    # edge, nearer the float of the edge than the next float up; the step
    # tolerance is relative to delta, so z_tilde = z0 sin(delta) keeps
    # delta's full relative precision
    m = 318_309_886_184
    state, _ = newton_solve(m, 1e12)
    assert abs(state.z - 999999999999.0868) <= math.ulp(state.z)
    assert state.z_tilde == pytest.approx(1351421.633862696, rel=1e-15)


@pytest.mark.parametrize("z0", [1e160, 1e300])
def test_ground_state_of_an_extremely_deep_well(z0):
    # the root is pi (1 - 1/z0) to first order, so its float is math.pi;
    # E/V0 = (z / z0)^2 underflows to 0.0 above z0 of about 1.6e162, which
    # the state accepts since its band already certifies E > 0
    state, _ = newton_solve(1, z0)
    assert state.z == math.pi
    assert state.z_tilde == pytest.approx(z0, rel=1e-15)
    assert state.energy_ratio == (math.pi / z0) ** 2
    assert (state.energy_ratio == 0.0) is (z0 == 1e300)


@pytest.mark.parametrize(
    "z0,bands",
    [
        (1e4, None),
        (2e5, None),
        (1e6, 500),
        (1e12, 500),
    ],
)
def test_newton_converges_on_every_band_without_a_bracket(z0, bands):
    # the concave band residual stands in for the bracket: every band
    # converges within the default cap, inside its band, and where the
    # whole spectrum is affordable, as solve_all finds it
    n = count_bound_states(z0)
    ms = range(1, n + 1) if bands is None else [*range(1, bands + 1), *range(n - bands + 1, n + 1)]
    singles = [newton_solve(m, z0)[0] for m in ms]
    for m, state in zip(ms, singles):
        assert state.m == m
        assert state.z_tilde > 0.0
    if bands is None:
        assert repr(solve_all(z0)) == repr(singles)


@pytest.mark.parametrize(
    "z0",
    [
        15.0,
        25.0,
        1e3,
        1e4,
        # closed-form wells: the root of band 2n + 1 sits at the band midpoint,
        # where Newton takes one step
        *(math.sqrt(2.0) * (8 * n + 3) * math.pi / 4.0 for n in range(6)),
        21 * math.pi / 2 + 1e-7,
        # both coordinates: delta for roots below their band's midpoint, theta past it
        2e5,
    ],
)
def test_solve_all_is_newton_solve_band_by_band(z0):
    # solve_all builds its states itself, newton_solve through the band
    # check and the iterate history: the same roots, bit for bit, and
    # solve_spectrum counts the same Newton steps without the history
    states = solve_all(z0)
    solved = [newton_solve(m, z0) for m in range(1, count_bound_states(z0) + 1)]
    assert repr(states) == repr([state for state, _ in solved])
    spectrum = solve_spectrum(z0)
    assert repr(spectrum.states) == repr(states)
    assert spectrum.newton_iters == [len(trace.iterates) - 1 for _, trace in solved]


def test_spectrum_is_a_record_of_the_states_and_their_steps():
    spectrum = solve_spectrum(WellStrength(15.0), SolveConfig())
    assert type(spectrum) is Spectrum and spectrum._fields == ("states", "newton_iters")
    assert len(spectrum.states) == len(spectrum.newton_iters) == 5
    assert all(type(i) is int and i >= 0 for i in spectrum.newton_iters)
    with pytest.raises(AttributeError):
        spectrum.states = []
    assert solve_spectrum(math.pi / 2) == Spectrum([], [])
    # the refusal past 2^52 bands comes before any solve, as in solve_all
    with pytest.raises(DomainError, match="band resolution"):
        solve_spectrum(1e17)


# SHA-256 of every field of solve_all's states, floats as float.hex, one
# state a line as "m z z_tilde energy_ratio", frozen before solve_all and
# newton_solve shared one band kernel: unlike the test above, a bit that
# drifts in both at once still fails here
STATE_DIGESTS = {
    15.0: "169c6e2049838e053d677adc7651ab04c9bdf0086afe7e8deac3bce63720d28e",
    1e4: "7fe1939b03129607bf6d67ed5d0a61a3678bee258530ba9fb0a164bcfd5f3f0c",
    2e5: "714768850dec26c848b439b910c1abbea6e24b6afae9824d9387a9722eaaa70a",
    21 * math.pi / 2 + 1e-7: "c60b39098218d2fdb02e7f2c98e773d5ae247d647d39643b0bb8b292036dfc8c",
}


@pytest.mark.parametrize("z0", list(STATE_DIGESTS))
def test_solve_all_bits_are_frozen(z0):
    text = "\n".join(
        f"{s.m} {s.z.hex()} {s.z_tilde.hex()} {s.energy_ratio.hex()}" for s in solve_all(z0)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == STATE_DIGESTS[z0]


def test_pi_split_is_dekkers():
    # the frame's two-product needs math.pi in halves of 26 bits
    c = 134217729.0 * math.pi
    hi = c - (c - math.pi)
    assert _PI_SPLIT == (hi, math.pi - hi)


# frozen, 50-digit mpmath: low states of very deep wells, (z0, m, z, z_tilde).
# z is the float nearest m pi - theta, theta about m pi / z0, which for these
# bands is the float nearest m pi, one ulp above m * math.pi
DEEP_LOW_STATES = [
    (1e17, 11, 34.55751918948773, 1e17),
    (1e17, 41, 128.80529879718154, 1e17),
    (1e17, 98, 307.87608005179976, 1e17),
    (1e17, 152, 477.5220833456486, 1e17),
    (1e17, 197, 618.8937527571893, 1e17),
    (1e20, 11, 34.55751918948773, 1e20),
    (1e20, 31, 97.3893722612836, 1e20),
    (1e20, 120, 376.9911184307752, 1e20),
    (1e20, 197, 618.8937527571893, 1e20),
    (1e100, 11, 34.55751918948773, 1e100),
    (1e100, 62, 194.7787445225672, 1e100),
    (1e100, 164, 515.2211951887261, 1e100),
]


@pytest.mark.parametrize("z0,m,z,z_tilde", DEEP_LOW_STATES)
def test_low_state_of_a_very_deep_well_at_the_right_edge(z0, m, z, z_tilde):
    # the root rounds to the float nearest the band's right edge, which the
    # edge check reads from the same frame as the solver
    state, trace = newton_solve(m, z0)
    assert state.z == z == trace.iterates[-1]
    assert state.z_tilde == pytest.approx(z_tilde, rel=2e-16)
    assert BoundState(*state) == state
    assert z == float(m * (Fraction(math.pi) + Fraction(PI_LO)))


def test_band_2_52_is_solved():
    # 2m - 1 = 2^53 - 1 is still an exact float, so the frame places band
    # 2^52 and both the solver and BoundState accept its root
    state, _ = newton_solve(2**52, 1.5e16)
    assert state.m == 2**52
    assert BoundState(*state) == state


@pytest.mark.parametrize("z0", [1e17, 1e20])
def test_bands_past_float64_resolution_are_refused(z0):
    # past band 2^52, 2m - 1 has no exact float and the frame cannot place
    # the band; the count keeps its float estimate round(z0 / pi)
    n = count_bound_states(z0)
    assert n == round(z0 / math.pi) > 2**52
    # a run past band 2^52 is refused before its first frame, band 2^52's
    with pytest.raises(DomainError, match=r"band m=4503599627370497 is past"):
        next(_band_frames(2**52, 2**52 + 1, z0))
    for m in (n, n - 1, n // 2):
        with pytest.raises(DomainError, match="float64's band resolution"):
            newton_solve(m, z0)
    # solve_all refuses the well before its loop, not after 2^52 solves
    with pytest.raises(DomainError, match="float64's band resolution"):
        solve_all(z0)
    # and the variant scan at once, from its one run of frames, bands 1..N + 1
    for kind in VariantKind:
        with pytest.raises(DomainError, match="float64's band resolution"):
            enumerate_intersections(kind, z0)
    assert count_bound_states(sys.float_info.max) > 10**307


def _solver_states(z0, cli, capsys):
    # the states of solve_all, of newton_solve on three bands and of CLI solve
    yield from solve_all(z0)
    n = count_bound_states(z0)
    if n:
        yield from (newton_solve(m, z0)[0] for m in {1, (n + 1) // 2, n})
    if cli:
        assert run(["solve", "--z0", repr(z0)]) == 0
        for row in json.loads(capsys.readouterr().out)["results"]["roots"]:
            yield tuple.__new__(BoundState, (row[k] for k in BoundState._fields))


def test_solver_states_pass_the_public_constructor(capsys):
    # the solver builds its states without the constructor's checks, which
    # its band frame has proven; each must still pass them, here on seeded
    # depths log-uniform in [1, 3e4] (CLI solve on every tenth) and on the
    # low bands of deep wells
    rng = random.Random(12)
    checked = 0
    for i in range(300):
        z0 = math.exp(rng.uniform(0.0, math.log(3e4)))
        for state in _solver_states(z0, i % 10 == 0, capsys):
            assert BoundState(*state) == state
            checked += 1
    deep = [(m, z0) for z0 in (1e16, 1e17, 1e20, 1e100, 1e300) for m in range(1, 200)]
    # the top root of 1e12 rounds to the float nearest its band's left edge
    for m, z0 in [*deep, (318_309_886_184, 1e12)]:
        state = newton_solve(m, z0)[0]
        assert BoundState(*state) == state
        checked += 1
    assert checked > 250_000
    # a loose root_tol stops Newton short of the root, past z0 in band 2 of
    # 5.0 and past m pi in band 1 of 100.0: such a stop raises, and every
    # state that a loose root_tol still returns passes the constructor
    loose = SolveConfig(root_tol=10.0)
    for m, z0 in [(2, 5.0), (1, 100.0)]:
        for solve in (lambda: newton_solve(m, z0, loose), lambda: solve_all(z0, loose)):
            with pytest.raises(ConvergenceError, match="root_tol=10.0 is too loose"):
                solve()
    for z0 in [math.exp(rng.uniform(0.0, math.log(300.0))) for _ in range(100)]:
        for root_tol in (1e-6, 1e-3, 0.1, 1.0, 10.0):
            try:
                states = solve_all(z0, SolveConfig(root_tol=root_tol))
            except ConvergenceError:
                continue
            assert all(BoundState(*state) == state for state in states)
