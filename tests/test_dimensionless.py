"""Core residuals and the band structure of the eigenvalue equation.

Reference values marked as frozen were computed independently with
mpmath at 50 significant digits and pasted here to 17 digits.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semiwell import (
    BoundState,
    DomainError,
    WellStrength,
    cot,
    count_bound_states,
    newton_solve,
    residual_exact,
    residual_interval,
    solve_all,
    strength_value,
)

# frozen: 3 pi / 4 - 15 sqrt(2) / 2
RESIDUAL_AT_MIDPOINT = -8.2504072276058679
# frozen: sqrt(225 - pi^2 / 4)
RESIDUAL_AT_COT_ZERO = 14.917526567756722
# pi - math.pi, from a 50-digit mpmath value of pi
PI_LO = 1.2246467991473532e-16

EXACT_Z = 3.0 * math.pi / 4.0
EXACT_Z0 = math.sqrt(2.0) * EXACT_Z


class TestWellStrength:
    @pytest.mark.parametrize("bad", [0.0, -1.0, -15.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(DomainError):
            WellStrength(bad)

    def test_strength_value_accepts_both_forms(self):
        assert strength_value(WellStrength(15.0)) == 15.0
        assert strength_value(15.0) == 15.0
        with pytest.raises(DomainError):
            strength_value(-2.0)

    @pytest.mark.parametrize(
        "bad", [0.0, -1.0, math.nan, math.inf, -math.inf, 10**400, "abc"]
    )
    def test_strength_value_rejects_like_the_constructor(self, bad):
        with pytest.raises(DomainError) as from_float:
            strength_value(bad)
        with pytest.raises(DomainError) as from_object:
            WellStrength(bad)
        assert str(from_float.value) == str(from_object.value)
        with pytest.raises(DomainError):
            count_bound_states(bad)
        # the message names the cause; it does not echo 401 digits
        assert len(str(from_float.value)) < 100

    def test_both_entry_points_convert_to_float(self):
        assert type(WellStrength(3).z0) is float and WellStrength(3).z0 == 3.0
        assert WellStrength(3) == WellStrength(3.0)
        assert strength_value(3) == strength_value(WellStrength(3)) == 3.0


class TestBoundState:
    def test_valid_state_constructs(self):
        s = BoundState(m=1, z=2.944, z_tilde=14.708, energy_ratio=0.0385)
        assert s.m == 1

    def test_rejects_z_outside_band(self):
        # 1.0 sits in the first quadrant, below the m=1 band
        with pytest.raises(DomainError):
            BoundState(m=1, z=1.0, z_tilde=14.0, energy_ratio=0.1)
        with pytest.raises(DomainError):
            BoundState(m=2, z=2.944, z_tilde=14.0, energy_ratio=0.1)

    def test_rejects_nonpositive_decay(self):
        with pytest.raises(DomainError):
            BoundState(m=1, z=2.944, z_tilde=0.0, energy_ratio=0.1)
        with pytest.raises(DomainError):
            BoundState(m=1, z=2.944, z_tilde=-3.0, energy_ratio=0.1)

    def test_rejects_unbound_energy_ratio(self):
        with pytest.raises(DomainError):
            BoundState(m=1, z=2.944, z_tilde=14.0, energy_ratio=1.0)
        with pytest.raises(DomainError):
            BoundState(m=0, z=2.944, z_tilde=14.0, energy_ratio=0.1)

    @pytest.mark.parametrize("bad", [-0.1, -5e-324, 1.5, math.nan])
    def test_rejects_energy_ratio_outside_zero_to_one(self, bad):
        with pytest.raises(DomainError, match="E/V0"):
            BoundState(m=1, z=3.0, z_tilde=1e300, energy_ratio=bad)

    @pytest.mark.parametrize("m", [True, 2.0, 0, -1])
    def test_rejects_a_band_index_that_is_not_a_positive_int(self, m):
        with pytest.raises(DomainError) as info:
            BoundState(m, 2.944, 14.708, 0.0385)
        assert str(info.value) == f"interval index must be an int >= 1, got {m!r}"

    def test_accepts_an_underflowed_energy_ratio(self):
        # (z / z0)^2 is 0.0 in float once z0 passes about 1.6e162; the band
        # check on z already certifies E > 0
        assert BoundState(m=1, z=3.0, z_tilde=1e300, energy_ratio=0.0).energy_ratio == 0.0


def test_cot_at_quadrant_points():
    assert cot(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert cot(math.pi / 4) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(DomainError):
        cot(0.0)


def test_residual_exact_vanishes_at_exact_family_root():
    assert abs(residual_exact(EXACT_Z, EXACT_Z0)) < 1e-12


def test_residual_exact_where_cot_vanishes():
    # at z = pi/2 only the circle term survives
    assert residual_exact(math.pi / 2, 15.0) == pytest.approx(
        RESIDUAL_AT_COT_ZERO, rel=1e-14
    )


def test_residual_exact_near_table_root():
    # 5-decimal root of the z0 = 15 well; the residual slope is O(10)
    assert abs(residual_exact(2.94404, 15.0)) < 1e-4


def test_residual_exact_domain_errors():
    with pytest.raises(DomainError):
        residual_exact(0.0, 15.0)
    with pytest.raises(DomainError):
        residual_exact(-1.0, 15.0)
    with pytest.raises(DomainError):
        residual_exact(15.0, 15.0)
    with pytest.raises(DomainError):
        residual_exact(16.0, 15.0)


def test_residual_exact_sign_tracks_cot_near_poles():
    # approaching pi from below: cot -> -inf; from above: cot -> +inf
    assert residual_exact(math.pi - 1e-6, 20.0) < -1e5
    assert residual_exact(math.pi + 1e-6, 20.0) > 1e5


def test_residual_interval_is_exact_at_zero():
    assert residual_interval(0.0, 1, 15.0) == 0.0
    assert residual_interval(0.0, 2, 7.0) == 0.0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("z0", [3.0, 15.0, 40.0])
def test_residual_interval_at_multiples_of_pi(m, z0):
    # sin(m pi) only vanishes to float roundoff, so allow z0-scaled slack
    assert residual_interval(m * math.pi, m, z0) == pytest.approx(
        m * math.pi, abs=1e-13 * z0
    )


def test_residual_interval_frozen_midpoint_value():
    assert residual_interval(3.0 * math.pi / 4.0, 1, 15.0) == pytest.approx(
        RESIDUAL_AT_MIDPOINT, abs=1e-12
    )


def test_residual_interval_vanishes_at_exact_family_root():
    assert abs(residual_interval(EXACT_Z, 1, EXACT_Z0)) < 1e-12


def test_residual_interval_rejects_bad_index():
    with pytest.raises(DomainError):
        residual_interval(1.0, 0, 15.0)


@pytest.mark.parametrize("m", [0, -1, 2.5, 3.0, True, "2", None])
def test_band_index_must_be_a_positive_int(m):
    # one rule wherever a band index enters: a float (even a whole one) or
    # a bool is refused, never rounded or solved as if it were a band
    with pytest.raises(DomainError, match="interval index"):
        residual_interval(3.0, m, 15.0)
    with pytest.raises(DomainError, match="interval index"):
        newton_solve(m, 15.0)
    with pytest.raises(DomainError, match="interval index"):
        BoundState(m=m, z=2.944, z_tilde=14.708, energy_ratio=0.0385)


def _state(m, z):
    # a state of band m at z, with a decay constant and E/V0 that pass
    return BoundState(m=m, z=z, z_tilde=1.0, energy_ratio=0.5)


def test_bound_state_band_membership_on_bands_and_gaps():
    assert _state(1, 2.0).m == 1
    assert _state(2, 6.0).m == 2
    assert _state(1, math.pi).z == math.pi  # right edge belongs to the band
    for m, z in [(1, 1.0), (1, 3.5), (2, 3.5), (1, math.inf), (2, math.nan)]:
        # below the first band, in the gap (pi, 3 pi / 2] or no number
        with pytest.raises(DomainError, match="outside interval"):
            _state(m, z)
    # the float nearest 11 pi lies one ulp above 11 * math.pi
    assert _state(11, 34.55751918948773).m == 11
    # past band 2^52 no band can be placed
    with pytest.raises(DomainError, match="float64's band resolution"):
        _state(2**52 + 1, 1.5e16)


def test_bound_state_admits_the_floats_nearest_the_band_edges():
    # the floats nearest a band's edges belong to it, the floats past them
    # do not; the edges are rounded here from pi to about 1e-32
    pi = Fraction(math.pi) + Fraction(PI_LO)
    rng = random.Random(4)
    for m in [*range(1, 3000), *(rng.randint(1, 2**50) for _ in range(3000))]:
        lo, hi = float((2 * m - 1) * pi / 2), float(m * pi)
        for z in (lo, math.nextafter(lo, math.inf), hi):
            assert _state(m, z).z == z
        for z in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
            with pytest.raises(DomainError, match="outside interval"):
                _state(m, z)


@given(
    z0=st.floats(min_value=1.0, max_value=50.0),
    frac=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
)
@settings(max_examples=200, deadline=None)
def test_positive_cot_forces_positive_residual(z0, frac):
    """Where cot(z) > 0 both residual terms are positive: no root can hide
    outside the bands, which is what makes per-band bracketing exhaustive."""
    z = frac * z0
    assume(abs(math.sin(z)) > 1e-6)
    if cot(z) > 0.0:
        assert residual_exact(z, z0) > 0.0


@pytest.mark.parametrize("z0", [5.0, 15.0, 25.0])
def test_interval_form_agrees_with_exact_form_at_roots(z0):
    """Zeros of the per-band surrogate inside the cot < 0 bands are exactly
    the zeros of the full residual: check every solved root both ways."""
    for state in solve_all(z0):
        assert abs(residual_interval(state.z, state.m, z0)) < 1e-9
        assert cot(state.z) < 0.0
        assert BoundState(*state) == state  # the root lies in band m
        assert abs(residual_exact(state.z, z0)) < 1e-9
