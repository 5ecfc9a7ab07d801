"""Physical-unit conversions.

SI reference numbers frozen from a 50-digit evaluation with the CODATA
constants used by the module.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiwell import (
    ELECTRON_MASS_SI,
    EV_SI,
    DomainError,
    PhysicalWell,
    count_bound_states,
    critical_depth,
    energy_from_z,
    strength_from_physical,
)

# z0 for an electron in a 1 nm wide, 1 eV deep well
Z0_ELECTRON_1NM_1EV = 5.1231672228139935
# critical depth for an electron at a = 0.1 nm, in joules
VC_ELECTRON_01NM = 1.5061668487136782e-18


def natural_well(depth: float) -> PhysicalWell:
    # hbar = 1 and m = 1/2 make z0 = sqrt(depth) * a
    return PhysicalWell(mass=0.5, width_a=1.0, depth_v0=depth, hbar=1.0)


def test_physical_well_validation():
    with pytest.raises(DomainError):
        PhysicalWell(mass=0.0, width_a=1.0, depth_v0=1.0)
    with pytest.raises(DomainError):
        PhysicalWell(mass=1.0, width_a=-1.0, depth_v0=1.0)
    with pytest.raises(DomainError):
        PhysicalWell(mass=1.0, width_a=1.0, depth_v0=math.nan)
    with pytest.raises(DomainError):
        PhysicalWell(mass=1.0, width_a=1.0, depth_v0=1.0, hbar=0.0)


def test_natural_units_strength():
    assert strength_from_physical(natural_well(225.0)).z0 == 15.0
    assert strength_from_physical(natural_well(625.0)).z0 == 25.0


def test_electron_well_strength():
    well = PhysicalWell(mass=ELECTRON_MASS_SI, width_a=1e-9, depth_v0=EV_SI)
    assert strength_from_physical(well).z0 == pytest.approx(
        Z0_ELECTRON_1NM_1EV, rel=1e-12
    )


def test_strength_overflow_guard():
    with pytest.raises(DomainError):
        strength_from_physical(
            PhysicalWell(mass=1e200, width_a=1e10, depth_v0=1e200, hbar=1e-34)
        )


def test_energy_from_z_natural_units():
    # E = z^2 for hbar = 1, m = 1/2, a = 1
    well = natural_well(225.0)
    assert energy_from_z(math.pi, well) == pytest.approx(math.pi**2, rel=1e-15)
    assert energy_from_z(2.94404, well) / 225.0 == pytest.approx(
        0.038521651207111111, rel=1e-13
    )


def test_energy_of_family_member_is_half_depth():
    z = 3 * math.pi / 4
    well = natural_well(2 * z * z)  # depth chosen so z0 = sqrt(2) z
    assert energy_from_z(z, well) / well.depth_v0 == pytest.approx(0.5, rel=1e-14)


def test_energy_from_z_domain():
    well = natural_well(225.0)
    with pytest.raises(DomainError):
        energy_from_z(0.0, well)
    with pytest.raises(DomainError):
        energy_from_z(15.0, well)  # z = z0 is the continuum edge
    with pytest.raises(DomainError):
        energy_from_z(16.0, well)


def test_critical_depth_natural_units():
    assert critical_depth(0.5, 1.0, hbar=1.0) == pytest.approx(
        math.pi**2 / 4.0, rel=1e-15
    )


def test_critical_depth_electron():
    vc = critical_depth(ELECTRON_MASS_SI, 1e-10)
    assert vc == pytest.approx(VC_ELECTRON_01NM, rel=1e-12)
    assert vc / EV_SI == pytest.approx(9.4007540538983931, rel=1e-12)


def test_critical_depth_scales_inverse_square_width():
    v1 = critical_depth(0.5, 1.0, hbar=1.0)
    v2 = critical_depth(0.5, 2.0, hbar=1.0)
    assert v2 == pytest.approx(v1 / 4.0, rel=1e-15)
    with pytest.raises(DomainError):
        critical_depth(0.0, 1.0)


@pytest.mark.parametrize("factor,expected_states", [(0.5, 0), (0.999, 0), (1.2, 1)])
def test_critical_depth_separates_empty_from_occupied(factor, expected_states):
    vc = critical_depth(0.5, 1.0, hbar=1.0)
    well = natural_well(factor * vc)
    assert count_bound_states(strength_from_physical(well)) == expected_states


def test_count_at_exactly_critical_depth_is_zero():
    vc = critical_depth(0.5, 1.0, hbar=1.0)
    # z0 = pi/2 up to roundoff, within one float of it: no state fits
    assert count_bound_states(strength_from_physical(natural_well(vc))) == 0


@pytest.mark.parametrize(
    "factor", [0.3, 0.9, 0.99999, 1.0, 1.00001, 1.5, 2.0, 10.0, 100.0]
)
def test_emptiness_iff_subcritical_depth(factor):
    vc = critical_depth(0.5, 1.0, hbar=1.0)
    depth = factor * vc
    count = count_bound_states(strength_from_physical(natural_well(depth)))
    assert (count == 0) == (depth <= vc)


@given(frac=st.floats(min_value=1e-3, max_value=0.999))
@settings(max_examples=100, deadline=None)
def test_energy_ratio_roundtrip_through_units(frac):
    """Converting z to energy and dividing by the depth must reproduce
    (z / z0)^2 whatever the unit system says the depth is."""
    well = natural_well(225.0)
    z = frac * 15.0
    assert energy_from_z(z, well) / well.depth_v0 == pytest.approx(
        frac**2, rel=1e-12
    )
