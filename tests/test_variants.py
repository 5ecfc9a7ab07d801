"""Crossing counts and spurious-root structure of the rewritten equations."""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiwell.variants
from semiwell import (
    ConvergenceError,
    DomainError,
    VariantKind,
    cot,
    count_bound_states,
    emit_curves,
    enumerate_intersections,
    filtered_equivalence,
    solve_all,
    variant_residual,
)

EXACT_Z = 3.0 * math.pi / 4.0
EXACT_Z0 = math.sqrt(2.0) * EXACT_Z

# 1e-4 above the SIN tangency z0* = sqrt(1 + z*^2), tan z* = z* in
# (2 pi, 5 pi / 2): a pair of crossings about 0.01 apart
SIN_TANGENT_Z0 = 7.789805767492725

# just above a SIN or NEG_SIN tangency, within 1e-10 relative, and just above
# z0 = 1, where the crossings of the top cell form a near-double root: Newton
# there cycles within float noise instead of settling, and the residual
# certifies its last iterate
NEAR_TANGENCY = [
    7.789705768492724,
    7.789705767500514,
    10.949879869827358,
    17.249765567560356,
    20.395832521843438,
    466.52543730475327,
    1.00001,
    1.000001,
]

# just above the thresholds k pi / 2, where the top root sits within
# about 1e-9 of z0
NEAR_THRESHOLD = [k * math.pi / 2 + d for k in (3, 5, 7, 21) for d in (1e-9, 1e-7)]

# one ulp above the float nearest k pi / 2, which lies below k pi / 2 for
# these k: no float lies between k pi / 2 and z0, so z0 is that threshold,
# whose grazing crossing z = z0 is not reported
ULP_ABOVE_THRESHOLD = [math.nextafter(k * math.pi / 2, math.inf) for k in (1, 3, 5, 7, 101)]

# the floats nearest k pi / 2, taken as the thresholds themselves
AT_THRESHOLD = [k * math.pi / 2 for k in (1, 3, 5, 7, 21, 101)]


def test_variant_residual_reference_points():
    # sin form at z = pi leaves only the linear term
    assert variant_residual(VariantKind.SIN, math.pi, 15.0) == pytest.approx(
        math.pi, abs=1e-13
    )
    # |sin| form balances at the closed-form family root
    assert abs(variant_residual(VariantKind.ABS_SIN, EXACT_Z, EXACT_Z0)) < 1e-12
    # wrong-branch form is off by twice the sine term there
    assert variant_residual(VariantKind.NEG_SIN, EXACT_Z, EXACT_Z0) == pytest.approx(
        3.0 * math.pi / 2.0, rel=1e-13
    )
    assert abs(variant_residual(VariantKind.CORRECT, EXACT_Z, EXACT_Z0)) < 1e-12


def test_variant_residual_rejects_nonpositive_z():
    with pytest.raises(DomainError):
        variant_residual(VariantKind.SIN, 0.0, 15.0)
    with pytest.raises(DomainError):
        variant_residual(VariantKind.CORRECT, -2.0, 15.0)
    with pytest.raises(DomainError, match="finite"):
        variant_residual(VariantKind.SIN, math.inf, 15.0)


@pytest.mark.parametrize(
    "kind,z0,total,spurious_positions",
    [
        (VariantKind.SIN, 15.0, 5, [2, 4]),
        (VariantKind.SIN, 25.0, 7, [2, 4, 6]),
        (VariantKind.ABS_SIN, 15.0, 9, [2, 4, 6, 8]),
        (VariantKind.ABS_SIN, 25.0, 15, [2, 4, 6, 8, 10, 12, 14]),
        (VariantKind.NEG_SIN, 15.0, 4, [1, 3]),
        (VariantKind.NEG_SIN, 25.0, 8, [1, 3, 5, 7]),
        (VariantKind.SIN, SIN_TANGENT_Z0, 3, [2, 3]),
        (VariantKind.ABS_SIN, SIN_TANGENT_Z0, 5, [2, 4, 5]),
    ],
)
def test_flawed_forms_cross_in_the_wrong_places(kind, z0, total, spurious_positions):
    report = enumerate_intersections(kind, z0)
    assert report.n_total == total
    assert report.spurious_positions() == spurious_positions


@pytest.mark.parametrize("z0,valid,total", [(15.0, 3, 5), (25.0, 4, 7)])
def test_sin_form_keeps_too_few_crossings(z0, valid, total):
    # only the second-quadrant crossings survive filtering, so the sin
    # form cannot reach the even-band states at all
    report = enumerate_intersections(VariantKind.SIN, z0)
    assert report.n_total == total
    assert len(report.genuine_roots()) == valid
    assert valid < count_bound_states(z0)


@pytest.mark.parametrize("z0", [5.0, 15.0, 25.0, 40.0] + NEAR_THRESHOLD + AT_THRESHOLD)
def test_correct_form_has_no_spurious_crossings(z0):
    report = enumerate_intersections(VariantKind.CORRECT, z0)
    assert report.n_spurious == 0
    assert report.n_total == count_bound_states(z0)


def test_crossings_are_sorted_and_confined():
    for kind in VariantKind:
        report = enumerate_intersections(kind, 25.0)
        zs = [i.z for i in report.intersections]
        assert zs == sorted(zs)
        assert all(0.0 < z <= 25.0 for z in zs)


@pytest.mark.parametrize(
    "z0", [25.0, SIN_TANGENT_Z0] + NEAR_THRESHOLD + ULP_ABOVE_THRESHOLD + NEAR_TANGENCY
)
@pytest.mark.parametrize("kind", list(VariantKind))
def test_spurious_flag_matches_cot_sign(kind, z0):
    # the flag is the parity of the crossing's half-pi cell; the sign of
    # cot at the crossing is the reference it must agree with
    report = enumerate_intersections(kind, z0)
    for item in report.intersections:
        assert item.spurious == (cot(item.z) > 0.0)


@pytest.mark.parametrize("z0", AT_THRESHOLD + ULP_ABOVE_THRESHOLD)
@pytest.mark.parametrize("kind", list(VariantKind))
def test_grazing_crossing_at_a_threshold_is_not_reported(kind, z0):
    # at z0 = k pi / 2 the line touches z0 |sin z| at z = z0 itself, on the
    # edge between a gap cell and a band; neither cell reports it
    assert all(i.z < z0 for i in enumerate_intersections(kind, z0).intersections)


def test_sin_form_crosses_even_in_a_stateless_well():
    # z0 = 1.3 < pi/2 holds no bound state, yet z = z0 sin(z) still crosses
    assert count_bound_states(1.3) == 0
    report = enumerate_intersections(VariantKind.SIN, 1.3)
    assert report.n_total >= 1
    assert all(i.spurious for i in report.intersections)


def test_correct_form_in_a_stateless_well_finds_nothing():
    report = enumerate_intersections(VariantKind.CORRECT, 1.5)
    assert report.n_total == 0


# deep wells, where a loop over every band could not finish; from 1e17
# the count passes 2^52 bands
DEEP = [1e8, 1e12, 1e17, 1e300]


@pytest.mark.parametrize("z0", [5.0, 15.0, 25.0, 40.0] + NEAR_THRESHOLD + DEEP)
@pytest.mark.parametrize("kind", [VariantKind.ABS_SIN, VariantKind.CORRECT])
def test_filtering_recovers_spectrum_for_sign_safe_forms(kind, z0):
    assert filtered_equivalence(kind, z0)


@pytest.mark.parametrize("z0", [15.0, 25.0] + DEEP)
def test_filtering_cannot_rescue_the_wrong_branch(z0):
    # the -sin form has no crossing at all in odd bands, so filtering
    # leaves it short of the true spectrum
    assert not filtered_equivalence(VariantKind.NEG_SIN, z0)
    assert not filtered_equivalence(VariantKind.SIN, z0)


@pytest.mark.parametrize(
    "z0",
    [0.5, 1.5, 2.0, 4.0, 4.8, 5.0, 7.0, 8.0]
    + NEAR_THRESHOLD[:4]
    + ULP_ABOVE_THRESHOLD[:3]
    + AT_THRESHOLD[:3],
)
def test_sin_forms_hold_only_in_the_shallowest_wells(z0):
    # SIN keeps only odd bands and NEG_SIN only even ones, so SIN recovers
    # the spectrum exactly when N <= 1 and NEG_SIN exactly when N = 0
    n = count_bound_states(z0)
    assert filtered_equivalence(VariantKind.SIN, z0) == (n <= 1)
    assert filtered_equivalence(VariantKind.NEG_SIN, z0) == (n == 0)


@pytest.mark.parametrize(
    "z0",
    [1.6, 2.0, 3.3, 7.7, 10.0, 13.1, 18.6, 25.0, 33.3, 40.0, 1e3]
    + NEAR_THRESHOLD
    + NEAR_TANGENCY,
)
def test_kept_crossings_track_solver_roots(z0):
    # a genuine crossing is the band solve's root, so it equals the
    # spectrum's bit for bit; the sin forms keep every other band
    states = solve_all(z0)
    true_roots = [s.z for s in states]
    for kind in (VariantKind.ABS_SIN, VariantKind.CORRECT):
        assert enumerate_intersections(kind, z0).genuine_roots() == true_roots
    odd = [s.z for s in states if s.m % 2]
    even = [s.z for s in states if not s.m % 2]
    assert enumerate_intersections(VariantKind.SIN, z0).genuine_roots() == odd
    assert enumerate_intersections(VariantKind.NEG_SIN, z0).genuine_roots() == even


@given(z0=st.floats(min_value=0.05, max_value=2000.0, exclude_min=True))
@settings(max_examples=60, deadline=None)
def test_crossings_split_cleanly_across_forms(z0):
    # g = |sin z| agrees with sin z or with -sin z on every cell, and its
    # genuine crossings are exactly those of the correct form
    abs_sin = enumerate_intersections(VariantKind.ABS_SIN, z0)
    union = [
        i.z
        for kind in (VariantKind.SIN, VariantKind.NEG_SIN)
        for i in enumerate_intersections(kind, z0).intersections
    ]
    assert [i.z for i in abs_sin.intersections] == sorted(union)
    correct = enumerate_intersections(VariantKind.CORRECT, z0)
    assert [i.z for i in correct.intersections] == abs_sin.genuine_roots()
    n = count_bound_states(z0)
    assert correct.n_total == n
    # the count rule: the gap cell below each band 2..N holds one spurious
    # crossing, SIN's below an odd band and NEG_SIN's below an even one; only
    # the top cell, below band N + 1, holds 0, 1 or 2
    assert abs_sin.n_spurious - max(n - 1, 0) in (0, 1, 2)
    for kind, first in ((VariantKind.SIN, 2), (VariantKind.NEG_SIN, 1)):
        lower = enumerate_intersections(kind, z0).intersections
        cells = [int(i.z // math.pi) for i in lower if i.spurious and i.z < n * math.pi]
        assert cells == list(range(first, n, 2))
    # the scan is the reference for the verdict: filtering recovers the
    # spectrum exactly when the genuine crossings are solve_all's roots
    roots = [s.z for s in solve_all(z0)]
    for kind in VariantKind:
        genuine = enumerate_intersections(kind, z0).genuine_roots()
        assert filtered_equivalence(kind, z0) == (genuine == roots)


# SHA-256 of the crossings of all four kinds, "kind z spurious" a line with
# z as float.hex, frozen before the band and gap solves shared one kernel
CROSSING_DIGESTS = {
    25.0: "512536d9a49ac12b1569272769b8338b56284f60d486fae3da99dbe9eb7ccd03",
    220.0: "475312670ebb8150823ae196b3efd41b7c7186705b4c50c7a318669f966545e4",
    49.3: "ba51b2f18cfc8de5b88ce07042f165d7151782059ace61740c99ec0bb2e371ae",
}


@pytest.mark.parametrize("z0", list(CROSSING_DIGESTS))
def test_crossing_bits_are_frozen(z0):
    text = "\n".join(
        f"{kind.value} {i.z.hex()} {i.spurious}"
        for kind in VariantKind
        for i in enumerate_intersections(kind, z0).intersections
    )
    assert hashlib.sha256(text.encode()).hexdigest() == CROSSING_DIGESTS[z0]


@pytest.mark.parametrize(
    "call",
    [
        lambda kind: emit_curves(15.0, kind),
        lambda kind: enumerate_intersections(kind, 15.0),
        lambda kind: filtered_equivalence(kind, 15.0),
        lambda kind: variant_residual(kind, 1.0, 15.0),
    ],
    ids=["emit_curves", "enumerate_intersections", "filtered_equivalence", "variant_residual"],
)
@pytest.mark.parametrize("kind", ["sin", None, 3])
def test_a_kind_that_is_no_member_is_a_domain_error(call, kind):
    # a string raised AttributeError from the curves and KeyError from the scan
    with pytest.raises(DomainError, match="kind must be a"):
        call(kind)


def test_the_scan_solves_in_three_kernel_runs(monkeypatch):
    # the band roots, the crossings from the cells' left ends and those from
    # their right ends: three runs, not one per crossing; a kept scan of this
    # well would answer with none
    semiwell.variants._crossings.cache_clear()
    calls = []
    band_roots = semiwell.variants._band_roots

    def counted(*args, **kwargs):
        calls.append(kwargs.get("start"))
        return band_roots(*args, **kwargs)

    monkeypatch.setattr(semiwell.variants, "_band_roots", counted)
    report = enumerate_intersections(VariantKind.ABS_SIN, 220.0)
    assert report.n_spurious > 60 and report.n_total - report.n_spurious == count_bound_states(220.0)
    assert 1 <= len(calls) <= 3


def crossing_digest(reports: dict) -> str:
    text = "\n".join(
        f"{kind.value} {i.z.hex()} {i.spurious}"
        for kind in VariantKind
        for i in reports[kind].intersections
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_kinds_of_one_well_share_one_scan_in_any_order():
    # a cold scan read by the last kind first gives the frozen bits, and each
    # new well replaces the one scan kept
    scan = semiwell.variants._crossings
    scan.cache_clear()
    for z0, digest in CROSSING_DIGESTS.items():
        reports = {kind: enumerate_intersections(kind, z0) for kind in reversed(VariantKind)}
        assert crossing_digest(reports) == digest
        info = scan.cache_info()
        assert info.currsize == 1 and info.hits == 3 * info.misses
    enumerate_intersections(VariantKind.SIN, 25.0)
    assert scan.cache_info().currsize == 1 and scan.cache_info().misses == 4


def test_a_failed_scan_is_not_kept(monkeypatch):
    def failing(v, frames, config, start=None):
        raise ConvergenceError(f"injected for z0={v!r}")

    semiwell.variants._crossings.cache_clear()
    monkeypatch.setattr(semiwell.variants, "_band_roots", failing)
    with pytest.raises(ConvergenceError, match="injected for z0=25.0"):
        enumerate_intersections(VariantKind.CORRECT, 25.0)
    monkeypatch.undo()
    reports = {kind: enumerate_intersections(kind, 25.0) for kind in VariantKind}
    assert crossing_digest(reports) == CROSSING_DIGESTS[25.0]
