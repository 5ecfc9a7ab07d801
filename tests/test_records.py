"""The result and configuration records: immutable, validated named tuples."""

from __future__ import annotations

import copy
import pickle

import pytest

import semiwell
from semiwell import (
    BoundState,
    DomainError,
    ExactSolutionRecord,
    Intersection,
    NewtonTrace,
    OutputDocument,
    PhysicalWell,
    SolveConfig,
    VariantKind,
    VariantReport,
    WavefunctionSpec,
    WellStrength,
    build_wavefunction,
    enumerate_intersections,
    exact_solution,
    newton_solve,
)


def every_record():
    state, trace = newton_solve(1, 15.0)
    return [
        WellStrength(15.0),
        state,
        SolveConfig(),
        trace,
        exact_solution(0),
        OutputDocument(command="count", inputs={"z0": 15.0}, results={"count": 5}),
        PhysicalWell(mass=0.5, width_a=1.0, depth_v0=2.0, hbar=1.0),
        Intersection(z=2.0, spurious=True),
        enumerate_intersections(VariantKind.SIN, 15.0),
        build_wavefunction(state, 15.0),
    ]


def test_the_ten_record_types():
    assert [type(r) for r in every_record()] == [
        WellStrength,
        BoundState,
        SolveConfig,
        NewtonTrace,
        ExactSolutionRecord,
        OutputDocument,
        PhysicalWell,
        Intersection,
        VariantReport,
        WavefunctionSpec,
    ]


@pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0


@pytest.mark.parametrize("record", every_record(), ids=lambda r: type(r).__name__)
def test_records_survive_copy_and_pickle(record):
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_replace_runs_the_constructor_checks():
    state, _ = newton_solve(1, 15.0)
    with pytest.raises(DomainError):
        state._replace(z=1.0)
    with pytest.raises(DomainError):
        SolveConfig()._replace(root_tol=-1.0)
    with pytest.raises(DomainError):
        WellStrength(15.0)._replace(z0=0.0)
    with pytest.raises(DomainError):
        PhysicalWell(mass=0.5, width_a=1.0, depth_v0=2.0)._replace(hbar=-1.0)
    # a valid change still goes through, and keeps the record's type
    config = SolveConfig()._replace(max_newton_iters=7)
    assert type(config) is SolveConfig and config.max_newton_iters == 7


def test_reprs_name_every_field():
    assert repr(SolveConfig()) == (
        "SolveConfig(root_tol=1e-12, residual_tol=1e-09, max_newton_iters=50)"
    )
    assert repr(BoundState(m=1, z=2.5, z_tilde=14.0, energy_ratio=0.25)) == (
        "BoundState(m=1, z=2.5, z_tilde=14.0, energy_ratio=0.25)"
    )
    assert repr(OutputDocument("count", {}, {})) == (
        "OutputDocument(command='count', inputs={}, results={}, "
        "diagnostics={}, schema_version='1')"
    )


def test_records_unpack_and_convert():
    state = BoundState(m=1, z=2.5, z_tilde=14.0, energy_ratio=0.25)
    m, z, z_tilde, ratio = state
    assert (m, z, z_tilde, ratio) == (1, 2.5, 14.0, 0.25) == state
    assert state._asdict() == {"m": 1, "z": 2.5, "z_tilde": 14.0, "energy_ratio": 0.25}


def test_documents_get_their_own_diagnostics():
    first = OutputDocument("count", {}, {})
    second = OutputDocument("count", {}, {})
    first.diagnostics["note"] = 1
    assert second.diagnostics == {}


PUBLIC_NAMES = [
    "BoundState",
    "ConvergenceError",
    "CurveKind",
    "DomainError",
    "ELECTRON_MASS_SI",
    "EV_SI",
    "ExactSolutionRecord",
    "HBAR_SI",
    "Intersection",
    "NM_SI",
    "NewtonTrace",
    "OutputDocument",
    "PhysicalWell",
    "SolveConfig",
    "Spectrum",
    "VariantKind",
    "VariantReport",
    "WavefunctionSpec",
    "WellStrength",
    "__version__",
    "build_wavefunction",
    "cot",
    "count_bound_states",
    "critical_depth",
    "cross_validate",
    "emit_curves",
    "energy_from_z",
    "enumerate_intersections",
    "evaluate",
    "exact_solution",
    "filtered_equivalence",
    "format_float",
    "newton_solve",
    "probability_inside",
    "quadrature_norm_check",
    "residual_exact",
    "residual_interval",
    "serialize",
    "solve_all",
    "solve_spectrum",
    "strength_from_physical",
    "strength_value",
    "variant_residual",
]


def test_the_public_surface_is_frozen():
    # a name joins or leaves the package on purpose, never by accident
    assert sorted(semiwell.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(semiwell, name) is not None
    for gone in ("bracket_for", "curve_value", "energy_ratio", "interval_index", "EXACT_CIRCLE"):
        assert not hasattr(semiwell, gone)
    assert NewtonTrace._fields == ("iterates", "fallback_bisections")
