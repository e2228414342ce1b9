"""The package's public surface, and the independence of the test oracles."""

import ast
import importlib.util
from pathlib import Path

import bathlink

ORACLES = Path(__file__).resolve().with_name("oracles.py")

PUBLIC = [
    "ConfigError", "Correlations", "DegenerateSteadyStateError", "Liouvillian", "ModelParams",
    "NumericalInvariantError", "RegionScan", "StabilityError", "SteadyStateResult",
    "Trajectory", "WitnessReport", "build_liouvillian", "discord", "dxi0_general",
    "dxi0_quadratic", "evolve_exact", "evolve_rk", "is_entangling",
    "kossakowski_matrix", "mutual_information", "negativity", "product_state",
    "rates_from_temperature", "region_scan", "steady_state_analytic", "steady_state_numeric",
    "trajectory_to_csv", "validate_density_matrix", "witness_vector",
]


def test_public_surface_is_pinned():
    assert sorted(bathlink.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(bathlink, name).__name__ == name


def test_oracles_import_only_the_error_type_and_partial_transpose():
    # a route moved into the oracles must not call the package code it checks
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module is not None
            if node.module.split(".")[0] == "bathlink":
                imported |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "bathlink" for alias in node.names)
    assert imported == {"bathlink.errors.NumericalInvariantError",
                        "bathlink.matops.partial_transpose_second"}


def test_oracles_load_by_file_path():
    spec = importlib.util.spec_from_file_location("oracles_by_path", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.master_equation_rhs) and callable(module.propagate)
