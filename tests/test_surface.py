"""The package's public surface, and the independence of the test oracles."""

import ast
import importlib.util
from pathlib import Path

import numpy as np

import bathlink
from bathlink import _kernels, correlations
from bathlink.witness import report_for_product_state

ORACLES = Path(__file__).resolve().with_name("oracles.py")
PACKAGE = Path(bathlink.__file__).resolve().parent

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


def _record_pairs():
    params = bathlink.ModelParams.from_rates(1.01, 0.01, 1.0, 0.001)
    times = np.linspace(0.0, 1.0, 5)

    def trajectory():
        return bathlink.evolve_exact(bathlink.build_liouvillian(params),
                                     bathlink.product_state(0.6, 0.3), times)

    makers = [
        lambda: bathlink.build_liouvillian(params),
        trajectory,
        lambda: bathlink.discord(trajectory().states),
        lambda: bathlink.region_scan(params, 5),
        lambda: bathlink.steady_state_numeric(bathlink.build_liouvillian(params),
                                              require_unique=False),
    ]
    return [(make(), make()) for make in makers]


def test_array_records_compare_and_hash_by_identity():
    # field-wise == on arrays raises, and so does hashing an array field
    for a, b in _record_pairs():
        assert a == a and a != b
        assert len({a, b}) == 2 and isinstance(hash(a), int)
        assert "__eq__" not in vars(type(a)) and "__hash__" not in vars(type(a))
    params = (bathlink.ModelParams.from_rates(1.01, 0.01, 1.0, 0.001),
              bathlink.ModelParams.from_rates(1.01, 0.01, 1.0, 0.001))
    reports = tuple(report_for_product_state(0.6, 0.3, params[0]) for _ in range(2))
    for a, b in (params, reports):
        assert a is not b and a == b and hash(a) == hash(b)


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


def test_kernels_module_is_only_the_harness_adapter():
    # the discord search lives in one module; _kernels only re-exports its grid
    # scan, the same object, for the benchmark harness, and nothing imports it
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any(name.split(".")[-1] == "_kernels" for name in names), path.name
    public = {name for name in vars(_kernels) if not name.startswith("_")}
    assert public == {"active_backend", "conditional_entropy_grid"}
    assert _kernels.conditional_entropy_grid is correlations.conditional_entropy_grid


def test_oracles_load_by_file_path():
    spec = importlib.util.spec_from_file_location("oracles_by_path", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.master_equation_rhs) and callable(module.propagate)
