"""Every input rule in one table.

Each public entry that takes a state, an initial state, a time grid, an
amplitude or a direction coefficient meets each malformed input of its kind,
and must raise the package error with the rule's one message.  An empty
stack of states measures to empty columns.
"""

import math

import numpy as np
import pytest

from bathlink import (
    ConfigError,
    ModelParams,
    NumericalInvariantError,
    Trajectory,
    build_liouvillian,
    discord,
    dxi0_general,
    dxi0_quadratic,
    evolve_exact,
    evolve_rk,
    is_entangling,
    mutual_information,
    negativity,
    product_state,
    validate_density_matrix,
    witness_vector,
)
from bathlink.correlations import _entropies
from bathlink.witness import quadratic_roots, report_for_kappas, report_for_product_state

PARAMS = ModelParams.from_rates(1.01, 0.01, 0.6, 0.001)
LIOUVILLIAN = build_liouvillian(PARAMS)
RHO = product_state(0.6, 0.3)
NAN, INF = math.nan, math.inf


def _stack_with(bad_entry: float) -> np.ndarray:
    states = np.repeat(RHO[None], 3, axis=0)
    states[1, 2, 3] = bad_entry
    return states


def _trajectory(times: np.ndarray) -> Trajectory:
    """A trajectory of one valid state per time, so only the grid can fail."""
    return Trajectory(times, np.repeat(RHO[None], times.size, axis=0))


MEASURES = {"negativity": negativity, "mutual_information": mutual_information,
            "discord": discord, "validate_density_matrix": validate_density_matrix}
SHAPE = r"^expected a \(4, 4\) state or an \(N, 4, 4\) stack, got {}$"
STATES = {
    "nan state": (np.full((4, 4), NAN), NumericalInvariantError,
                  r"^state: entries are not finite$"),
    "nan in a stack": (_stack_with(NAN), NumericalInvariantError,
                       r"^state 1: entries are not finite$"),
    "inf in a stack": (_stack_with(INF), NumericalInvariantError,
                       r"^state 1: entries are not finite$"),
    "stack of stacks": (np.repeat(RHO[None], 4, axis=0)[None], ConfigError,
                        SHAPE.format(r"\(1, 4, 4, 4\)")),
    "3x3 matrix": (np.eye(3) / 3, ConfigError, SHAPE.format(r"\(3, 3\)")),
    "scalar": (1.0, ConfigError, SHAPE.format(r"\(\)")),
}
INITIAL_STATES = {
    "stack of two": (np.stack([RHO, RHO]), ConfigError,
                     r"^initial state must be one \(4, 4\) state, got \(2, 4, 4\)$"),
    "stack of one": (RHO[None], ConfigError,
                     r"^initial state must be one \(4, 4\) state, got \(1, 4, 4\)$"),
    "nan state": (np.full((4, 4), NAN), NumericalInvariantError,
                  r"^initial state: entries are not finite$"),
    "3x3 matrix": (np.eye(3) / 3, ConfigError, SHAPE.format(r"\(3, 3\)")),
    "trace 2": (2.0 * RHO, NumericalInvariantError,
                r"^initial state: trace deviates by 1\.000e\+00$"),
}
PROPAGATORS = {
    "evolve_exact": lambda rho0: evolve_exact(LIOUVILLIAN, rho0, np.linspace(0.0, 1.0, 3)),
    "evolve_exact, two generators":
        lambda rho0: evolve_exact([LIOUVILLIAN, LIOUVILLIAN], rho0, np.linspace(0.0, 1.0, 3)),
    "evolve_rk": lambda rho0: evolve_rk(LIOUVILLIAN, rho0, 1.0, 100, samples=2),
}
TIMES = {
    "nan": ([0.0, NAN], r"^times must be finite, got nan$"),
    "inf": ([0.0, INF], r"^times must be finite, got inf$"),
    "empty": ([], r"^times must be a non-empty 1-D sequence$"),
    "2-D": ([[0.0, 1.0]], r"^times must be a non-empty 1-D sequence$"),
    "scalar": (0.0, r"^times must be a non-empty 1-D sequence$"),
    "late start": ([0.1, 0.2], r"^times must start at 0 and increase strictly$"),
    "repeated time": ([0.0, 0.5, 0.5], r"^times must start at 0 and increase strictly$"),
    "decreasing": ([0.0, 1.0, 0.5], r"^times must start at 0 and increase strictly$"),
}
GRID_TAKERS = {
    "evolve_exact": lambda times: evolve_exact(LIOUVILLIAN, RHO, times),
    "Trajectory": _trajectory,
}
AMPLITUDE = r"^p, q must lie in \[-1, 1\], got \({}, {}\)$"
AMPLITUDE_TAKERS = {
    "product_state": lambda p, q: product_state(p, q),
    "is_entangling": lambda p, q: is_entangling(p, q, PARAMS),
    "dxi0_general": lambda p, q: dxi0_general(p, q, 1.0, 1.0, PARAMS),
    "witness_vector": lambda p, q: witness_vector(p, q, 1.0, 1.0),
    "report_for_product_state": lambda p, q: report_for_product_state(p, q, PARAMS),
}
AMPLITUDES = {"p 1.5": (1.5, 0.0), "q -1.5": (0.0, -1.5), "p nan": (NAN, 0.0),
              "q nan": (0.0, NAN), "p inf": (INF, 0.0)}
COEFFICIENT_TAKERS = {
    "witness_vector": (lambda c: witness_vector(0.5, 0.0, c["alpha"], c["beta"], c["vartheta"]),
                       ("alpha", "beta", "vartheta")),
    "dxi0_general": (lambda c: dxi0_general(0.5, 0.5, c["alpha"], c["beta"], PARAMS),
                     ("alpha", "beta")),
    "dxi0_quadratic": (lambda c: dxi0_quadratic(c["kappa1"], c["kappa3"], PARAMS),
                       ("kappa1", "kappa3")),
    "quadratic_roots": (lambda c: quadratic_roots(c["kappa3"], PARAMS), ("kappa3",)),
    "report_for_kappas": (lambda c: report_for_kappas(c["kappa1"], c["kappa3"], PARAMS,
                                                      c["kappa2"]),
                          ("kappa1", "kappa2", "kappa3")),
    "report_for_product_state": (
        lambda c: report_for_product_state(0.5, 0.5, PARAMS, c["alpha"], c["beta"]),
        ("alpha", "beta")),
}


def _cases():
    for entry, measure in MEASURES.items():
        for kind, (rho, error, message) in STATES.items():
            yield pytest.param(lambda m=measure, r=rho: m(r), error, message,
                               id=f"{entry}-{kind}")
    for entry, propagate in PROPAGATORS.items():
        for kind, (rho0, error, message) in INITIAL_STATES.items():
            yield pytest.param(lambda f=propagate, r=rho0: f(r), error, message,
                               id=f"{entry}-initial {kind}")
    for entry, take in GRID_TAKERS.items():
        for kind, (times, message) in TIMES.items():
            yield pytest.param(lambda f=take, t=times: f(np.asarray(t, dtype=float)),
                               ConfigError, message, id=f"{entry}-times {kind}")
    yield pytest.param(lambda: Trajectory(np.array([0.0, 1.0]), np.full((2, 4, 4), NAN)),
                       NumericalInvariantError, r"^state at t=0: entries are not finite$",
                       id="Trajectory-nan states")
    for entry, take in AMPLITUDE_TAKERS.items():
        for kind, (p, q) in AMPLITUDES.items():
            yield pytest.param(lambda f=take, p=p, q=q: f(p, q), ConfigError,
                               AMPLITUDE.format(p, q).replace(".", r"\."),
                               id=f"{entry}-{kind}")
    for entry, (take, names) in COEFFICIENT_TAKERS.items():
        for name in names:
            for value in (NAN, INF, -INF):
                coefficients = dict.fromkeys(("alpha", "beta", "vartheta", "kappa1", "kappa2",
                                              "kappa3"), 1.0)
                coefficients[name] = value
                yield pytest.param(lambda f=take, c=coefficients: f(c), ConfigError,
                                   rf"^{name} must be finite, got {value}$",
                                   id=f"{entry}-{name} {value}")


@pytest.mark.parametrize("call, error, message", list(_cases()))
def test_each_malformed_input_raises_its_rule(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error


def test_an_empty_stack_measures_to_empty_columns():
    empty = np.empty((0, 4, 4))
    for measure in (negativity, mutual_information, validate_density_matrix):
        column = measure(empty)
        assert isinstance(column, np.ndarray) and column.shape == (0,)
    record = discord(empty)
    for name in ("negativity", "mutual_info", "discord", "classical_corr", "theta", "phi"):
        column = getattr(record, name)
        assert isinstance(column, np.ndarray) and column.shape == (0,), name


def test_a_trace_that_is_not_finite_fails_the_entropy_trace_test():
    # non-finite entries are refused before, so the test itself must not pass NaN
    with pytest.raises(ConfigError, match=r"^entropy input has trace nan, expected 1$"):
        _entropies(np.full((1, 4, 4), NAN))


@pytest.mark.parametrize("rho", [RHO, RHO.astype(complex), product_state(1.0, 0.0).astype(int)],
                         ids=["real", "complex", "integer"])
def test_one_valid_state_keeps_its_kind_of_value(rho):
    assert type(negativity(rho)) is float
    assert type(mutual_information(rho)) is float
    assert validate_density_matrix(rho).shape == ()
    assert evolve_exact(LIOUVILLIAN, rho, np.linspace(0.0, 1.0, 3)).frame_states.dtype == (
        np.complex128 if np.iscomplexobj(rho) else np.float64)
