import pytest

from bathlink import ModelParams, build_liouvillian


@pytest.fixture(scope="session")
def canonical_params():
    return ModelParams.from_rates(gamma1=1.01, gamma2=0.01, eta=1.0, omega=0.001)


@pytest.fixture(scope="session")
def canonical_liouvillian(canonical_params):
    return build_liouvillian(canonical_params)

