import numpy as np
import pytest

import voidtherm as vt
from voidtherm import presets


@pytest.fixture(scope="session")
def pulse_scenario():
    return presets.pulse_scenario()


@pytest.fixture(scope="session")
def pulse_trajectory(pulse_scenario):
    return vt.run(pulse_scenario, n_samples=801)


@pytest.fixture(scope="session")
def pulse_record(pulse_trajectory):
    return vt.record_trajectory(pulse_trajectory)


@pytest.fixture(scope="session")
def pulse_geometry(pulse_scenario):
    return vt.support_geometry(pulse_scenario)


@pytest.fixture(scope="session")
def pulse_lambda(pulse_scenario):
    # the admissible lambda of the default grid with the largest decay rate
    rows = [row for row in vt.admissible_lambdas(pulse_scenario) if row.anchor]
    return max(rows, key=lambda row: row.decay.decay_rate).lam


@pytest.fixture(scope="session")
def pulse_series(pulse_record, pulse_geometry, pulse_lambda):
    return vt.compute_measure(pulse_record, pulse_geometry, pulse_lambda)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
