import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings

from poissonpert import RngStream

# one deterministic profile for every property test: derandomized, no example
# database, no deadline, a bounded number of examples and no shrinking (a
# failing example is reported as drawn)
settings.register_profile("poissonpert", derandomize=True, database=None, deadline=None,
                          max_examples=25, phases=[Phase.explicit, Phase.generate],
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("poissonpert")


@pytest.fixture
def rng():
    """Base stream for a test; child streams keep draws independent."""
    return RngStream(20240811)


def z_score(estimate, target, stderr):
    if stderr == 0.0:
        return 0.0 if estimate == target else np.inf
    return abs(estimate - target) / stderr
