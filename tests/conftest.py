import pytest
from hypothesis import settings

from splitoct import group as gp

# the same Hypothesis examples on every run, so runs of tier-1 compare
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def g2f2_array():
    """Enumerated automorphism group over GF(2) as a numpy stack."""
    return gp.enumerate_group_array(2)
