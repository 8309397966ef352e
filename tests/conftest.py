import pytest

from sgsdistill import featurizers


@pytest.fixture(autouse=True)
def fresh_lane_pool():
    """After each test, shut the lane pool down and lift any lane cap. The pool
    is sized once, from the lane count when it is made, so each test that
    queues items makes its own from the CPUs it sets up."""
    yield
    if featurizers._pool is not None:
        featurizers._pool.shutdown()
    featurizers._pool = None
    featurizers._lane_cap = None
