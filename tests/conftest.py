import pytest

from reachgen import worker as wk


@pytest.fixture
def fresh_worker():
    """A worker forked inside the test, so it runs the test's patches, and
    stopped after it, so no later test does."""
    wk._stop_worker()
    yield
    wk._stop_worker()
