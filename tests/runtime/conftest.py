"""Every test here runs under the leak guard of ``tests/conftest.py``."""

import pytest


@pytest.fixture(autouse=True)
def _leak_guard(no_leaks):
    """No worker process, thread or ``/dev/shm`` segment may outlive a test."""
