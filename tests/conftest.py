import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def cold_cube_memo():
    """Clear the process-wide memo of small-cube path systems before and
    after the test, so that neither test order nor a substituted flow
    leaks into another test."""
    from aqsteiner import paths

    paths._cube_system.cache_clear()
    yield paths._cube_system
    paths._cube_system.cache_clear()
