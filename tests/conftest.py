import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from crtour import enumerate_tournaments

settings.register_profile(
    "crtour",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("crtour")


@pytest.fixture(scope="session")
def classes():
    """Isomorphism-class representatives by order, up to 6."""
    return {
        n: tuple(enumerate_tournaments(n, classes=True)) for n in range(1, 7)
    }

