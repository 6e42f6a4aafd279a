import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from maxtrifree import Graph

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def graph_builds(monkeypatch):
    """The rows of every Graph built and checked while the test runs, in order."""
    built = []
    check = Graph.__post_init__

    def counted(self):
        built.append(self.rows)
        check(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    return built
