"""Suite-wide fixtures: sanitizers on by default.

Every test runs with an enabled ambient tracer and the full
``repro.check`` sanitizer suite subscribed to it; models built during
the test (with ``tracer=None``) adopt the ambient tracer and their
protocol behaviour is validated online.  A test that ends with
violations fails with the full report.

Tests that *deliberately* break protocol invariants (rogue bus masters,
``skip_coherence`` drivers, recorded-collision studies) opt out with::

    @pytest.mark.sanitizer_exempt
"""

import pytest

from repro.check.sanitizer import default_suite
from repro.sim.trace import Tracer, set_default_tracer


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "sanitizer_exempt: test deliberately violates protocol "
        "invariants; do not attach the repro.check sanitizers")


@pytest.fixture(autouse=True)
def sanitized_trace(request):
    """Ambient tracer + sanitizer suite around every (non-exempt) test."""
    if request.node.get_closest_marker("sanitizer_exempt"):
        yield None
        return
    tracer = Tracer(enabled=True)
    suite = default_suite()
    suite.attach(tracer)
    previous = set_default_tracer(tracer)
    try:
        yield tracer
    finally:
        set_default_tracer(previous)
        suite.detach()
    if suite.violations:
        pytest.fail("sanitizer violations:\n" + suite.report(),
                    pytrace=False)
