"""Test-suite configuration: one deterministic hypothesis profile.

Every run draws the same examples and keeps no example database.  The
constants cache hypothesis writes regardless goes to a temporary directory
that is removed when the test run ends, so a run leaves no .hypothesis/
directory behind.  Per-test settings (such as max_examples) still apply.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="cartanforms-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)
