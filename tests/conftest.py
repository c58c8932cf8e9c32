"""Point Hypothesis's storage at a temporary directory for the session.

Hypothesis caches the constants it collects from local modules under its
home directory (./.hypothesis by default) as soon as a session collects a
property test, even when no test uses an example database; the tests
should leave nothing in the working tree.
"""

import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_home = None


def pytest_configure(config):
    global _home
    _home = tempfile.mkdtemp(prefix="qfib-hypothesis-")
    set_hypothesis_home_dir(_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(_home, ignore_errors=True)
