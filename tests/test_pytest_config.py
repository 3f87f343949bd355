"""The repository's pytest configuration reports a failing hypothesis test.

``filterwarnings = ["error"]`` must not turn a warning raised while
hypothesis builds its failure report into an INTERNALERROR, which would hide
the falsifying example and end the session.  The check runs pytest in a
fresh process, under this repository's ``pyproject.toml``, on one property
test that always fails.  The suite's hypothesis profile (``conftest.py``)
keeps no example database, so each run draws afresh.
"""

import subprocess
import sys
from pathlib import Path

from hypothesis import settings

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x
"""


def test_a_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(_FAILING)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = res.stdout + res.stderr
    assert "INTERNALERROR" not in out, out
    assert res.returncode == 1, out
    assert "Falsifying example" in out, out


def test_hypothesis_keeps_no_example_database():
    # conftest's profile: a failing draw is reported, not saved for replay
    assert settings().database is None
