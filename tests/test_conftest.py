"""The shared pytest set-up in conftest.py, checked in a separate pytest run."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GIVEN = '''from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_integer(x):
    assert {check}
'''


def test_failing_given_test_does_not_stop_the_run(tmp_path):
    # under the suite's warning filters and its conftest, a failing @given
    # test fails alone: the test file after it still runs
    shutil.copy(TESTS / "conftest.py", tmp_path)
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    (tmp_path / "test_a_fails.py").write_text(GIVEN.format(check="x < 5"))
    (tmp_path / "test_b_passes.py").write_text(GIVEN.format(check="x == x"))
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                            cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
