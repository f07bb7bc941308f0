import subprocess
import sys
from pathlib import Path

_FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_fails(x):
    assert False


def test_runs_after():
    pass
'''


def test_a_failing_given_test_does_not_abort_the_run(tmp_path):
    # The repo's warning filters must let pytest report a failing @given
    # test and go on: exit code 1 and the next test run, not an
    # INTERNALERROR that stops the session with exit code 3.
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "pyproject.toml").write_text(config.read_text())
    (tmp_path / "test_given.py").write_text(_FAILING_THEN_PASSING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_given.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
