"""The test session's own configuration, run on a throwaway test file."""

import os
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FALSIFIED_THEN_PASSING = textwrap.dedent("""\
    from hypothesis import given
    from hypothesis import strategies as st


    @given(st.integers())
    def test_falsified(n):
        assert n < 0


    def test_after_it():
        pass
""")


def test_a_falsified_hypothesis_test_prints_its_example_and_the_session_goes_on(tmp_path):
    # Warnings are errors in this configuration, and reporting a falsifying
    # example imports a module that warns as it loads.
    (tmp_path / "test_two.py").write_text(FALSIFIED_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(REPO, "pyproject.toml"), "-p", "no:cacheprovider",
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_falsified(" in out, out
    assert "1 failed, 1 passed" in out, out
