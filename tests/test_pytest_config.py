"""The repository's own pytest settings keep a failing property test's
report readable."""

from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_given_prints_its_falsifying_example(pytester):
    # hypothesis' failure report raises a DeprecationWarning; under the
    # repository's filterwarnings it must not end the run in INTERNALERROR
    tomllib = pytest.importorskip("tomllib")
    options = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    pytester.makeini("[pytest]\nfilterwarnings =\n"
                     + "".join(f"    {f}\n" for f in options["filterwarnings"]))
    pytester.makepyfile(test_fails="""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 5
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1)
