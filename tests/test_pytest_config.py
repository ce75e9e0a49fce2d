"""The suite's own pytest configuration: a failing hypothesis test is
reported as a failure, and the tests after it still run."""

from __future__ import annotations

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def pytest_ini_options() -> str:
    """The ``[tool.pytest.ini_options]`` table of the repository's
    pyproject.toml, as text."""
    text = PYPROJECT.read_text()
    table = text[text.index("[tool.pytest.ini_options]"):]
    end = table.find("\n[", 1)
    return table if end < 0 else table[: end + 1]


def test_failing_hypothesis_test_does_not_end_the_session(pytester):
    # Under filterwarnings = ["error"], hypothesis's failure report imports
    # libcst, whose DeprecationWarning on mypy_extensions.TypedDict used to
    # crash the session with INTERNALERROR before the next test ran.
    pytester.makefile(".toml", pyproject=pytest_ini_options())
    pytester.mkdir("tests")
    pytester.path.joinpath("tests", "test_inner.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n"
        "\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
