"""Every example script must run clean — they are living documentation."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples")
    .glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=180)
    assert result.returncode == 0, (
        f"{script.name} failed:\n{result.stderr[-2000:]}")
    assert result.stdout.strip(), f"{script.name} produced no output"


def test_expected_example_set():
    names = {p.name for p in EXAMPLES}
    assert names == {"quickstart.py", "adaptive_failover.py",
                     "xml_content_store.py", "granularity_study.py"}
