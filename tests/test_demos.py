"""Every demo runs under ``python -X dev`` and writes nothing to stderr.

Development mode turns on the warnings a demo could otherwise hide, such as
an unclosed file (``ResourceWarning``) or a deprecated call. Each demo runs in
its own empty working directory, so a file it leaves behind cannot reach
another test. The live-endpoint demo gets no API key, so it prints its recipe
and makes no request.
"""
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_runs_cleanly_in_dev_mode(demo, tmp_path):
    env = subprocess_env()
    env.pop("GRAPHBENCH_API_KEY", None)
    done = subprocess.run([sys.executable, "-X", "dev", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
