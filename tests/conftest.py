import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperdiff

SRC = str(Path(hyperdiff.__file__).resolve().parents[1])


@pytest.fixture
def python_child():
    """Run a script in a fresh interpreter that imports this hyperdiff; returns the process."""

    def run(script: str, *args: str, timeout: float = 60) -> subprocess.CompletedProcess:
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-c", script, *args],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    return run
