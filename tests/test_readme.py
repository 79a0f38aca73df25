"""Every example in README.md runs as written and exits 0."""

import shlex
import subprocess
from pathlib import Path

import pytest

from hyperdiff.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """Body of the first ``lang`` code block after the ``section`` heading."""
    start = README.index(f"```{lang}\n", README.index(section)) + len(lang) + 4
    return README[start : README.index("```", start)]


def _cli_cases():
    """Each `hyperdiff ...` line, preceded by the shell lines that prepare it."""
    cases, setup = [], []
    for line in _block("## CLI", "sh").splitlines():
        if not line or line.startswith("#"):
            continue
        if line.startswith("hyperdiff "):
            cases.append((tuple(setup), line))
            setup = []
        else:
            setup.append(line)
    assert not setup, f"README shell lines without a hyperdiff command: {setup}"
    return cases


CLI_CASES = _cli_cases()


@pytest.mark.parametrize(
    "setup, line", CLI_CASES, ids=[f"{i}-{shlex.split(line)[1]}" for i, (_, line) in enumerate(CLI_CASES)]
)
def test_cli_example(setup, line, tmp_path, monkeypatch):
    for shell_line in setup:
        subprocess.run(shell_line, shell=True, cwd=tmp_path, check=True)
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0


def test_library_example(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("## Library example", "python"), "README.md", "exec"), {})
