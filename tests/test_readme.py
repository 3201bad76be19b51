"""Every `planar-pendulum` command in the README's code blocks runs as written."""

import csv
import re
import shlex
import warnings
from pathlib import Path

import pytest

from planar_pendulum.cli import main, parse_range

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    text = README.read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["planar-pendulum"] and "<command>" not in line:
                commands.append(words[1:])
    return commands


COMMANDS = readme_commands()


def test_readme_lists_every_command():
    seen = {argv[0] for argv in COMMANDS}
    assert seen == {"spectrum", "crossings", "switch-off", "switch-on",
                    "propagate", "topology-map", "validate"}


def _flag(argv, name):
    return argv[argv.index(name) + 1]


@pytest.mark.parametrize("argv", [a for a in COMMANDS if a[0] != "validate"],
                         ids=lambda a: " ".join(a))
def test_readme_example_runs(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # an example that warns on every run would teach users to ignore warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(list(argv)) == 0
    output = _flag(argv, "--output") if "--output" in argv else f"{argv[0]}.csv"
    with open(tmp_path / output) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 2, f"{output} has no data rows"
    if argv[0] == "topology-map":
        # one row per point of the two inclusive ranges
        etas = parse_range(_flag(argv, "--eta-range"))
        zetas = parse_range(_flag(argv, "--zeta-range"))
        assert len(rows) == 1 + len(etas) * len(zetas)
