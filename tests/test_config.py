"""Every SolverConfig knob is read by the package, and each CLI command
takes only the options it reads: its config flags build a SolverConfig, and
check alone adds --oracle-limit. A knob nothing reads, or a flag nothing
maps, is dead. Out-of-range knobs are refused when the config is built. No
knob turns on invariant checks inside the solvers, and no test mode exists
in the package: those checks live in the tests."""
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from minplus import cli
from minplus.config import SolverConfig

PACKAGE = Path(cli.__file__).resolve().parent
FIELDS = [f.name for f in dataclasses.fields(SolverConfig)]


@pytest.mark.parametrize("name", FIELDS)
def test_every_config_field_is_read(name):
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "config.py"]
    read = re.compile(rf"\bconfig\.{name}\b")
    assert any(read.search(src) for src in sources), f"nothing reads SolverConfig.{name}"


# Each command's parsed options: its own arguments, then its config flags.
COMMAND_OPTIONS = {
    "run": {"file", "out", "report", "engine", "R", "slack"},
    "check": {"file", "oracle_limit", "engine", "R", "slack"},
    "bench": {"files", "out_dir", "jobs", "summary", "engine", "R", "slack"},
    "stats": {"file", "R", "slack"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_each_command_takes_only_its_own_options(command):
    required = ["--out-dir", "d"] if command == "bench" else []
    args = cli.build_parser().parse_args([command, "x.json", *required])
    options = vars(args)
    assert options.pop("command") == command
    assert set(options) == COMMAND_OPTIONS[command]
    assert cli._config_from(args) == SolverConfig()


@pytest.mark.parametrize("argv", [
    ["run", "x.json", "--oracle-limit", "5"],
    ["bench", "x.json", "--out-dir", "d", "--oracle-limit", "5"],
    ["stats", "x.json", "--engine", "naive"],
    ["stats", "x.json", "--test-mode"],
], ids=["run-oracle-limit", "bench-oracle-limit", "stats-engine", "stats-test-mode"])
def test_an_option_the_command_does_not_read_is_refused(argv, capsys):
    assert cli.main(argv) == 2
    assert "unrecognized arguments" in json.loads(capsys.readouterr().err)["reason"]


@pytest.mark.parametrize("field,value", [
    ("engine", "auto"),
    ("R", 3),
    ("R", 4.5),
    ("R", True),
    ("R", "4"),
    ("slack", 0.0),
    ("slack", -1.0),
    ("slack", float("nan")),
    ("slack", float("inf")),
    ("slack", True),
    ("slack", np.bool_(True)),
    ("slack", "1"),
    ("slack", 1 + 0j),
])
def test_out_of_range_knob_is_refused(field, value):
    with pytest.raises(ValueError):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("field,value", [("R", 4), ("slack", 1e-3)])
def test_smallest_valid_knob_is_accepted(field, value):
    assert getattr(SolverConfig(**{field: value}), field) == value


def test_the_knob_set_is_engine_R_and_slack():
    assert FIELDS == ["engine", "R", "slack"]
    for knob in ("test_mode", "oracle_limit"):
        with pytest.raises(TypeError):
            SolverConfig(**{knob: True})


def test_no_solver_takes_a_test_mode():
    for path in sorted(PACKAGE.glob("*.py")):
        assert not re.search(r"test[_-]mode", path.read_text()), path.name
