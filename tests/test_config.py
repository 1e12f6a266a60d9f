"""Every SolverConfig knob is read by the package, and every config flag of
the CLI sets one; a knob nothing reads, or a flag nothing maps, is dead.
Out-of-range knobs are refused when the config is built. No knob turns on
invariant checks inside the solvers: those live in the tests."""
import argparse
import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from minplus import cli
from minplus.config import SolverConfig
from minplus.modulus import find_good_modulus
from minplus.shifting import settle_by_halving

PACKAGE = Path(cli.__file__).resolve().parent
FIELDS = [f.name for f in dataclasses.fields(SolverConfig)]


@pytest.mark.parametrize("name", FIELDS)
def test_every_config_field_is_read(name):
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "config.py"]
    read = re.compile(rf"\bconfig\.{name}\b")
    assert any(read.search(src) for src in sources), f"nothing reads SolverConfig.{name}"


def test_every_config_flag_sets_a_field():
    parser = argparse.ArgumentParser()
    cli._add_config_flags(parser)
    flags = vars(parser.parse_args([]))
    assert set(flags) <= set(FIELDS)
    assert cli._config_from(argparse.Namespace(**flags)) == SolverConfig()


@pytest.mark.parametrize("field,value", [
    ("R", 3),
    ("R", 4.5),
    ("R", True),
    ("oracle_limit", -1),
    ("oracle_limit", 2.5),
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


@pytest.mark.parametrize("field,value", [("R", 4), ("slack", 1e-3), ("oracle_limit", 0)])
def test_smallest_valid_knob_is_accepted(field, value):
    assert getattr(SolverConfig(**{field: value}), field) == value


def test_the_knob_set_is_engine_R_slack_and_oracle_limit():
    assert FIELDS == ["engine", "R", "slack", "oracle_limit"]
    with pytest.raises(TypeError):
        SolverConfig(test_mode=True)


@pytest.mark.parametrize("fn", [find_good_modulus, settle_by_halving])
def test_no_solver_takes_a_test_mode(fn):
    assert "test_mode" not in inspect.signature(fn).parameters
