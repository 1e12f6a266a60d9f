"""Every SolverConfig knob is read by the package, and every config flag of
the CLI sets one; a knob nothing reads, or a flag nothing maps, is dead."""
import argparse
import dataclasses
import re
from pathlib import Path

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


def test_every_config_flag_sets_a_field():
    parser = argparse.ArgumentParser()
    cli._add_config_flags(parser)
    flags = vars(parser.parse_args([]))
    assert set(flags) <= set(FIELDS)
    assert cli._config_from(argparse.Namespace(**flags)) == SolverConfig()
