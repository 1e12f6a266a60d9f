"""The good-modulus search's full report, pinned on fixed instances.

tests/pinned/modulus_reports.json holds ModulusReport.to_dict() of
find_good_modulus on the three golden verify-* instances and on every
recursion level's first-live-pair instance of one product-row (n=64) and one
convolution (n=320) det solve per generator family. Regenerate it with

    PYTHONPATH=src:tests python tests/test_modulus_pinned.py

only when the search itself is meant to change.
"""
import json
from pathlib import Path

from helpers import conv_level_instances, row_level_instances

from minplus import cli
from minplus.config import SolverConfig
from minplus.modulus import find_good_modulus

TESTS = Path(__file__).resolve().parent
PINNED = TESTS / "pinned" / "modulus_reports.json"
SEED = 1


def pinned_instances():
    """(name, instance) of every pinned search, in file order."""
    for kind in ("verify-row", "verify-col", "verify-conv"):
        path = next((TESTS / "golden").glob(f"{kind}-n*.json"))
        inst = cli._instance_from(cli.load_payload(path))
        yield path.stem, inst
    for family in cli.FAMILIES:
        for kind, n, levels in (("product-row", 64, row_level_instances),
                                ("conv", 320, conv_level_instances)):
            payload = cli.generate_instance(kind, n, n, SEED, family)
            for depth, inst in levels(payload):
                yield f"{kind}-n{n}/{family}/seed{SEED}/depth{depth}", inst


def report_of(inst):
    cfg = SolverConfig()
    _, rep = find_good_modulus(inst, R=cfg.R, slack=cfg.slack)
    return json.loads(json.dumps(rep.to_dict()))


def test_search_reports_match_pinned():
    want = json.loads(PINNED.read_text())
    got = {name: report_of(inst) for name, inst in pinned_instances()}
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    reports = {name: report_of(inst) for name, inst in pinned_instances()}
    PINNED.write_text(json.dumps(reports, indent=1) + "\n")
    print(f"wrote {len(reports)} reports to {PINNED}")
