"""Runtime knobs for the solvers and the CLI."""
from __future__ import annotations

import math
from dataclasses import dataclass

ENGINES = ("det", "naive", "det-reference")
COL_ENGINES = ("twopointer", "verification")


@dataclass(frozen=True)
class SolverConfig:
    """Options threaded through the product and convolution drivers.

    engine selects the candidate-verification backend: "det" is the batched
    deterministic kernel, "naive" the brute-force product, "det-reference"
    the literal one-instance-at-a-time verification loop (small inputs only;
    row and convolution drivers), which shares one audited modulus across
    the (s, t) instances of a recursion level. col_engine selects how the
    column driver checks its rotated candidates: "twopointer" tests the
    constant-block starts of the rotated rows directly, vectorised in blocks
    of narrow integers and exact on any input; "verification" runs the
    equality scan. M and R override the promise modulus and the prime-pool
    range (at least 4). slack scales the good-modulus audit and must be
    finite and positive. oracle_limit caps the brute-force volume the CLI's
    check and stats commands accept. test_mode tests every candidate and
    asserts the sandwich 2C' <= C <= 2C' + 2.
    """

    engine: str = "det"
    M: int | None = None
    R: int | None = None
    slack: float | None = None
    oracle_limit: int = 1 << 22
    test_mode: bool = False
    col_engine: str = "twopointer"

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if self.col_engine not in COL_ENGINES:
            raise ValueError(f"col_engine must be one of {COL_ENGINES}")
        if self.M is not None and (self.M <= 0 or self.M % 100):
            raise ValueError("M override must be a positive multiple of 100")
        if self.R is not None and self.R < 4:
            raise ValueError("range parameter R must be at least 4")
        if self.slack is not None and not (math.isfinite(self.slack) and self.slack > 0):
            raise ValueError("slack must be finite and positive")
