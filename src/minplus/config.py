"""Runtime knobs for the solvers and the CLI."""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .core import is_integer

ENGINES = ("det", "naive", "det-reference")


@dataclass(frozen=True)
class SolverConfig:
    """Options threaded through the product and convolution drivers.

    engine selects the candidate-verification backend: "det" is the batched
    deterministic kernel, "naive" the brute-force product, "det-reference"
    the literal one-instance-at-a-time verification loop (small inputs only;
    row and convolution drivers), which shares one audited modulus across
    the (s, t) instances of a recursion level. R overrides the prime-pool
    range (an integer, at least 4). slack scales the good-modulus audit and
    must be finite and positive. The drivers shift by the fixed modulus
    shifting.SHIFT_M and the verify solvers by the instance's own M; the
    column driver searches no modulus and refuses R or slack set away from
    their defaults. oracle_limit caps the brute-force volume the CLI's check
    and stats commands accept (a non-negative integer). No knob turns on
    invariant checks: the tests check the halving sandwich, the column
    driver's two-pointer masks and the good-modulus audit.
    """

    engine: str = "det"
    R: int | None = None
    slack: float | None = None
    oracle_limit: int = 1 << 22

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if self.R is not None and not (is_integer(self.R) and self.R >= 4):
            raise ValueError("range parameter R must be an integer at least 4")
        if not (is_integer(self.oracle_limit) and self.oracle_limit >= 0):
            raise ValueError("oracle_limit must be a non-negative integer")
        real = isinstance(self.slack, Real) and not isinstance(self.slack, bool)
        if self.slack is not None and not (real and math.isfinite(self.slack) and self.slack > 0):
            raise ValueError("slack must be a finite and positive real number")
