"""E7 (paper §4.1): pre-copy round counts of the measured programs.

The scenario is the E-series one (``benchmarks/bench_freeze_time.py``):
each program runs remotely on ws1 and is migrated off 1 s in.  Round
counts are integers, so they are pinned exactly (``PINNED_ROUNDS``,
shared with the benchmark; ``docs/PAPER_MAP.md`` says why the optimizer
and assembler run one round where the paper reports "usually 2").
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parents[2] / "benchmarks"))

from bench_freeze_time import PINNED_ROUNDS, _migrate_mid_run  # noqa: E402


@pytest.mark.parametrize("program", sorted(PINNED_ROUNDS))
def test_e7_precopy_rounds(program):
    stats = _migrate_mid_run(program)
    assert stats.success, stats.error
    assert stats.precopy_rounds == PINNED_ROUNDS[program]
