"""Measurement records for migrations.

Every migration produces a :class:`MigrationStats`, the data behind the
paper's §4.1 numbers: per-round copied bytes (the pre-copy convergence),
the residual copied while frozen, and the freeze time itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import PAGE_SIZE


@dataclass
class RoundStats:
    """One pre-copy round."""

    round_index: int
    pages: int
    duration_us: int

    @property
    def bytes(self) -> int:
        """Bytes moved this round."""
        return self.pages * PAGE_SIZE


@dataclass
class MigrationStats:
    """Everything measured about one migration attempt."""

    lhid: int = 0
    started_at: int = 0
    #: Pre-copy rounds across all address spaces, in execution order.
    rounds: List[RoundStats] = field(default_factory=list)
    #: Pages copied after the freeze (the paper's 0.5--70 KB residual).
    residual_pages: int = 0
    #: When the freeze began / how long it lasted.
    freeze_started_at: int = 0
    freeze_us: int = 0
    #: Total microseconds from request to completion.
    total_us: int = 0
    #: Number of processes and address spaces transferred.
    n_processes: int = 0
    n_spaces: int = 0
    success: bool = False
    dest_host: Optional[str] = None
    error: Optional[str] = None
    #: Migration attempts made (1 on a first-try success; counts aborted
    #: + rolled-back tries when a retry budget is configured).
    attempts: int = 0

    @property
    def residual_bytes(self) -> int:
        """Bytes copied while the logical host was frozen."""
        return self.residual_pages * PAGE_SIZE

    @property
    def precopy_rounds(self) -> int:
        """Number of pre-copy rounds performed (before the freeze)."""
        return len(self.rounds)

    @property
    def total_copied_bytes(self) -> int:
        """All bytes moved, pre-copy plus residual."""
        return sum(r.bytes for r in self.rounds) + self.residual_bytes

    def add_round(self, pages: int, duration_us: int) -> None:
        """Record one pre-copy round."""
        self.rounds.append(RoundStats(len(self.rounds), pages, duration_us))

    def summary(self) -> str:
        """One-line human-readable result."""
        if not self.success:
            return f"migration of lh {self.lhid:#x} FAILED: {self.error}"
        return (
            f"migrated lh {self.lhid:#x} to {self.dest_host}: "
            f"{self.precopy_rounds} pre-copy rounds, "
            f"residual {self.residual_bytes // 1024} KB, "
            f"frozen {self.freeze_us / 1000:.1f} ms, "
            f"total {self.total_us / 1000:.0f} ms"
        )
