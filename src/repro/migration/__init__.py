"""Preemptable migration of logical hosts -- the paper's §3 facility.

The complete procedure (paper §3.1):

1. locate another workstation willing to accommodate the logical host
   (via the program-manager group);
2. initialize the new host to accept it (a *shell* copy under a
   different logical-host-id);
3. **pre-copy** the state: one full copy of the address spaces, then
   repeated copies of the pages dirtied meanwhile, until the dirty set
   is small or stops shrinking;
4. freeze the logical host and complete the copy (final dirty pages plus
   the kernel-server/program-manager state);
5. unfreeze the new copy, delete the old one, and let references rebind
   lazily through the binding-cache machinery.

:mod:`manager` holds the one copy of this procedure
(:class:`~repro.migration.manager.Migration`), run as a high-priority
process on the source host: steps 1, 2, 4 and 5, the §3.1.3 rollback
and the commit.  A method supplies only its two copy phases, one while
the program runs and one while it is frozen: pre-copy (:mod:`precopy`,
the step-3 rounds and the policy knobs, and the manager's own phases),
the §3.2 virtual-memory variant (:mod:`vm_flush`: flush to the file
server, then the residual flush) and the freeze-and-copy strawman the
paper argues against (:mod:`simple`: nothing live, everything frozen).
:mod:`transfer` builds the kernel-state bundle of step 4;
:mod:`residual` audits residual dependencies (§3.3).
"""

from repro.migration.stats import MigrationStats, RoundStats
from repro.migration.precopy import PrecopyPolicy, precopy_space, final_copy
from repro.migration.transfer import extract_bundle, space_descriptors, process_descriptors
from repro.migration.manager import migration_manager_body, run_migration
from repro.migration.simple import run_freeze_and_copy
from repro.migration.residual import ResidualAuditor, residual_dependencies

__all__ = [
    "MigrationStats",
    "RoundStats",
    "PrecopyPolicy",
    "precopy_space",
    "final_copy",
    "extract_bundle",
    "space_descriptors",
    "process_descriptors",
    "migration_manager_body",
    "run_migration",
    "run_freeze_and_copy",
    "ResidualAuditor",
    "residual_dependencies",
]
