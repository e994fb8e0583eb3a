"""Remote program execution -- the paper's §2 facility.

A program is executed on another machine at the command-interpreter
level by ``prog args @ machine``, or on "a random idle machine" with
``prog args @ *``.  This package provides:

* the **program registry** of executable images (:mod:`program`),
* the **execution environment** handed to every program -- arguments,
  default I/O, environment variables and the name cache
  (:mod:`environment`),
* the **decentralized scheduler** that multicasts candidate-host queries
  to the program-manager group and takes the first response
  (:mod:`scheduler`),
* the **client library** (:mod:`api`): generator helpers a process body
  uses to execute programs locally or remotely, wait for them, and talk
  to the standard servers.
"""

from repro.execution.program import ProgramImage, ProgramRegistry
from repro.execution.environment import ProgramContext
from repro.execution.api import (
    ExecHandle,
    ExecSpec,
    exec_program,
    run_program,
    select_candidate_host,
    query_host_by_name,
    wait_program,
    write_stdout,
)

__all__ = [
    "ProgramImage",
    "ProgramRegistry",
    "ProgramContext",
    "ExecHandle",
    "ExecSpec",
    "exec_program",
    "run_program",
    "select_candidate_host",
    "query_host_by_name",
    "wait_program",
    "write_stdout",
]
