"""The benchmark's workload table.

This module imports only the standard library, so a worker can read its
memory and time bounds before numpy loads.
"""

from __future__ import annotations

from dataclasses import dataclass

#: cap on each worker's address space (RLIMIT_AS), set inside the worker
MEM_MB = 4096
#: bound on the wall time of each solve
SOLVE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind selects the input: "example2" is generated inside the worker by
    the package's own make_example2(size); "fdm2d" (size = grid side) and
    "dense" (size = n) are generated by the benchmark from the seed and
    handed to the program as problem files, `instances` of them per run.
    """

    name: str
    kind: str
    size: int
    tol: float
    truncate_tol: float = 0.0
    instances: int = 0

    def solver_kwargs(self) -> dict:
        return {"tol": self.tol, "truncate_tol": self.truncate_tol}


WORKLOADS = {w.name: w for w in (
    Workload("ex2-n300k", "example2", 300_000, tol=1e-12),
    Workload("fdm2d-n1024", "fdm2d", 32, tol=1e-10, truncate_tol=1e-13,
             instances=1),
    Workload("dense-n256", "dense", 256, tol=1e-12, instances=8),
)}

#: the same three workloads at reduced size, for the smoke mode
SMOKE_WORKLOADS = {w.name: w for w in (
    Workload("ex2-n300k", "example2", 10_000, tol=1e-12),
    Workload("fdm2d-n1024", "fdm2d", 16, tol=1e-10, truncate_tol=1e-13,
             instances=1),
    Workload("dense-n256", "dense", 64, tol=1e-12, instances=2),
)}
