"""SBDMS — a Service-Based Data Management System.

Reproduction of Subasu, Ziegler, Dittrich, Gall: *Architectural Concerns
for Flexible Data Management* (EDBT 2008 SETMDM workshop).

The public façade is :class:`SBDMS`: build a system from a deployment
profile, speak SQL to it, publish user services into it, and watch the
coordinator keep it alive.  Every layer is also importable directly —
``repro.core`` (the SOA kernel), ``repro.storage`` / ``repro.access`` /
``repro.data`` (the engine), ``repro.profiles`` (deployment profiles),
and ``repro.extensions`` (the Discussion scenarios' add-on services).
"""

from typing import Any, Optional, Sequence

from repro.core.kernel import SBDMSKernel
from repro.core.service import Service
from repro.data.database import Database, ResultSet
from repro.profiles import PROFILES, DeploymentProfile, build_system

__version__ = "1.0.0"


class SBDMS:
    """Convenience façade over a profile-built kernel.

    >>> system = SBDMS(profile="full")
    >>> system.sql("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
    >>> system.sql("INSERT INTO t VALUES (1, 'ada')")
    >>> system.sql("SELECT name FROM t")["rows"]
    [('ada',)]
    """

    def __init__(self, profile: str | DeploymentProfile = "full",
                 binding: str = "local",
                 database: Optional[Database] = None) -> None:
        built = build_system(profile, binding=binding, database=database)
        self.kernel: SBDMSKernel = built.kernel
        self.database: Database = built.database
        self.profile = built.profile
        self._built = built

    # -- data management -------------------------------------------------------

    def sql(self, statement: str, params: Sequence[Any] = ()) -> Any:
        """Run SQL through the Query service (late-bound via the kernel)."""
        return self.kernel.sql(statement, tuple(params))

    def query(self, statement: str,
              params: Sequence[Any] = ()) -> list[tuple]:
        return self.sql(statement, params)["rows"]

    # -- architecture operations ---------------------------------------------------

    def publish(self, service: Service):
        """Flexibility by extension: add a user service (Figure 5)."""
        return self.kernel.publish(service)

    def retire(self, service_name: str, force: bool = False) -> Service:
        """Downsizing (§2): remove a service, respecting policies."""
        return self.kernel.retire(service_name, force=force)

    def update(self, replacement: Service):
        """§3.4: update one service by stopping only the affected process."""
        return self.kernel.update(replacement)

    def monitor(self) -> dict:
        return self.kernel.monitor_sweep()

    @property
    def registry(self):
        return self.kernel.registry

    @property
    def coordinator(self):
        return self.kernel.coordinator

    @property
    def repository(self):
        return self.kernel.repository

    def snapshot(self) -> dict:
        snap = self.kernel.snapshot()
        snap["footprint"] = self._built.footprint()
        return snap

    def checkpoint(self) -> None:
        self.database.checkpoint()

    def shutdown(self) -> None:
        self.database.checkpoint()
        self.kernel.shutdown()


__all__ = [
    "SBDMS",
    "SBDMSKernel",
    "Service",
    "Database",
    "ResultSet",
    "PROFILES",
    "DeploymentProfile",
    "build_system",
    "__version__",
]
