"""Exception hierarchy for the SBDMS reproduction.

Every error raised by the library derives from :class:`SBDMSError` so that
callers can catch library failures with a single ``except`` clause.  The
sub-hierarchies mirror the architectural layers of the paper: storage,
access, data, the SOA kernel, and the extension services.
"""

from __future__ import annotations


class SBDMSError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------


class StorageError(SBDMSError):
    """Base class for storage-layer failures."""


class DiskError(StorageError):
    """A simulated block device failed (bad block, out of range, closed)."""


class DiskFullError(DiskError):
    """The block device has no capacity left for an allocation."""


class ChecksumError(DiskError):
    """A page failed checksum verification on read."""


class BufferPoolError(StorageError):
    """Buffer pool misuse or exhaustion."""


class PageNotPinnedError(BufferPoolError):
    """An unpin was attempted for a page that is not pinned."""


class BufferPoolFullError(BufferPoolError):
    """All frames are pinned; no victim page can be evicted."""


class FileManagerError(StorageError):
    """A database file operation failed (unknown file, duplicate name)."""


class WALError(StorageError):
    """Write-ahead log corruption or protocol violation."""


class WALFullError(WALError):
    """The write-ahead log device is out of space.

    Raised on the append/flush path when the underlying device reports
    ``ENOSPC`` (:class:`DiskFullError`).  Transactions translate it into a
    clean abort plus backpressure (checkpoint + WAL truncation) so the
    engine stays usable while the log is full.
    """


# ---------------------------------------------------------------------------
# Access layer
# ---------------------------------------------------------------------------


class AccessError(SBDMSError):
    """Base class for access-layer failures."""


class RecordCodecError(AccessError):
    """A record could not be encoded or decoded against its schema."""


class PageLayoutError(AccessError):
    """Slotted-page structural violation (bad slot, overflow)."""


class IndexError_(AccessError):
    """Index structural failure (duplicate key where unique, missing key)."""


class DuplicateKeyError(IndexError_):
    """Insertion of a key that already exists in a unique index."""


class KeyNotFoundError(IndexError_):
    """Lookup or deletion of a key that is absent."""


# ---------------------------------------------------------------------------
# Data layer
# ---------------------------------------------------------------------------


class DataError(SBDMSError):
    """Base class for logical data-layer failures."""


class CatalogError(DataError):
    """Catalog inconsistency (unknown or duplicate table/index/view)."""


class SchemaError(DataError):
    """Schema violation (unknown column, arity or type mismatch)."""


class SQLError(DataError):
    """Base class for SQL front-end failures."""


class SQLSyntaxError(SQLError):
    """The statement could not be tokenized or parsed."""


class SQLPlanError(SQLError):
    """The statement parsed but could not be planned (unknown names, types)."""


class TransactionError(DataError):
    """Transaction protocol violation (use after commit, deadlock, ...)."""


class DeadlockError(TransactionError):
    """The lock manager chose this transaction as a deadlock victim."""


class LockTimeoutError(TransactionError):
    """A lock could not be acquired within its timeout."""


class SerializationError(TransactionError):
    """Concurrency conflict under snapshot-based isolation.

    Two sources: the *first-updater-wins* rule (a transaction tried to
    update or delete a row whose latest version was created — or whose
    deletion was committed — by a transaction concurrent with its
    snapshot), and under ``isolation="serializable"`` an *SSI pivot
    abort* (the transaction sits at the apex of two consecutive
    rw-antidependency edges — a dangerous structure that could close a
    non-serializable cycle; see :mod:`repro.data.ssi`).  Either way,
    retrying the whole transaction on a fresh snapshot is the standard
    client response.
    """


class CommitOutcomeUnknownError(TransactionError):
    """A commit record was written but could not be forced to disk.

    The transaction's COMMIT record sits in the WAL buffer: a later
    successful flush (or group-commit leader) makes the commit durable,
    while a crash before that point rolls it back during recovery.  The
    client must treat the transaction outcome as indeterminate until it
    re-reads the data.
    """


class InjectedCrashError(SBDMSError):
    """A crash point armed by the fault-injection framework fired.

    Raised from inside storage/access/data-layer operations to simulate a
    process crash at that exact point: everything already durable stays,
    everything buffered in memory is lost when the test reopens the
    database over the same devices.
    """


# ---------------------------------------------------------------------------
# SOA kernel
# ---------------------------------------------------------------------------


class KernelError(SBDMSError):
    """Base class for SOA-kernel failures."""


class ServiceError(KernelError):
    """A service failed while executing an operation."""


class ServiceStateError(KernelError):
    """An operation was attempted in an illegal lifecycle state."""


class ServiceNotFoundError(KernelError):
    """Registry lookup failed to locate a matching service."""


class ContractViolationError(KernelError):
    """A call or composition violates a service contract or policy."""


class IncompatibleInterfaceError(KernelError):
    """Two interfaces cannot be wired together, even through adaptation."""


class AdaptationError(KernelError):
    """No adaptor could be generated to mediate between two contracts."""


class CompositionError(KernelError):
    """Workflow composition failed (no viable workflow, cycle, ...)."""


class ResourceExhaustedError(KernelError):
    """A resource pool cannot satisfy an allocation request."""


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------


class ExtensionError(SBDMSError):
    """Base class for extension-service failures."""


class XMLParseError(ExtensionError):
    """The XML subset parser rejected a document."""


class XPathError(ExtensionError):
    """A path query is malformed or unsupported."""


class StreamError(ExtensionError):
    """Stream-service misuse (unknown stream, bad window spec)."""


class ProcedureError(ExtensionError):
    """Stored-procedure registration or invocation failure."""


class ReplicationError(ExtensionError):
    """Replication protocol failure (diverged replica, unknown peer)."""
