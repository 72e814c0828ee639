"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class.  Each subclass documents the situation it signals
and carries enough context (in its message and, where useful, attributes) to
diagnose the problem without reading library internals.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class DatasetError(ReproError):
    """Raised when a transactional dataset is malformed or cannot be built.

    Typical causes: empty records where they are not allowed, records that
    are not iterables of hashable terms, or a parse failure while reading a
    transaction file.
    """


class DatasetFormatError(DatasetError):
    """Raised when a serialized dataset (file or JSON blob) cannot be parsed."""


class ParameterError(ReproError):
    """Raised when anonymization parameters are invalid.

    Examples: ``k < 1``, ``m < 1``, a ``max_cluster_size`` smaller than
    ``k``, or a negative privacy budget for DiffPart.
    """


class AnonymityViolationError(ReproError):
    """Raised when a published dataset fails its anonymity guarantee.

    Carries the offending itemset and its support so that tests and callers
    can report precisely which combination breaks k^m-anonymity.
    """

    def __init__(self, message: str, itemset=None, support=None):
        super().__init__(message)
        self.itemset = tuple(sorted(itemset)) if itemset is not None else None
        self.support = support


class RefinementError(ReproError):
    """Raised when the refining step produces an inconsistent joint cluster."""


class ReconstructionError(ReproError):
    """Raised when a disassociated dataset cannot be reconstructed.

    This indicates corrupted published data (e.g. a record chunk with more
    sub-records than the declared cluster size).
    """


class HierarchyError(ReproError):
    """Raised for malformed generalization hierarchies (cycles, orphans,
    terms missing from the hierarchy domain)."""


class MiningError(ReproError):
    """Raised when frequent-itemset mining receives invalid input
    (e.g. a non-positive ``top_k`` or a negative minimum support)."""


class StoreError(ReproError):
    """Raised when a persistent shard store cannot be used.

    The durable state of a sharded run (:mod:`repro.stream.store`) refuses
    to touch a store that would corrupt the publication: an unreadable or
    wrong-version database, a store created under different
    output-affecting parameters, a malformed window snapshot, a delta that
    deletes a record the store does not hold, a delta that would change
    the shard plan fingerprint (re-anonymizing only dirty shards under a
    different routing would silently diverge from a cold run), or a
    ``delta_id`` replayed with different contents.  The HTTP front door
    answers it with ``409`` (kind ``checkpoint_conflict``).
    """


class DeadlineExceededError(ReproError):
    """Raised when a request exceeds its execution deadline.

    Checked between pipeline phases (and at job dequeue in the service
    layer), so a deadline aborts a run at the next phase boundary instead
    of mid-phase.  ``where`` names the check point that observed the expiry
    (e.g. ``"engine.refine"``); ``budget`` is the deadline in seconds.
    """

    def __init__(self, message: str, *, where: str = "", budget: float = 0.0):
        super().__init__(message)
        self.where = where
        self.budget = budget


class FaultInjected(ReproError):
    """Raised by an armed :class:`repro.faults.FaultPlan` at an injection point.

    Only the deterministic fault-injection harness (:mod:`repro.faults`)
    raises this; production code never does.  ``point`` names the injection
    point that fired and ``hit`` the 1-based arrival count that triggered
    it.
    """

    def __init__(self, point: str, hit: int):
        super().__init__(f"injected fault at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class ServiceError(ReproError):
    """Base class for errors raised by the :mod:`repro.service` layer."""


class ServiceClosedError(ServiceError):
    """Raised when a request is issued to (or the lifecycle of) a closed
    :class:`~repro.service.AnonymizationService` is violated: ``run()`` /
    ``submit()`` after ``close()``, or a double ``close()``."""


class ServiceSaturatedError(ServiceError):
    """Raised by non-blocking :meth:`~repro.service.AnonymizationService.submit`
    when the bounded job queue is full (the service is saturated)."""
