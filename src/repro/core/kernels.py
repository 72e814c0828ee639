"""Optional vectorized kernels behind the interned execution core.

The encoded pipeline's remaining hot loops are Python-loop-bound over small
integers: HORPART re-counts term supports record by record, combination
checks walk accepted-term bitmasks one ``&``/``bit_count`` at a time, and
REFINE's shared-chunk assembly re-walks row bits per term.  This module
provides the numpy counterparts -- each one a thin, allocation-conscious
kernel over a contiguous buffer -- behind a pure-Python fallback, selected
at run time:

* :class:`RecordIdBuffer` -- records flattened into one contiguous int32
  term-id buffer (CSR layout).  Term supports of any row subset become a
  single gather + ``bincount`` instead of a per-record ``Counter.update``
  loop (HORPART's node counting), and per-term posting arrays fall out of
  one stable argsort.
* :class:`PackedSelection` / :func:`packed_km_anonymous` -- term row-masks
  packed once into a ``uint64`` word matrix, so the support of every
  m-way combination extending a candidate is one vectorized
  ``&`` + ``bitwise_count`` over the accepted batch instead of a
  per-candidate bigint DFS (:class:`~repro.core.anonymity.BitsetChunkChecker`
  and the whole-chunk k^m check).
* :func:`assemble_subrecords` -- shared-chunk sub-records reassembled from
  the packed row matrix via one ``unpackbits`` instead of per-row bigint
  shifts (REFINE's ``build_chunks``).

**Backend selection.**  :func:`resolve` picks ``"numpy"`` or ``"python"``
from, in priority order: an explicit argument, the override installed by
:func:`use` (every run is wrapped in one, and tests use it to force a
backend), the ``REPRO_KERNELS`` environment variable, and finally ``auto``
(numpy when importable).  Without numpy >= 2.0 the pure-Python kernels
are the only path.  Both
backends make bit-for-bit identical decisions -- the numpy kernels change
*how* supports and popcounts are computed, never *which* comparisons run --
which the equivalence suite (``tests/test_kernels.py``) enforces on
randomized inputs.

**Size thresholds.**  Vectorization pays above a batch size; below it, the
ufunc dispatch overhead loses to CPython's small-int bitops (a 30-row
cluster mask is a single machine word).  The packed-mask kernels therefore
engage only for row counts of at least :func:`packed_min_rows` even when
the numpy backend is selected; the counting kernel has no threshold (the
gather + ``bincount`` wins at every node size measured).  The default
(:data:`PACKED_MIN_ROWS`) can be overridden for a scope (:func:`use`),
per process (``$REPRO_PACKED_MIN_ROWS``) or by monkeypatching the module
constant in tests.  Neither knob is a run parameter: they only move work
between equivalent kernels, never the output.
"""

from __future__ import annotations

import contextvars
import os
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from typing import Optional

from repro.exceptions import ParameterError

try:  # pragma: no cover - exercised implicitly by both CI variants
    import numpy as np

    if not hasattr(np, "bitwise_count"):  # numpy < 2.0: no vectorized popcount
        np = None  # type: ignore[assignment]
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

#: Environment variable forcing the kernel backend (``python`` / ``numpy`` /
#: ``auto``); overridden by a :func:`use` scope, see :func:`resolve`.
KERNELS_ENV = "REPRO_KERNELS"

#: Accepted kernel-backend names.
KERNEL_CHOICES = ("auto", "python", "numpy")

#: Default minimum row count for the packed-mask kernels (combination
#: checking and sub-record assembly).  Below this, one row mask fits a few
#: machine words and CPython's bigint ``&``/``bit_count`` beats the ufunc
#: dispatch overhead; the crossover measured in
#: ``benchmarks/bench_kernels.py`` sits around one thousand rows.  Resolve
#: the effective value through :func:`packed_min_rows`.
PACKED_MIN_ROWS = 1024

#: Environment variable overriding :data:`PACKED_MIN_ROWS`; overridden in
#: turn by a :func:`use` scope, see :func:`packed_min_rows`.
PACKED_MIN_ROWS_ENV = "REPRO_PACKED_MIN_ROWS"

#: The :func:`use` override.  A context variable, not a
#: plain module global: concurrent ``anonymize`` runs in different threads
#: each see (and restore) their own forced backend.
_forced_backend: contextvars.ContextVar = contextvars.ContextVar(
    "repro_kernels_forced", default=None
)

#: :func:`use` override of the packed-kernel crossover
#: (same scoping rules as the backend override).
_forced_min_rows: contextvars.ContextVar = contextvars.ContextVar(
    "repro_packed_min_rows_forced", default=None
)


def numpy_available() -> bool:
    """True when the numpy kernels can run (numpy >= 2.0 importable)."""
    return np is not None


def validate_choice(choice: str) -> str:
    """Normalize a kernel-backend name, raising on anything unknown.

    The single source of the membership rule: :func:`resolve` and
    :func:`use` both validate through here, so the choices and the error
    message cannot drift apart.
    """
    choice = str(choice).lower()
    if choice not in KERNEL_CHOICES:
        raise ParameterError(
            f"kernels must be one of {KERNEL_CHOICES}, got {choice!r}"
        )
    return choice


def validate_min_rows(value) -> int:
    """Normalize a packed-kernel row threshold, raising on anything invalid.

    Shared by :func:`packed_min_rows` (env override) and :func:`use` so
    the accepted values and the error message cannot drift apart.
    """
    try:
        coerced = int(value)
        if isinstance(value, bool) or coerced != float(value):
            raise ValueError
        value = coerced
    except (TypeError, ValueError):
        raise ParameterError(
            f"packed_min_rows must be a positive integer, got {value!r}"
        ) from None
    if value < 1:
        raise ParameterError(f"packed_min_rows must be >= 1, got {value}")
    return value


def packed_min_rows(choice: Optional[int] = None) -> int:
    """Resolve the effective packed-kernel row threshold.

    Priority: explicit ``choice`` argument, then the :func:`use`
    override, then
    ``$REPRO_PACKED_MIN_ROWS``, then the :data:`PACKED_MIN_ROWS` module
    constant (which tests may monkeypatch directly).
    """
    if choice is not None:
        return validate_min_rows(choice)
    forced = _forced_min_rows.get()
    if forced is not None:
        return forced
    env = os.environ.get(PACKED_MIN_ROWS_ENV)
    if env:
        return validate_min_rows(env)
    return PACKED_MIN_ROWS


def resolve(choice: Optional[str] = None) -> str:
    """Resolve the active kernel backend to ``"python"`` or ``"numpy"``.

    Priority: explicit ``choice`` argument, then the :func:`use`
    override, then ``$REPRO_KERNELS``, then ``auto``.
    ``auto`` selects numpy when it is importable.  Requesting ``numpy``
    without numpy installed (or with numpy < 2.0, which lacks
    ``bitwise_count``) raises :class:`~repro.exceptions.ParameterError`
    instead of silently running the fallback.
    """
    # `or` short-circuits: a forced backend never touches the environment
    # (resolve sits on hot paths where repeated env reads are measurable).
    candidate = (
        choice or _forced_backend.get() or os.environ.get(KERNELS_ENV) or "auto"
    )
    candidate = validate_choice(candidate)
    if candidate == "auto":
        return "numpy" if np is not None else "python"
    if candidate == "numpy" and np is None:
        raise ParameterError(
            "numpy kernels requested but numpy (>= 2.0) is not importable; "
            "use kernels='python' or unset REPRO_KERNELS"
        )
    return candidate


@contextmanager
def use(choice: Optional[str], min_rows: Optional[int] = None):
    """Force the kernel backend (and crossover) for a ``with`` block.

    The engine wraps each ``anonymize`` call in
    ``use(resolve(), packed_min_rows())`` so every helper that resolves
    lazily (checker construction, chunk assembly) sees one consistent
    backend and threshold for the whole run; tests open an outer scope to
    force a backend or crossover.  ``None`` keeps the surrounding
    resolution in effect for that knob: an enclosing scope's override,
    else the environment / auto / default.  The overrides live in context
    variables, so concurrent runs in other threads are unaffected.
    """
    choice = _forced_backend.get() if choice is None else validate_choice(choice)
    if min_rows is None:
        min_rows = _forced_min_rows.get()
    else:
        min_rows = validate_min_rows(min_rows)
    token = _forced_backend.set(choice)
    rows_token = _forced_min_rows.set(min_rows)
    try:
        yield
    finally:
        _forced_min_rows.reset(rows_token)
        _forced_backend.reset(token)


# --------------------------------------------------------------------------- #
# kernel 1: contiguous-buffer term counting (HORPART)
# --------------------------------------------------------------------------- #
class RecordIdBuffer:
    """Records flattened into one contiguous int32 term-id buffer (CSR).

    ``ids`` holds every record's term ids back to back; ``indptr[i]`` is
    the offset of record ``i``'s run.  Term supports of any row subset are
    one ragged gather plus one ``bincount`` -- the vectorized form of
    HORPART's per-node ``Counter.update`` loop -- and per-term posting
    arrays (sorted record indices) fall out of a single stable argsort,
    built lazily on first membership query.

    With ``compact=True`` the buffer remaps the ids it actually contains
    onto the dense range ``0..U-1`` (``term_ids`` maps a compact id back
    to the original); every count array is then sized by the buffer's
    *distinct* terms rather than by the largest original id.  HORPART
    uses this because under shard-lifetime vocabulary reuse a late stream
    window can hold arbitrarily large ids while containing only a few
    distinct terms -- without compaction its per-node arrays would scale
    with the shard's cumulative vocabulary instead of the window's.

    Requires the numpy backend; callers guard on :func:`numpy_available`.
    """

    __slots__ = (
        "ids",
        "indptr",
        "lengths",
        "num_terms",
        "num_records",
        "term_ids",
        "_posting_rows",
        "_posting_starts",
    )

    def __init__(
        self,
        records: Sequence[frozenset],
        num_terms: Optional[int] = None,
        compact: bool = False,
    ):
        count = len(records)
        self.num_records = count
        self.lengths = np.fromiter(
            (len(r) for r in records), dtype=np.int64, count=count
        )
        total = int(self.lengths.sum())
        self.indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=self.indptr[1:])
        self.ids = np.fromiter(
            (tid for record in records for tid in record), dtype=np.int32, count=total
        )
        self.term_ids: Optional[np.ndarray] = None
        if compact and total:
            unique, inverse = np.unique(self.ids, return_inverse=True)
            self.ids = inverse.astype(np.int32, copy=False)
            self.term_ids = unique
            num_terms = len(unique)
        elif num_terms is None:
            num_terms = int(self.ids.max()) + 1 if total else 0
        self.num_terms = num_terms
        self._posting_rows: Optional[np.ndarray] = None
        self._posting_starts: Optional[np.ndarray] = None

    def counts(self, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Term supports (length ``num_terms``) of the records at ``rows``.

        ``rows=None`` counts the whole buffer.  The gather materializes the
        flat positions of every selected record's id run via the standard
        ``repeat`` + ``arange`` trick, so no Python-level per-record loop
        runs.
        """
        if rows is None:
            return np.bincount(self.ids, minlength=self.num_terms)
        starts = self.indptr[rows]
        lens = self.lengths[rows]
        total = int(lens.sum())
        if total == 0:
            return np.zeros(self.num_terms, dtype=np.int64)
        cum = np.cumsum(lens)
        offsets = np.repeat(starts - (cum - lens), lens)
        positions = offsets + np.arange(total, dtype=np.int64)
        return np.bincount(self.ids[positions], minlength=self.num_terms)

    def posting(self, tid: int) -> np.ndarray:
        """Sorted record indices containing term ``tid`` (the posting array)."""
        if self._posting_rows is None:
            row_of_flat = np.repeat(
                np.arange(self.num_records, dtype=np.int64), self.lengths
            )
            order = np.argsort(self.ids, kind="stable")
            self._posting_rows = row_of_flat[order]
            self._posting_starts = np.searchsorted(
                self.ids[order], np.arange(self.num_terms + 1, dtype=np.int64)
            )
        return self._posting_rows[
            self._posting_starts[tid] : self._posting_starts[tid + 1]
        ]


def supports_python(records: Sequence[frozenset], rows: Iterable[int]) -> dict:
    """Pure-Python reference of :meth:`RecordIdBuffer.counts` (dict form).

    Kept here (next to the kernel it mirrors) so the parity tests and the
    counting micro-benchmark compare the exact per-record update loop the
    kernel replaces.
    """
    counts: dict = {}
    get = counts.get
    for row in rows:
        for tid in records[row]:
            counts[tid] = get(tid, 0) + 1
    return counts


# --------------------------------------------------------------------------- #
# kernel 2: packed-word combination checking
# --------------------------------------------------------------------------- #
def _packed_bytes(masks: Iterable[int], count: int, nbytes: int) -> bytes:
    """Serialize bigint row masks back to back, ``nbytes`` little-endian each."""
    buffer = bytearray(count * nbytes)
    for index, mask in enumerate(masks):
        start = index * nbytes
        buffer[start : start + nbytes] = mask.to_bytes(nbytes, "little")
    return bytes(buffer)


def pack_mask_rows(masks: Iterable[int], count: int, num_rows: int) -> "np.ndarray":
    """Pack bigint row masks into a ``(count, words)`` uint64 matrix.

    Bit ``r`` of a mask lands in word ``r // 64``, bit ``r % 64``
    (explicitly little-endian), so ``bitwise_count`` over a row's words is
    exactly the bigint's ``bit_count``.
    """
    nbytes = max(1, (num_rows + 63) // 64) * 8
    matrix = np.frombuffer(_packed_bytes(masks, count, nbytes), dtype="<u8")
    return matrix.reshape(count, nbytes // 8)


def _popcounts(matrix: "np.ndarray") -> "np.ndarray":
    """Per-row popcount of a uint64 word matrix."""
    return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)


class PackedSelection:
    """Accepted-set combination checking over a packed uint64 word matrix.

    The numpy engine behind
    :class:`~repro.core.anonymity.BitsetChunkChecker`: every term's row
    mask is packed **once** at construction, the accepted set lives in a
    preallocated matrix, and a candidate's m-way combination supports are
    evaluated level by level -- one vectorized ``&`` + ``bitwise_count``
    over the whole accepted batch per DFS level, recursing only into
    occurring intersections.  Decisions are identical to the bigint DFS:
    the same ``(support > 0 and support < k)`` comparisons run, just in
    batch.
    """

    __slots__ = ("_matrix", "_index", "_accepted", "_count", "_k", "num_rows")

    def __init__(self, masks: dict, num_rows: int, k: int):
        self._matrix = pack_mask_rows(masks.values(), len(masks), num_rows)
        self._index = {term: row for row, term in enumerate(masks)}
        self._accepted = np.zeros_like(self._matrix)
        self._count = 0
        self._k = k
        self.num_rows = num_rows

    def row(self, term) -> Optional["np.ndarray"]:
        """The packed row of ``term``, or ``None`` when it has no mask."""
        position = self._index.get(term)
        if position is None:
            return None
        return self._matrix[position]

    def add(self, term) -> None:
        """Append ``term``'s packed row to the accepted batch."""
        row = self.row(term)
        if self._count == len(self._accepted):  # unknown-term adds may overflow
            grown = np.zeros(
                (2 * len(self._accepted) + 1, self._matrix.shape[1]),
                dtype=self._matrix.dtype,
            )
            grown[: self._count] = self._accepted[: self._count]
            self._accepted = grown
        if row is None:
            self._accepted[self._count] = 0
        else:
            self._accepted[self._count] = row
        self._count += 1

    def remove(self, position: int) -> None:
        """Drop the accepted row at ``position`` (insertion order)."""
        self._accepted[position : self._count - 1] = self._accepted[
            position + 1 : self._count
        ]
        self._count -= 1

    def reset(self) -> None:
        """Empty the accepted batch."""
        self._count = 0

    def combinations_ok(self, base_row: "np.ndarray", depth: int) -> bool:
        """Every occurring combination extending ``base_row`` keeps support >= k.

        Mirrors ``BitsetChunkChecker._combinations_ok`` over the accepted
        batch: one vectorized level per DFS depth.
        """
        return self._descend(base_row, 0, depth)

    def _descend(self, base: "np.ndarray", start: int, depth: int) -> bool:
        count = self._count
        if start >= count:
            return True
        intersections = self._accepted[start:count] & base
        supports = _popcounts(intersections)
        if bool(((supports > 0) & (supports < self._k)).any()):
            return False
        if depth > 1:
            for offset in np.nonzero(supports > 0)[0]:
                position = int(offset)
                if not self._descend(
                    intersections[position], start + position + 1, depth - 1
                ):
                    return False
        return True


def packed_km_anonymous(
    masks: Sequence[int], num_rows: int, k: int, m: int
) -> bool:
    """Whole-chunk k^m check over packed masks (batch form of the bigint DFS).

    ``masks`` are the chunk's per-term row masks (every one non-zero, as
    built from occurring records).  Singletons are checked in one batched
    popcount; each deeper level ANDs the current base against the whole
    remaining-term batch at once, recursing only into occurring
    intersections -- the same pruning, the same comparisons, no Counter.
    """
    matrix = pack_mask_rows(masks, len(masks), num_rows)
    if len(masks) and bool((_popcounts(matrix) < k).any()):
        return False
    if m == 1 or len(masks) < 2:
        return True
    for start in range(len(masks) - 1):
        if not _km_descend(matrix, matrix[start], start + 1, m - 1, k):
            return False
    return True


def _km_descend(
    matrix: "np.ndarray", base: "np.ndarray", start: int, depth: int, k: int
) -> bool:
    intersections = matrix[start:] & base
    supports = _popcounts(intersections)
    if bool(((supports > 0) & (supports < k)).any()):
        return False
    if depth > 1:
        for offset in np.nonzero(supports > 0)[0]:
            position = int(offset)
            if not _km_descend(
                matrix, intersections[position], start + position + 1, depth - 1, k
            ):
                return False
    return True


# --------------------------------------------------------------------------- #
# kernel 3: packed sub-record assembly (REFINE shared chunks)
# --------------------------------------------------------------------------- #
def assemble_subrecords(
    term_masks: Sequence[tuple], num_rows: int
) -> list[frozenset]:
    """Sub-records of the rows covered by ``term_masks``, in row order.

    ``term_masks`` is a sequence of ``(term, bigint row mask)`` pairs; the
    result holds one ``frozenset`` of terms per covered row (a row is
    covered when at least one mask has its bit set), ordered by increasing
    row -- exactly what REFINE's reference ``build_chunks`` produces by
    shifting every mask per row.  The masks are unpacked into one boolean
    matrix and each covered row's terms come from a single C-level
    ``nonzero``.
    """
    nbytes = max(1, (num_rows + 7) // 8)
    packed = np.frombuffer(
        _packed_bytes((mask for _term, mask in term_masks), len(term_masks), nbytes),
        dtype=np.uint8,
    ).reshape(len(term_masks), nbytes)
    bools = np.unpackbits(
        packed, axis=1, bitorder="little", count=num_rows
    ).astype(bool, copy=False)
    covered = bools.any(axis=0)
    columns = bools[:, covered].T
    terms = [term for term, _mask in term_masks]
    return [
        frozenset(terms[position] for position in np.nonzero(row)[0])
        for row in columns
    ]


def assemble_subrecords_python(
    term_masks: Sequence[tuple], num_rows: int
) -> list[frozenset]:
    """Pure-Python reference of :func:`assemble_subrecords` (bigint shifts).

    Kept for the parity tests and the assembly micro-benchmark; REFINE's
    inline fallback in ``build_chunks`` is this same loop fused with the
    contribution counting.
    """
    or_mask = 0
    for _term, mask in term_masks:
        or_mask |= mask
    subrecords: list[frozenset] = []
    while or_mask:
        low = or_mask & -or_mask
        row = low.bit_length() - 1
        or_mask ^= low
        subrecords.append(
            frozenset(term for term, mask in term_masks if (mask >> row) & 1)
        )
    return subrecords
