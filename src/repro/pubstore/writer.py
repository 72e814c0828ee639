"""Decompose a publication into the store's relational rows, per top-level cluster.

k^m-anonymity is guaranteed per cluster: every top-level cluster's
record, shared and term chunks are published (and audited) on their
own.  So are the store's rows, postings and aggregates -- each row
belongs to exactly one top-level cluster, and ``term_stats`` /
``pair_stats`` are sums of per-top-level-cluster contributions.  A
build therefore never has to rewrite a top-level cluster whose content
is unchanged: :func:`update_rows` deletes the rows of the stored tops
that left the publication, subtracts their aggregate contributions,
walks only the tops that are new, and adds theirs.

The walk produces every table's rows for the new tops, including the
two orderings the query engine depends on:

* ``ord`` -- the chunk's position inside its owning cluster, used by
  :meth:`PublicationStore.load_publication` to rebuild the exact tree;
* ``eord`` -- the position in the enumeration order
  :meth:`~repro.analysis.SupportEstimator.expected_support` visits the
  top-level cluster's chunks in (all shared chunks in pre-order, then
  every leaf's record chunks).  Persisting it lets the store-backed
  estimator multiply its per-chunk probabilities in exactly the same
  order as the in-memory oracle, keeping the floats bit-for-bit equal.

Term ids are interned once per store and survive updates, so a pair's
``(a, b)`` orientation in ``pair_stats`` follows the string order of
its terms, never the id order.  A term is dropped (with its stats row)
once no stored top-level cluster publishes it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.clusters import DisassociatedDataset, JointCluster, RecordChunk

if TYPE_CHECKING:  # pragma: no cover - typing only
    import sqlite3


class _RowBuilder:
    """Accumulates the rows of the walked top-level clusters."""

    def __init__(self, term_ids: Dict[str, int], next_ids: Tuple[int, int, int, int]):
        # The store's interned terms; new terms are added in place.
        self.term_ids = term_ids
        self.new_terms: List[Tuple[int, str]] = []
        self.cluster_rows: List[tuple] = []
        self.chunk_rows: List[list] = []
        self.chunk_term_rows: List[tuple] = []
        self.subrecord_rows: List[tuple] = []
        self.posting_rows: List[tuple] = []
        self.term_chunk_rows: List[tuple] = []
        self.contribution_rows: List[tuple] = []
        self.chunk_support: Counter = Counter()
        self.term_chunk_count: Counter = Counter()
        self.pair_counts: Counter = Counter()
        self.cluster_term_pairs: set = set()
        # eord assignment: per top-level cluster, shared chunks (walk
        # order == iter_shared_chunks pre-order) then record chunks
        # (walk order == leaves() DFS order).
        self.shared_by_top: Dict[int, List[int]] = defaultdict(list)
        self.record_by_top: Dict[int, List[int]] = defaultdict(list)
        (
            self._next_term,
            self._next_cluster,
            self._next_chunk,
            self._next_subrecord,
        ) = next_ids

    def term_id(self, term: str) -> int:
        """Intern ``term`` and return its id."""
        tid = self.term_ids.get(term)
        if tid is None:
            tid = self._next_term
            self._next_term += 1
            self.term_ids[term] = tid
            self.new_terms.append((tid, term))
        return tid

    def add_chunk(
        self, chunk: RecordChunk, owner: int, top: int, ord_: int, kind: str
    ) -> int:
        """Emit one record/shared chunk's rows; returns the chunk id."""
        chunk_id = self._next_chunk
        self._next_chunk += 1
        # eord is assigned after the walk; keep a mutable placeholder.
        self.chunk_rows.append([chunk_id, owner, top, ord_, 0, kind])
        for term in chunk.domain:
            tid = self.term_id(term)
            self.chunk_term_rows.append((tid, chunk_id, top))
            self.cluster_term_pairs.add((tid, top))
        for position, subrecord in enumerate(chunk.subrecords):
            subrecord_id = self._next_subrecord
            self._next_subrecord += 1
            self.subrecord_rows.append((subrecord_id, chunk_id, position))
            terms = sorted(subrecord)
            tids = [self.term_id(term) for term in terms]
            for tid in tids:
                self.posting_rows.append((tid, subrecord_id, chunk_id))
                self.chunk_support[tid] += 1
            # ``terms`` is in string order, so every pair is oriented too.
            for pair in combinations(tids, 2):
                self.pair_counts[pair] += 1
        contributions = getattr(chunk, "contributions", None)
        if contributions:
            for position, (label, count) in enumerate(contributions.items()):
                self.contribution_rows.append(
                    (chunk_id, position, str(label), int(count))
                )
        return chunk_id

    def walk(
        self,
        cluster,
        parent: Optional[int],
        top: Optional[int],
        ord_: int,
        digest: Optional[str] = None,
    ) -> int:
        """Emit ``cluster``'s subtree in pre-order; returns its cluster id."""
        cluster_id = self._next_cluster
        self._next_cluster += 1
        my_top = top if top is not None else cluster_id
        if isinstance(cluster, JointCluster):
            self.cluster_rows.append(
                (cluster_id, parent, my_top, ord_, "joint", cluster.label,
                 cluster.size, digest)
            )
            for position, chunk in enumerate(cluster.shared_chunks):
                chunk_id = self.add_chunk(chunk, cluster_id, my_top, position, "shared")
                self.shared_by_top[my_top].append(chunk_id)
            for position, child in enumerate(cluster.children):
                self.walk(child, cluster_id, my_top, position)
        else:
            self.cluster_rows.append(
                (cluster_id, parent, my_top, ord_, "simple", cluster.label,
                 cluster.size, digest)
            )
            for position, chunk in enumerate(cluster.record_chunks):
                chunk_id = self.add_chunk(chunk, cluster_id, my_top, position, "record")
                self.record_by_top[my_top].append(chunk_id)
            for term in cluster.term_chunk.terms:
                tid = self.term_id(term)
                self.term_chunk_rows.append((tid, cluster_id, my_top))
                self.term_chunk_count[tid] += 1
                self.cluster_term_pairs.add((tid, my_top))
        return cluster_id

    def assign_eord(self) -> None:
        """Stamp each chunk's estimation ordinal (shared first, then record)."""
        eord_of: Dict[int, int] = {}
        tops = set(self.shared_by_top) | set(self.record_by_top)
        for top in tops:
            ordered = self.shared_by_top.get(top, []) + self.record_by_top.get(top, [])
            for position, chunk_id in enumerate(ordered):
                eord_of[chunk_id] = position
        for row in self.chunk_rows:
            row[4] = eord_of[row[0]]


def build_rows(
    tops: Iterable[Tuple[int, object, Optional[str]]],
    term_ids: Dict[str, int],
    next_ids: Tuple[int, int, int, int],
) -> _RowBuilder:
    """Walk ``(position, top-level cluster, digest)`` triples into rows.

    ``term_ids`` is the store's existing term interning (extended in
    place with new terms) and ``next_ids`` the first free term, cluster,
    chunk and sub-record ids.
    """
    builder = _RowBuilder(term_ids, next_ids)
    for position, cluster, digest in tops:
        builder.walk(cluster, None, None, position, digest)
    builder.assign_eord()
    return builder


def insert_rows(db: "sqlite3.Connection", builder: _RowBuilder) -> None:
    """Bulk-insert the builder's structural rows (aggregates excluded).

    Must be called inside an open transaction: the caller (the store)
    owns BEGIN/COMMIT so a crash mid-build rolls back to the previous
    consistent snapshot instead of leaving half an index behind.
    """
    db.executemany("INSERT INTO terms (id, term) VALUES (?, ?)", builder.new_terms)
    db.executemany(
        "INSERT INTO clusters (id, parent, top, ord, kind, label, size, digest)"
        " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        builder.cluster_rows,
    )
    db.executemany(
        "INSERT INTO chunks (id, cluster, top, ord, eord, kind)"
        " VALUES (?, ?, ?, ?, ?, ?)",
        builder.chunk_rows,
    )
    db.executemany(
        "INSERT INTO chunk_terms (term, chunk, top) VALUES (?, ?, ?)",
        builder.chunk_term_rows,
    )
    db.executemany(
        "INSERT INTO subrecords (id, chunk, ord) VALUES (?, ?, ?)",
        builder.subrecord_rows,
    )
    db.executemany(
        "INSERT INTO postings (term, subrecord, chunk) VALUES (?, ?, ?)",
        builder.posting_rows,
    )
    db.executemany(
        "INSERT INTO term_chunks (term, cluster, top) VALUES (?, ?, ?)",
        builder.term_chunk_rows,
    )
    db.executemany(
        "INSERT INTO cluster_terms (term, top) VALUES (?, ?)",
        sorted(builder.cluster_term_pairs),
    )
    db.executemany(
        "INSERT INTO contributions (chunk, ord, label, count) VALUES (?, ?, ?, ?)",
        builder.contribution_rows,
    )


class _Removed:
    """Aggregate contributions of the top-level clusters a build deletes."""

    def __init__(self) -> None:
        self.chunk_support: Counter = Counter()
        self.term_chunk_count: Counter = Counter()
        self.pair_counts: Counter = Counter()
        self.terms: set = set()


def delete_tops(
    db: "sqlite3.Connection", tops: List[int], names: Dict[int, str]
) -> _Removed:
    """Delete every row of the top-level clusters ``tops``.

    Returns their aggregate contributions (read before the delete) so
    :func:`apply_aggregates` can subtract them.  ``names`` maps term ids
    to strings, which orient the removed pairs.
    """
    removed = _Removed()
    if not tops:
        return removed
    # A temp table rather than an IN list: no bound on how many tops go.
    db.execute("CREATE TEMP TABLE IF NOT EXISTS gone_tops (id INTEGER PRIMARY KEY)")
    db.execute("DELETE FROM gone_tops")
    db.executemany("INSERT INTO gone_tops (id) VALUES (?)", ((top,) for top in tops))
    gone = "IN (SELECT id FROM gone_tops)"
    chunks = f"SELECT id FROM chunks WHERE top {gone}"
    by_subrecord: Dict[int, List[int]] = defaultdict(list)
    for subrecord, term in db.execute(
        f"SELECT subrecord, term FROM postings WHERE chunk IN ({chunks})"
    ):
        by_subrecord[subrecord].append(term)
        removed.chunk_support[term] += 1
    for tids in by_subrecord.values():
        tids.sort(key=names.__getitem__)
        for pair in combinations(tids, 2):
            removed.pair_counts[pair] += 1
    cluster_terms = set()
    for term, top in db.execute(f"SELECT term, top FROM term_chunks WHERE top {gone}"):
        removed.term_chunk_count[term] += 1
        cluster_terms.add((term, top))
    cluster_terms.update(
        db.execute(f"SELECT term, top FROM chunk_terms WHERE top {gone}")
    )
    removed.terms = {term for term, _ in cluster_terms}
    for table in ("postings", "subrecords", "contributions"):
        db.execute(f"DELETE FROM {table} WHERE chunk IN ({chunks})")
    for table in ("chunk_terms", "chunks", "term_chunks", "clusters"):
        db.execute(f"DELETE FROM {table} WHERE top {gone}")
    db.executemany(
        "DELETE FROM cluster_terms WHERE term = ? AND top = ?", sorted(cluster_terms)
    )
    return removed


def apply_aggregates(
    db: "sqlite3.Connection", builder: _RowBuilder, removed: _Removed
) -> None:
    """Fold the new tops' aggregates in and the removed tops' out.

    ``term_stats`` keeps one row per term some stored top-level cluster
    publishes (zero totals included, exactly as a fresh build would),
    and ``pair_stats`` one row per pair with non-zero support.
    """
    chunk_support = Counter(builder.chunk_support)
    chunk_support.subtract(removed.chunk_support)
    term_chunk_count = Counter(builder.term_chunk_count)
    term_chunk_count.subtract(removed.term_chunk_count)
    touched = {tid for tid, _ in builder.new_terms}
    touched.update(tid for tid, delta in chunk_support.items() if delta)
    touched.update(tid for tid, delta in term_chunk_count.items() if delta)
    db.executemany(
        "INSERT INTO term_stats (term, chunk_support, term_chunk_count, total)"
        " VALUES (?, ?, ?, ?) ON CONFLICT (term) DO UPDATE SET"
        " chunk_support = chunk_support + excluded.chunk_support,"
        " term_chunk_count = term_chunk_count + excluded.term_chunk_count,"
        " total = total + excluded.total",
        (
            (
                tid,
                chunk_support[tid],
                term_chunk_count[tid],
                chunk_support[tid] + term_chunk_count[tid],
            )
            for tid in sorted(touched)
        ),
    )
    pair_counts = Counter(builder.pair_counts)
    pair_counts.subtract(removed.pair_counts)
    db.executemany(
        "INSERT INTO pair_stats (a, b, support) VALUES (?, ?, ?)"
        " ON CONFLICT (a, b) DO UPDATE SET support = support + excluded.support",
        ((a, b, delta) for (a, b), delta in pair_counts.items() if delta),
    )
    if not removed.terms:
        return
    db.execute("DELETE FROM pair_stats WHERE support <= 0")
    orphans = [
        (tid,)
        for tid in sorted(removed.terms)
        if db.execute(
            "SELECT 1 FROM cluster_terms WHERE term = ? LIMIT 1", (tid,)
        ).fetchone()
        is None
    ]
    db.executemany("DELETE FROM term_stats WHERE term = ?", orphans)
    db.executemany("DELETE FROM terms WHERE id = ?", orphans)


def update_rows(
    db: "sqlite3.Connection",
    published: DisassociatedDataset,
    digests: List[str],
    stored: List[Tuple[int, str, int]],
) -> int:
    """Bring the rows in step with ``published``, one top-level cluster at a time.

    ``digests`` are ``published``'s per-top content digests and
    ``stored`` the ``(id, digest, position)`` of every stored top-level
    cluster.  Stored tops whose digest is gone are deleted, tops whose
    digest is new are walked and inserted, and every kept top gets its
    new position.  Returns the number of top-level clusters written.
    Must run inside the caller's transaction.
    """
    reusable: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
    for top, digest, position in stored:
        reusable[digest].append((top, position))
    moved: List[Tuple[int, int]] = []
    fresh = []
    for position, (cluster, digest) in enumerate(zip(published.clusters, digests)):
        if reusable.get(digest):
            top, old_position = reusable[digest].pop()
            if old_position != position:
                moved.append((position, top))
        else:
            fresh.append((position, cluster, digest))
    gone = sorted(top for unmatched in reusable.values() for top, _ in unmatched)

    names = dict(db.execute("SELECT id, term FROM terms"))
    removed = delete_tops(db, gone, names)
    next_ids = tuple(
        db.execute(f"SELECT COALESCE(MAX(id), 0) + 1 FROM {table}").fetchone()[0]
        for table in ("terms", "clusters", "chunks", "subrecords")
    )
    builder = build_rows(fresh, {term: tid for tid, term in names.items()}, next_ids)
    insert_rows(db, builder)
    apply_aggregates(db, builder, removed)
    db.executemany("UPDATE clusters SET ord = ? WHERE id = ?", moved)
    return len(fresh)


__all__ = ["build_rows", "insert_rows", "update_rows"]
