(** Incremental scan cursors with savepoint support (§10.2).

    A cursor delivers the results of a search one at a time, keeping the
    traversal stack (and its signaling locks) alive between calls — the
    shape interactive scans take in a DBMS. The predicate is attached to
    visited nodes exactly as in {!Gist.search}, so repeatable read holds
    across the whole cursor lifetime.

    Savepoints: [save] snapshots the cursor position (the paper's "copy of
    the stack", §10.2); from that moment the cursor stops releasing
    signaling locks it already holds, so a later [restore] resumes from a
    position whose nodes are still protected from deletion. Storage for a
    snapshot is proportional to page capacity × tree height, as the paper
    notes.

    Cursors are single-threaded (use one per domain) and bound to one
    transaction; [close] releases the cursor's signaling locks (predicates
    stay attached until end of transaction, as isolation requires). *)

type 'p t

val open_ : 'p Gist.t -> Gist_txn.Txn_manager.txn -> 'p -> 'p t
(** Begin a scan for entries consistent with the predicate. Counted, like
    {!Gist.search}, in [gist.search]. *)

val next : 'p t -> ('p * Gist_storage.Rid.t) option
(** The next qualifying live entry (S-locked per two-phase locking), or
    [None] when the scan is exhausted. Blocks on entries with uncommitted
    writers, FIFO rules permitting.
    @raise Gist_txn.Lock_manager.Deadlock as for {!Gist.search}. *)

type 'p snapshot

val save : 'p t -> 'p snapshot
(** Record the cursor position (paired with a transaction savepoint). *)

val restore : 'p t -> 'p snapshot -> unit
(** Reposition the cursor to a snapshot taken on it earlier — after a
    partial rollback, the re-scan returns the same remaining results
    (modulo that rollback's own effects). *)

val close : 'p t -> unit
(** Release the cursor's signaling locks. Idempotent. *)

(** {1 Snapshot cursors (PROTOCOL.md §9)} *)

type 'p snap
(** A streaming scan bound to a read-only snapshot: results arrive one at
    a time like {!next}, but the traversal takes zero locks and attaches
    zero predicates — per-entry MVCC visibility at the snapshot's commit
    timestamp replaces both. There is no close: nothing is held between
    calls, and the snapshot's GC watermark plus deferred page free keep
    the versions and pages it may still visit alive until [Db.end_ro]. *)

val open_snapshot : 'p Gist.t -> Db.ro -> 'p -> 'p snap
(** Begin a snapshot scan for entries consistent with the predicate and
    visible to [ro]. Counted, like {!Gist.snapshot_search}, in
    [gist.search] and [mvcc.snapshot_scan]. *)

val snap_next : 'p snap -> ('p * Gist_storage.Rid.t) option
(** The next visible qualifying entry, or [None] when exhausted. Never
    blocks on writers and never raises [Deadlock]; repeating a full scan
    under the same [Db.ro] yields the same set. *)
