(** Transaction manager.

    Owns the transaction table, assigns ids, writes Begin/Commit/Abort/End
    records, and drives rollback (total or to a savepoint) by walking the
    transaction's log backchain. The actual compensating page changes are
    performed by an *undo handler* injected by the index layer
    ([set_undo_handler]), which applies the inverse of a record, writes the
    CLR, and returns the CLR's LSN — keeping this module free of any GiST
    knowledge, as §9 prescribes.

    Every transaction X-locks its own id on start (released at end); the
    predicate manager uses that to let operations "block on a predicate"
    by S-locking the owner's id (§10.3).

    A transaction's Begin record is written lazily, with its first
    [log_update]/[log_nta]: a transaction that only reads logs nothing.
    Its commit or abort then writes no Commit, Abort or End record, takes
    no durability wait and no commit timestamp — it only runs the end
    hooks, leaves the live table and releases its locks (PROTOCOL.md §8).

    Commit obtains durability for the Commit record before releasing locks
    — inline ([Sync]), by leader/follower group commit in the committing
    domain ([Group]), or not at all until the trailer catches up
    ([Async], pipelined durability) — then writes End; see
    [set_durability]. Abort deliberately takes {e no} durability barrier:
    a crash that loses the un-forced rollback tail just makes restart redo
    the same rollback. [wal.force_elided] counts the saved barriers of
    both aborts and read-only commits. *)

type t

type txn

type snapshot
(** A registered read-only snapshot: a commit-timestamp horizon plus a
    registry entry that holds back version GC (the oldest-active-snapshot
    watermark) until [end_snapshot]. *)

val create : log:Gist_wal.Log_manager.t -> locks:Lock_manager.t -> t

val set_undo_handler : t -> (txn -> Gist_wal.Log_record.t -> unit) -> unit
(** [handler txn record] must apply the compensating action for [record]
    and log the CLR via [log_update]. Required before any abort. *)

val set_durability : t -> mode:Gist_wal.Group_commit.mode -> group:Gist_wal.Group_commit.t option -> unit
(** Route commit durability: [Sync] (the [create] default) forces the log
    inline; [Group] submits to [group] and waits, leading or following a
    batched flush in the committing domain; [Async] submits without
    waiting — locks release immediately and [group]'s trailer makes the
    commit durable behind it (PROTOCOL.md §8). [Group]/[Async] degrade to
    the safe [Sync] behavior when [group] is [None]. *)

val commit_mode : t -> Gist_wal.Group_commit.mode
(** The durability route commits currently take. *)

val add_end_hook : t -> (Gist_util.Txn_id.t -> unit) -> unit
(** Called (in registration order) when a transaction commits or finishes
    aborting, before its locks are released — used to drop predicate
    attachments. *)

val locks : t -> Lock_manager.t
val log : t -> Gist_wal.Log_manager.t

val begin_txn : t -> txn
(** Start a transaction: enter it in the live table and X-lock its own
    id. Nothing is logged until its first update. *)

val id : txn -> Gist_util.Txn_id.t
val last_lsn : txn -> Gist_wal.Lsn.t
val find : t -> Gist_util.Txn_id.t -> txn option

val log_update : t -> txn -> ?ext:string -> Gist_wal.Log_record.payload -> Gist_wal.Lsn.t
(** Append a record owned by [txn] (backchained) and advance its last LSN;
    the first one is preceded by the transaction's Begin record.
    For CLRs, the [undo_next] inside the payload governs further undo.
    [ext] tags the record with its access method for recovery dispatch. *)

val log_nta : t -> txn -> ?ext:string -> Gist_wal.Log_record.payload -> Gist_wal.Lsn.t
(** Append a record that is part of a nested top action: owned by the
    transaction for undo-on-crash purposes, but skippable once the NTA is
    closed with [end_nta]. Identical to [log_update]; the distinction is
    documentation. *)

val begin_nta : t -> txn -> Gist_wal.Lsn.t
(** Remember the backchain position; pair with [end_nta]. [Lsn.nil] when
    [txn] has logged nothing yet: the NTA's closing CLR then ends undo at
    nil, which skips only the Begin record. *)

val end_nta : t -> txn -> Gist_wal.Lsn.t -> unit
(** Close a nested top action by writing a dummy CLR whose [undo_next]
    points at the pre-NTA position, making the enclosed records invisible
    to any later undo ("individually committed atomic unit of work"). *)

val commit : ?durability:[ `Mode | `Force ] -> t -> txn -> unit
(** Commit. [~durability:`Mode] (default) obtains durability per the
    configured commit mode; [`Force] waits for the commit record to be
    durable even under [Async] — for work whose loss cannot be expressed
    as transaction rollback, e.g. the system transaction that formats a
    new tree's root: were its records lost in a crash, the tree would
    not merely lose updates, it would never have existed. *)

val abort : t -> txn -> unit

val savepoint : t -> txn -> string -> unit
(** Remember the backchain position under [name] ([Lsn.nil] if nothing is
    logged yet: rolling back to it undoes everything). *)

val rollback_to_savepoint : t -> txn -> string -> unit
(** Undo this transaction's updates back to the savepoint. Locks acquired
    since are retained (conservative; the paper only constrains signaling
    locks, §10.2). @raise Not_found if no such savepoint. *)

val is_committed : t -> Gist_util.Txn_id.t -> bool
val is_active : t -> Gist_util.Txn_id.t -> bool

val commit_ts_of : t -> Gist_util.Txn_id.t -> int option
(** The commit timestamp assigned to [tid], if it committed within the
    current table's window (since the last restart's analysis anchor). *)

val published_cts : t -> int
(** The highest commit timestamp whose tid->timestamp mapping is visible.
    Advanced strictly in timestamp order by committers, so every commit at
    or below it can be resolved by [commit_ts_of]. *)

val committed_as_of : t -> ts:int -> Gist_util.Txn_id.t -> bool
(** Whether [tid]'s effects are visible to a snapshot taken at commit
    timestamp [ts]: it committed with a timestamp [<= ts], or it is absent
    from both transaction tables (a commit from before the analysis
    window — timestamp 0). [Txn_id.none] is visible to every snapshot
    (bulk-loaded entries). *)

val begin_snapshot : t -> snapshot
(** Capture the current published commit timestamp and register it so the
    GC watermark ([oldest_snapshot_ts]) cannot advance past it. *)

val end_snapshot : t -> snapshot -> unit
(** Deregister; idempotent. *)

val snapshot_ts : snapshot -> int

val active_snapshots : t -> int
(** Number of registered snapshots. *)

val oldest_snapshot_ts : t -> int
(** The oldest-active-snapshot watermark: version GC may reclaim an entry
    only if its deleter committed at or below this. [max_int] when no
    snapshot is registered. *)

val min_active_snap_id : t -> int
(** Smallest registration id still active ([max_int] when none) — paired
    with [snapshot_barrier] to decide when a retired page's deferred free
    is safe (every snapshot that could hold a pointer into it has ended). *)

val snapshot_barrier : t -> int
(** The registration id the next [begin_snapshot] will receive. Snapshots
    with ids at or above a barrier taken now began after the present
    instant. *)

val active_txns : t -> (Gist_util.Txn_id.t * Gist_wal.Log_record.status * Gist_wal.Lsn.t) list
(** Snapshot for checkpointing: every live transaction that has logged
    something, with its last LSN. *)

val commit_lsn : t -> Gist_wal.Lsn.t
(** The Commit_LSN of [Moh90b]: a page whose LSN is below this belongs
    entirely to committed transactions, letting garbage collection skip
    per-entry committed checks. The minimum Begin LSN over live
    transactions that have logged something. *)

val restore_txn :
  t -> Gist_util.Txn_id.t -> status:Gist_wal.Log_record.status -> last_lsn:Gist_wal.Lsn.t -> txn
(** Recreate a transaction-table entry during restart analysis. *)

val mark_committed : t -> Gist_util.Txn_id.t -> unit
(** Record a commit observed during restart analysis. *)

val finish_txn : t -> txn -> unit
(** Write End and drop the entry (restart undo uses this after rolling a
    loser back). *)

val forget_txn : t -> Gist_util.Txn_id.t -> unit
(** Drop a transaction-table entry without logging (analysis saw its End
    record). *)

val abort_for_restart : t -> txn -> unit
(** Roll back a loser transaction during restart: like [abort] but assumes
    the Abort record may already exist. *)
