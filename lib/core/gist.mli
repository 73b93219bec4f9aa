(** The concurrent, recoverable Generalized Search Tree.

    Implements the paper's protocol stack end to end:

    - {b Search} (Figure 3): stack-driven DFS with split detection via
      NSN/rightlink, predicate attachment for repeatable read, S record
      locks on qualifying entries, and latch-release-then-block when a
      record lock would wait. Nodes are visited {e latch-free} under the
      frame latch's version word (optimistic lock coupling, PROTOCOL.md
      §7), falling back to the classic per-node S latch on conflict;
      leaves, where record locks are taken, always take the S latch.
    - {b Insert} (Figure 4): min-penalty descent without latch coupling,
      split compensation via rightlinks, recursive node splits and BP
      update propagation executed as nested top actions, the percolation
      and replication rules for predicate attachments, and the
      FIFO-ordered conflict check against the target leaf's predicates.
    - {b Delete} (§7): two-phase record locking plus logical deletion; the
      entry is only marked, never removed, and ancestors' BPs are not
      shrunk, so concurrent repeatable-read searches block on it.
    - {b Garbage collection} (§7.1): physical removal of committed-deleted
      entries, gated by the Commit_LSN fast path of [Moh90b].
    - {b Node deletion} (§7.2): the drain technique — conditionally
      X-locking the node's signaling-lock name; traversals hold S signaling
      locks on every node their stacks reference, and splits copy them to
      new siblings.
    - {b Unique insert} (§8): probe search leaving "= key" predicates on
      the visited path so racing duplicate inserters deadlock and one
      aborts; a found duplicate is S-locked so the error is repeatable.

    Operations may raise {!Gist_txn.Lock_manager.Deadlock}; the caller
    owns the transaction and should abort and (optionally) retry.

    A tree handle is bound to a {!Db.t}; after [Db.crash] + restart, use
    {!open_existing} against the new environment. *)

exception Duplicate_key
(** Raised by insert on a unique tree when the key already exists; the
    duplicate's record is left S-locked so the error repeats under
    repeatable read (§8). *)

type 'p t

val create : Db.t -> 'p Ext.t -> ?unique:bool -> empty_bp:'p -> unit -> 'p t
(** Allocate and format an empty root inside a nested top action.
    [empty_bp] is the bounding predicate of an empty tree (e.g. an empty
    interval / rectangle). *)

val open_existing :
  Db.t -> 'p Ext.t -> ?unique:bool -> root:Gist_storage.Page_id.t -> unit -> 'p t
(** Bind a handle to an already-formatted tree (after restart). *)

val db : 'p t -> Db.t
val ext : 'p t -> 'p Ext.t
val root : 'p t -> Gist_storage.Page_id.t
val predicate_manager : 'p t -> 'p Gist_pred.Predicate_manager.t

val search :
  ?isolation:[ `Repeatable_read | `Read_committed ] ->
  'p t ->
  Gist_txn.Txn_manager.txn ->
  'p ->
  ('p * Gist_storage.Rid.t) list
(** All live leaf entries whose key is consistent with the query.

    Internal nodes are visited latch-free under the frame latch's version
    word, restarting on conflict and falling back to the S latch after
    [Db.config.olc_retries] attempts — see PROTOCOL.md §7. Leaf visits
    always take the S latch.

    Under [`Repeatable_read] (the default, the paper's Degree 3): returned
    records stay S-locked and the search predicate stays attached to every
    visited node until end of transaction — re-running the search in the
    same transaction returns the same result.

    Under [`Read_committed] (Degree 2): record locks are instant-duration
    (the scan still never returns uncommitted data, blocking on in-flight
    writers as needed) and no predicate is attached — phantoms and
    unrepeatable reads are possible, concurrency is higher. *)

val snapshot_search : 'p t -> Db.ro -> 'p -> ('p * Gist_storage.Rid.t) list
(** All leaf entries consistent with the query and {e visible to the
    snapshot}: creator committed at or before the snapshot's commit
    timestamp, deleter (if any) not. The MVCC read path (PROTOCOL.md §9):
    zero lock acquisitions, zero predicate attaches, never blocks on or
    blocks writers — traversal is optimistic ([olc.read_attempt]) with a
    {e non-blocking} S-latch fallback ([Latch.try_acquire] in a backoff
    loop: a snapshot reader never parks on a writer's latch), and page
    latches are the only synchronization.
    Repeating the scan under the same [Db.ro] returns the same result
    regardless of concurrent writers. Counted in [mvcc.snapshot_scan];
    invisible versions skipped are counted in [mvcc.version_skipped]. *)

val insert : 'p t -> Gist_txn.Txn_manager.txn -> key:'p -> rid:Gist_storage.Rid.t -> unit
(** X-locks the record, descends by penalty, splits/expands as needed, adds
    the leaf entry, and blocks on conflicting attached predicates.
    @raise Duplicate_key on a unique tree. *)

val delete : 'p t -> Gist_txn.Txn_manager.txn -> key:'p -> rid:Gist_storage.Rid.t -> bool
(** Logical delete of the [(key, rid)] entry; [false] if absent. *)

val vacuum : 'p t -> unit
(** Tree-wide garbage collection: physically remove committed-deleted
    entries, and retire empty leaves via the drain technique (§7.2). Runs
    in its own system transaction. *)

val height : 'p t -> int

val leaf_count : 'p t -> int
(** Number of leaf nodes reachable from the root (diagnostic). *)

val entry_count : 'p t -> int
(** Physical leaf entries, including marked-deleted ones (diagnostic). *)

val set_hook : 'p t -> (string -> unit) -> unit
(** Test instrumentation: invoked with event labels ("insert:split",
    "search:visit:P7", ...) at protocol decision points, letting tests
    force specific interleavings deterministically. *)

val bulk_load :
  Db.t -> 'p Ext.t -> ?unique:bool -> ?fill:float -> empty_bp:'p ->
  ('p * Gist_storage.Rid.t) array -> 'p t
(** Build a tree bottom-up from pre-ordered entries (sort them first:
    by key for a B-tree, in STR order via {!Gist_ams.Rtree_ext.str_sort}
    for an R-tree — packing quality follows the given order). Nodes are
    packed to [fill] (default 0.85) of capacity.

    Minimal logging: page contents are not logged; instead every page is
    allocated inside one nested top action, all pages are flushed before
    it closes, and a checkpoint anchors the allocator — crash-safe at
    every point (before completion the pages are reclaimed by undo, after
    it the flushed images are the durable truth). *)

(** {1 The read path, shared with {!Cursor}}

    One node visit serves every read kind: {!search}, {!snapshot_search},
    {!Cursor.next} and {!Cursor.snap_next} all pop a [(page, memo)] entry
    off a traversal stack and hand it to {!visit}. Only the leaf action
    differs between them. *)

(** What a visit does at a leaf: given the leaf's page and decoded node,
    the result {!visit} returns. *)
type ('p, 'a) leaf =
  | Locking of (Gist_storage.Page_id.t -> 'p Node.t -> 'a option)
      (** Takes record locks (RR and read-committed search, the unique
          probe): needs a stable entry list, so it always runs under the S
          latch. *)
  | Buffering of (Gist_storage.Page_id.t -> 'p Node.t -> 'a option)
      (** A pure read of the entries (the locked cursor buffering them):
          runs inside the version window. *)
  | Snapshot of (Gist_storage.Page_id.t -> 'p Node.t -> 'a option)
      (** A pure read inside the window, whose S-latch fallback never
          blocks on a writer's latch (PROTOCOL.md §9). *)

val start_scan :
  ?ro:Db.ro ->
  'p t ->
  sig_lock:(Gist_storage.Page_id.t -> unit) ->
  (Gist_storage.Page_id.t * Gist_wal.Lsn.t) list
(** Count one scan at its entry — [gist.search], and with [ro] also
    [mvcc.snapshot_scan] and a [Snapshot_scan] trace event — and return
    its initial traversal stack: the root, passed to [sig_lock] first. *)

val visit :
  'p t ->
  query:'p ->
  ?spred:'p Gist_pred.Predicate_manager.pred ->
  sig_lock:(Gist_storage.Page_id.t -> unit) ->
  leaf:('p, 'a) leaf ->
  (Gist_storage.Page_id.t * Gist_wal.Lsn.t) list ref ->
  Gist_storage.Page_id.t * Gist_wal.Lsn.t ->
  'a option
(** [visit t ~query ?spred ~sig_lock ~leaf stack (pid, memo)] visits the
    entry just popped off [stack] (Figure 3). It attaches [spred] to the
    page, pins it once, and reads it latch-free, falling back to the S
    latch. It pushes the rightlink of a missed split and the children
    consistent with [query], placing a signaling lock on each through
    [sig_lock]. At a leaf it returns the leaf policy's result; at an
    internal node or a retired page, [None]. *)

val snapshot_leaf : 'p t -> Db.ro -> 'p -> ('p, ('p * Gist_storage.Rid.t) list) leaf
(** The snapshot scan's leaf policy: the entries consistent with the query
    and visible to [ro] ([mvcc.version_skipped] counts the others). *)

val writer_behind_us :
  'p t -> tid:Gist_util.Txn_id.t -> Gist_storage.Page_id.t -> Gist_storage.Rid.t -> bool
(** The FIFO rule of §10.3, for a record [rid] on leaf [pid] that [tid]
    found X-locked: [true] iff the writer's insert predicate is queued
    behind one of [tid]'s scan predicates there, so the writer waits for
    [tid] and the scan skips its uncommitted entry instead of blocking. *)

(** {1 Internals exposed for recovery and checking} *)

val install_recovery : 'p t -> unit
(** Register this tree's extension in the environment's registry, install
    the dispatching undo handler ({!Recovery.install}), and hook predicate
    cleanup to transaction end. Called by [create]/[open_existing]. *)
