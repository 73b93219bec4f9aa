(** Database environment.

    Bundles the substrate a GiST lives on — simulated disk, buffer pool,
    write-ahead log, lock manager, transaction manager, page allocator —
    plus the protocol configuration knobs the experiments sweep.

    Crash/restart model: [crash] discards all volatile state (buffer pool
    contents, lock tables, transaction tables, allocator) and the unforced
    log tail, returning a fresh environment bound to the same disk and
    durable log. Callers then run {!Recovery.restart} and re-open trees
    with [Gist.open_existing]. *)

type nsn_source =
  | Nsn_from_lsn
      (** §10.1: NSNs are LSNs; a split's NSN is its Split record's LSN, and
          the "global counter" is the log's last LSN. Recoverable for free. *)
  | Nsn_from_counter
      (** A dedicated atomic counter (the R-link tree design the paper
          improves on); used by the E8 ablation. Recovered by resetting to
          the log's last LSN at restart (safe over-approximation). *)

type memo_source =
  | Memo_global  (** Traversals memorize the global counter (Figure 3). *)
  | Memo_parent_lsn
      (** §10.1 optimization: memorize the parent page's LSN instead,
          avoiding synchronization on the log manager. *)

type config = {
  page_size : int;
  pool_capacity : int;  (** Frames in the buffer pool. *)
  max_entries : int;  (** Fanout cap (besides the byte budget). *)
  io_delay_ns : int;  (** Simulated per-I/O latency. *)
  nsn_source : nsn_source;
  memo_source : memo_source;
  gc_on_write : bool;
      (** Garbage-collect committed-deleted entries opportunistically when
          an insert passes through a leaf (§7.1). *)
  full_page_writes : bool;
      (** Log a [Page_image] record whenever a page first becomes dirty
          (Postgres-style full-page writes). Costs log volume; buys restart
          the ability to repair pages destroyed by torn disk writes
          (detected by the disk's page checksums) — required for the
          torn-write fault-injection modes of [Gist_fault]. *)
  node_cache : bool;
      (** Keep the decoded [Node.t] attached to its buffer-pool frame,
          stamped with the page LSN it reflects, so repeat visits skip the
          page-image decode ([Node.get]). On by default; turn off to
          measure the decode cost it saves (experiment E13). *)
  olc_retries : int;
      (** Optimistic lock coupling on the read path: a search, snapshot
          scan or cursor visits each node latch-free under the frame
          latch's version word ({!Gist_storage.Latch.optimistic}/[validate])
          instead of taking the S latch, restarting the visit on a version
          conflict, at most this many times before falling back to the S
          latch (counted in [olc.fallback]). [0] always takes the S latch:
          every visit falls back. Locking leaf visits and all write-path
          traversals always latch. See PROTOCOL.md §7 and experiment E15. *)
  commit_mode : Gist_wal.Group_commit.mode;
      (** How commits obtain durability: [Sync] (default) forces the log
          inline; [Group] waits for a leader/follower batched flush run by
          the committing domains themselves; [Async] does not wait — locks
          release immediately and a trailer domain makes the commit
          durable behind it, so an async-committed transaction may roll
          back (atomically) after a crash. Read-only transactions log
          nothing and wait for nothing in every mode. PROTOCOL.md §8;
          experiment E16. *)
  wal_flush_delay_ns : int;
      (** Simulated log-device latency per physical flush
          ({!Gist_wal.Log_manager.set_flush_delay_ns}); the commit-path
          analogue of [io_delay_ns]. *)
  eviction_policy : Gist_storage.Buffer_pool.policy;
      (** Buffer-pool victim selection: [Two_q] (default) is the
          scan-resistant probationary/protected split; [Lru] is the plain
          policy it replaced (kept for the E17 ablation and the
          equivalence property test). *)
  bg_writer : bool;
      (** Run a background writer/checkpointer domain
          ({!Gist_storage.Bg_writer}) that keeps a clean-victim reserve in
          every pool shard — foreground evictions then never write back a
          dirty page ([bp.fg_writeback] = 0) — and services range-scan
          prefetch. Off by default; owned by this environment like the
          Async trailer ([close] drains it, [crash] halts it). *)
  checkpoint_interval_us : int;
      (** With [bg_writer], take a fuzzy checkpoint (the same
          DPT + txn-table anchor as {!checkpoint}) every this many
          microseconds. Each tick first flushes pages dirtied before the
          {e previous} anchor ({!Gist_storage.Buffer_pool.flush_aged} —
          incremental, never the whole pool), which is what actually
          bounds restart's redo span by the interval: hot pages are never
          eviction victims, so without the sweep their recLSN would pin
          redo to the start of the log. [0] (default) disables periodic
          checkpoints. *)
  prefetch_depth : int;
      (** How many upcoming pages a leaf-level scan ([Cursor] /
          [Gist.search]) hands to the background writer for read-ahead
          each time it visits a node (rightlink successors and pending
          subtree roots). [0] disables prefetch; ignored without
          [bg_writer], which owns the prefetch queue. *)
  mvcc : bool;
      (** Snapshot reads: allow [begin_ro] read-only transactions that scan
          a commit-timestamp snapshot via {!Gist.snapshot_search} /
          {!Cursor.open_snapshot} with zero lock acquisitions and zero
          predicate attaches, and make node deletes defer page scrubbing
          while snapshots are active. On by default; the read-write path
          (record locks + C2/C3 predicate machinery) is unaffected either
          way. PROTOCOL.md §9; experiment E18. *)
}

val default_config : config

type t = {
  config : config;
  exts : (string, Ext.packed) Hashtbl.t;
      (** Access-method registry (by extension name), used by recovery to
          decode log-record payloads in multi-tree databases. Guarded by
          [alloc_mutex]. *)
  disk : Gist_storage.Disk.t;
  pool : Gist_storage.Buffer_pool.t;
  log : Gist_wal.Log_manager.t;
  locks : Gist_txn.Lock_manager.t;
  txns : Gist_txn.Txn_manager.t;
  group : Gist_wal.Group_commit.t option;
      (** Group commit ([Some] iff [commit_mode] is [Group] or [Async]; a
          trailer domain runs only for [Async]); owned by this environment
          — [close]/[crash] end it. *)
  mutable bg : Gist_storage.Bg_writer.t option;
      (** The background writer/checkpointer domain ([Some] iff
          [config.bg_writer]); owned by this environment — [close] drains
          it, [crash] halts it. Restart masks its periodic checkpoints
          while recovery replays the log. *)
  counter : int64 Atomic.t;  (** Dedicated NSN counter (Nsn_from_counter). *)
  alloc_mutex : Mutex.t;
  mutable alloc_next : int;
  mutable alloc_free : int list;
  mutable deferred_free : (int * Gist_wal.Lsn.t * int) list;
      (** Pages retired by node delete while a snapshot was active, parked
          until their snapshot barrier clears ([reap_free]). Guarded by
          [alloc_mutex]. *)
}

val create : ?config:config -> unit -> t

val close : t -> unit
(** Clean shutdown of the environment's background machinery: drain and
    join the Async trailer (every enqueued commit is durable on return)
    and the background writer. A no-op without either. Call before
    dropping an [Async] or [bg_writer] environment — domains are not
    garbage-collected. *)

val halt_domains : t -> unit
(** Kill the environment's writer domains (background flusher/checkpointer,
    Async trailer) in place, discarding in-flight work, and halt group
    commit (a leader flush in flight completes first; none starts after),
    without rewinding any other state. Idempotent; [crash] calls it first. The
    fault harness uses it to stop the domains while its hooks are still
    armed, before truncating the log, so no post-power-loss write-back can
    land a page whose records the truncation discards. *)

val crash : t -> t
(** Simulate a failure: volatile state and the unforced log tail are lost
    — including durability requests still queued for the Async trailer,
    which is halted un-drained — and the returned environment shares the
    disk and durable log (spawning a fresh trailer if the config calls
    for one; a fresh background writer takes no
    checkpoint until {!Recovery.restart} has run). The old value must not
    be used afterwards. *)

val checkpoint : t -> unit
(** Fuzzy checkpoint: Begin/End record pair carrying the dirty page table,
    transaction table, and allocator snapshot; updates the log anchor. *)

val truncate_log : t -> int
(** Reclaim log records no future restart can need: everything below
    min(checkpoint anchor, oldest active transaction's begin LSN, oldest
    dirty page's recovery LSN). Returns the number of records reclaimed.
    Call after [checkpoint] (and ideally a buffer-pool flush) to bound log
    growth. *)

(** {1 NSN management (§10.1)} *)

val global_nsn : t -> Gist_wal.Lsn.t
(** Current value of the tree-global counter (source per config). *)

val split_nsn : t -> record_lsn:Gist_wal.Lsn.t -> Gist_wal.Lsn.t
(** The NSN for a node being split: the Split record's own LSN in
    [Nsn_from_lsn] mode, a counter increment otherwise. *)

(** {1 Page allocation}

    Volatile free-space state; durably reconstructed from Get-Page and
    Free-Page records at restart. Logging is the caller's job (these are
    called from inside NTAs). *)

val allocate_page : t -> Gist_storage.Page_id.t
val release_page : t -> Gist_storage.Page_id.t -> unit
val page_is_free : t -> Gist_storage.Page_id.t -> bool
val mark_unavailable : t -> Gist_storage.Page_id.t -> unit
(** Redo of Get-Page. *)

val mark_available : t -> Gist_storage.Page_id.t -> unit
(** Redo of Free-Page. *)

val allocator_snapshot : t -> string
(** Serialized allocator state for [Checkpoint_end]: frontier, free list,
    and the still-parked [deferred_free] page ids — the parked list dies
    with a crash and its Free-Page records may predate the redo anchor,
    so the snapshot is the only durable record of those pages. *)

val allocator_restore : t -> string -> unit
(** Inverse of [allocator_snapshot]; parked pages go straight back to the
    free list (no snapshot survives a restart, so their barriers are
    trivially cleared). Idempotent against the analysis pass replaying
    Get/Free-Page records on top. *)

(** {1 Read-only snapshot transactions (PROTOCOL.md §9)}

    A snapshot transaction is not a transaction-table entry: it takes no
    transaction id, writes no log records, acquires no locks (not even the
    self X lock of [begin_txn]) and attaches no predicates. It is a commit
    timestamp plus a registry entry that (a) holds the version-GC
    watermark and (b) defers the scrubbing of pages retired by node
    deletes. *)

type ro

val begin_ro : t -> ro
(** Open a read-only snapshot transaction at the current published commit
    timestamp. Counted in [mvcc.snapshot_begin].
    @raise Invalid_argument when [config.mvcc] is false. *)

val end_ro : t -> ro -> unit
(** Close the snapshot (releases the GC watermark) and opportunistically
    reap deferred page frees whose barriers have cleared. *)

val ro_ts : ro -> int
(** The snapshot's commit timestamp. *)

val ro_snap : ro -> Gist_txn.Txn_manager.snapshot

val defer_free : t -> Gist_storage.Page_id.t -> lsn:Gist_wal.Lsn.t -> unit
(** Park a just-retired page (its Free-Page record already logged at
    [lsn]) instead of scrubbing it, because an active snapshot might still
    traverse into it. *)

val reap_free : t -> int
(** Scrub + release every parked page whose snapshot barrier has cleared;
    returns how many. Also called from [end_ro], the vacuum path, and
    [checkpoint] (before the allocator capture, so the releases are
    reflected in the snapshot). *)

val deferred_free_count : t -> int

(** {1 Extension registry} *)

val register_ext : t -> Ext.packed -> unit
(** Idempotent; keyed by [Ext.name]. Done by [Gist.create]/[open_existing]
    and [Recovery.restart]. *)

val find_ext : t -> string -> Ext.packed option
