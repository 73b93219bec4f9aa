(** Bounded per-domain event tracing (the event half of the observability
    layer; the measurement half is {!Metrics}).

    Each domain owns a fixed-capacity ring buffer of typed events. Emitting
    is wait-free with respect to other domains (one store into the calling
    domain's ring) and a no-op unless tracing has been switched on with
    [enable], so instrumentation points can stay in production hot paths.
    When a ring is full it overwrites its oldest entries — the tool is a
    flight recorder for debugging concurrency incidents after the fact, not
    a complete log.

    Typical use: [enable ()], reproduce a suspicious interleaving, then
    [dump ()] to obtain every surviving event of every domain merged in
    timestamp order (the shell exposes this as [trace on] / [trace dump]).

    Event vocabulary and the claims they evidence are catalogued in
    [OBSERVABILITY.md]. *)

(** Latch/lock mode carried by latching and locking events. *)
type mode = S | X

(** The typed event vocabulary of the kernel's instrumentation points.
    Page ids are carried as raw ints ([Page_id.to_int]) to keep this
    library free of upward dependencies. *)
type event =
  | Latch_acquire of { page : int; mode : mode }
      (** A page latch was granted (emitted only under tracing). *)
  | Latch_wait of { page : int; mode : mode; wait_ns : int }
      (** A latch acquisition had to block, and for how long. *)
  | Rightlink of { from_page : int; to_page : int }
      (** A traversal compensated for a missed split by following a
          rightlink (§3/§6). *)
  | Nsn_mismatch of { page : int; memo : int64; nsn : int64 }
      (** A node's NSN was newer than the traversal's memorized value — the
          trigger for the rightlink chase. *)
  | Node_split of { orig : int; right : int }
      (** [orig] split, moving entries to new right sibling [right]. *)
  | Root_grow of { root : int; child : int }
      (** The fixed-root split pushed the root's content into [child]. *)
  | Nta_begin of { txn : Gist_util.Txn_id.t }
      (** A nested top action opened (split, node delete, tree create). *)
  | Nta_commit of { txn : Gist_util.Txn_id.t }
      (** The dummy CLR sealing a nested top action was written. *)
  | Wal_append of { lsn : int64; bytes : int }
      (** A log record was appended. *)
  | Wal_force of { lsn : int64 }
      (** The log was forced durable up to [lsn]. *)
  | Group_flush of { lsn : int64; group : int }
      (** A group-commit leader flushed: a single device write made [lsn]
          durable on behalf of [group] coalesced requests. *)
  | Fault_inject of { site : string; seq : int }
      (** A fault-injection plan fired at hook [site] (e.g. ["disk.write"])
          on the [seq]-th event of that site since arming. *)
  | Lock_wait of { txn : Gist_util.Txn_id.t; name : string; mode : mode }
      (** A transaction blocked on a lock ([name] is the printed lock
          name, e.g. ["rec:…"] or ["txn:…"]). *)
  | Deadlock_victim of { txn : Gist_util.Txn_id.t }
      (** The deadlock detector chose [txn] as the victim. *)
  | Pred_attach of { page : int; owner : Gist_util.Txn_id.t }
      (** A predicate was attached to a node (§4.3/§10.3). *)
  | Pred_check of { page : int; conflicts : int }
      (** An insert ran its step-6 conflict check against the predicates
          attached to [page], finding [conflicts] conflicting ones. *)
  | Bp_hit of { page : int }  (** Buffer-pool hit. *)
  | Bp_miss of { page : int }  (** Buffer-pool miss (disk read follows). *)
  | Bp_evict of { page : int; dirty : bool }
      (** A frame was evicted; [dirty] means a write-back was needed. *)
  | Olc_restart of { page : int }
      (** An optimistic latch-free node visit failed version validation
          (or found the version word write-locked) and retried. *)
  | Olc_fallback of { page : int }
      (** An optimistic visit exhausted its retry budget and fell back to
          the S-latch path. *)
  | Bg_flush of { pages : int; scanned : int }
      (** The background writer completed one flush pass: [pages] dirty
          frames written back out of [scanned] frames examined. *)
  | Fuzzy_checkpoint of { lsn : int64; dirty : int }
      (** The checkpointer took a fuzzy checkpoint anchored at [lsn] with
          [dirty] pages in the logged dirty-page table (no page flushing). *)
  | Snapshot_scan of { ts : int }
      (** A read-only snapshot scan started at commit timestamp [ts] —
          the lock-free MVCC read path (PROTOCOL.md §9). *)

(** One recorded ring entry. *)
type entry = {
  ts : int;  (** Wall-clock nanoseconds ([Clock.now_ns]) at emission. *)
  domain : int;  (** Numeric id of the emitting domain. *)
  seq : int;  (** Per-domain sequence number (total emitted so far). *)
  event : event;
}

val enable : unit -> unit
(** Switch event recording on (process-wide). *)

val disable : unit -> unit
(** Switch event recording off. Rings keep their contents. *)

val enabled : unit -> bool
(** Whether tracing is on — check this before building an expensive event
    payload at an instrumentation point. *)

val set_capacity : int -> unit
(** Ring capacity (entries per domain) for rings created {e after} this
    call; existing rings are unaffected. Default 4096.
    @raise Invalid_argument if the capacity is not positive. *)

val emit : event -> unit
(** Record an event into the calling domain's ring; drops the oldest entry
    when full. No-op while tracing is disabled. *)

val dump : ?last:int -> unit -> entry list
(** Every surviving entry of every domain's ring, merged and sorted by
    timestamp (ties broken by domain and sequence). [last] keeps only the
    most recent [n] entries after merging. *)

val clear : unit -> unit
(** Empty every ring. Call while no other domain is emitting. *)

val pp_event : Format.formatter -> event -> unit
(** One-token rendering, e.g. [rightlink P3->P7] or [bp.miss P12]. *)

val pp_entry : Format.formatter -> entry -> unit
(** [<ts> d<domain> <event>] — the format [trace dump] prints. *)
