(** Buffer pool.

    Caches page images in fixed-capacity frames, each protected by a
    reader–writer {!Latch.t}. Implements the WAL constraint: before a dirty
    page is written to disk (eviction or checkpoint flush), the log is
    forced up to that page's LSN via the [force_log] callback.

    Page-image convention: bytes [0..7] of every page hold its page LSN
    (little-endian), written by whoever formats the page. The pool reads it
    when flushing and to maintain the dirty page table.

    Disk I/O (both the read on a miss and the write-back of an evicted
    dirty page) happens outside the pool's internal mutex and outside any
    frame latch held by the caller, which is what makes the paper's
    "no latches held during I/Os" property hold at this layer. The counter
    {!io_while_latched} records violations by callers (operations that pin
    a non-resident page while holding a latch) — the GiST protocol keeps it
    at zero; coarse baselines do not. *)

type t
(** A buffer pool: a fixed set of frames over a {!Disk.t}. *)

type frame
(** One resident page: image bytes, latch, pin count, dirty state. A
    [frame] handle is only valid while its page is pinned by the holder. *)

type policy = Lru | Two_q
(** Eviction policy. [Lru] recycles the least-recently-used unpinned
    frame. [Two_q] is scan-resistant: frames start in a probationary tier
    on first touch and are promoted to a protected tier on re-reference;
    victims come from the probationary tier first (so a one-pass scan or
    bulk load evicts only its own pages), then by CLOCK second chance over
    the protected tier. *)

val policy_of_string : string -> policy
(** ["lru"] or ["2q"]. @raise Invalid_argument otherwise. *)

val policy_to_string : policy -> string

val create :
  ?log_page_image:(Page_id.t -> Bytes.t -> int64) ->
  ?node_cache:bool ->
  ?policy:policy ->
  capacity:int ->
  disk:Disk.t ->
  force_log:(int64 -> unit) ->
  unit ->
  t
(** [create ~capacity ~disk ~force_log ()] makes a pool of [capacity]
    frames. [force_log lsn] must make the log durable up to [lsn]; the
    pool calls it before any dirty page write (the WAL constraint).
    [policy] (default [Two_q]) selects the eviction policy.

    [log_page_image pid image], when given, must append a full-page-image
    record to the log and return its LSN; the pool calls it each time a
    page transitions clean→dirty (Postgres-style full-page writes, the
    repair source for torn disk writes) and stamps the page header with
    the returned LSN so the WAL rule forces the image durable before the
    page can reach — and be torn on — the disk.

    [node_cache] (default [true]) enables the per-frame decoded-node
    cache ({!cached_node} and friends); when [false], installs are
    no-ops and every lookup misses — the knob behind [Db.config.node_cache]
    and experiment E13's on/off comparison. *)

val disk : t -> Disk.t
(** The underlying disk (for allocation bookkeeping and direct checks). *)

val pin : t -> Page_id.t -> frame
(** Fault the page in if needed and pin it. The frame cannot be evicted
    until unpinned. Blocks if all frames are pinned. *)

val pin_new : t -> Page_id.t -> frame
(** Pin a freshly allocated page without reading the disk (its image starts
    zeroed). Used right after page allocation. *)

val unpin : t -> frame -> unit
(** Release one pin; at zero pins the frame becomes an eviction candidate. *)

val latch : frame -> Latch.t
(** The frame's reader–writer latch (acquired by callers, not by the pool). *)

val frame_version : frame -> int option
(** Snapshot of the frame latch's seqlock word for an optimistic
    latch-free read ({!Latch.optimistic}): [Some v] if no writer currently
    holds the X latch, [None] otherwise. A pin alone is enough to use it —
    [pin] never latches, and a nonzero pin count already prevents the
    frame from being evicted or rebound to another page, so the
    pin-without-latch window is stable by construction. *)

val validate_frame : frame -> int -> bool
(** [validate_frame f v] is {!Latch.validate} on the frame latch: [true]
    iff no X acquisition intervened since {!frame_version} returned
    [Some v], i.e. everything read from the frame inside the window is
    what an S-latched reader would have seen. *)

val data : frame -> Bytes.t
(** The in-pool page image. Mutate only while holding the X latch. *)

val page_id : frame -> Page_id.t
(** The page currently bound to this frame. *)

val mark_dirty : t -> frame -> lsn:int64 -> unit
(** Record that the caller (holding the X latch) modified the page under a
    log record with sequence number [lsn]. Also stores [lsn] in the page
    header bytes. *)

val page_lsn : frame -> int64
(** The LSN in the page header. *)

val set_fpw : t -> bool -> unit
(** Mask (or unmask) full-page-image logging. Restart turns it off for the
    redo and undo passes: a fresh image logged mid-redo would stamp the
    page with an LSN beyond the records still to be replayed, making the
    conditional redo skip them. No effect when [log_page_image] was not
    supplied. *)

val with_page :
  t -> Page_id.t -> Latch.mode -> (frame -> 'a) -> 'a
(** [with_page t pid mode f]: pin, latch, run [f], unlatch, unpin. The
    unlatch and unpin also run when [f] raises. *)

val with_new_page : t -> Page_id.t -> (frame -> 'a) -> 'a
(** [with_new_page t pid f]: {!pin_new} a freshly allocated page, X-latch
    it, run [f], unlatch, unpin — also when [f] raises. *)

val flush_page : t -> Page_id.t -> unit
(** Force the page to disk if resident and dirty (forcing the log first).
    The shard mutex is never held across the I/O; a concurrent
    re-dirtying of the page is detected and leaves the page dirty. *)

val flush_all : t -> unit
(** Flush every dirty resident page; used by clean shutdown and explicit
    sync points. The dirty set is snapshotted per shard and each frame is
    flushed with only a pin (plus a brief S latch for the image copy), so
    concurrent pinners never stall behind a full-pool flush. *)

(** {1 Background writer integration}

    A background flusher domain ({!Bg_writer}) keeps every shard stocked
    with clean eviction victims so demand evictions on the foreground path
    never pay a write-back. The pool only knows the writer through two
    closures: while [alive () = true], foreground evictions are clean-only
    — a pin that finds no clean victim calls [wake ()] and waits on the
    shard's condition instead of writing back a dirty page itself. *)

val set_bg_writer : t -> wake:(unit -> unit) -> alive:(unit -> bool) -> unit
(** Install the background writer's hooks (called by [Db.attach] after
    the writer domain starts). *)

val clear_bg_writer : t -> unit
(** Remove the hooks; foreground evictions revert to writing back dirty
    victims themselves. *)

val broadcast_waiters : t -> unit
(** Wake every pin blocked on a shard condition. The background writer
    calls this when it dies (fault injection, shutdown) so waiters recheck
    [alive] and fall back to foreground eviction instead of sleeping
    forever. *)

val bg_flush_pass : t -> reserve:int -> int
(** One background-writer pass: per shard, flush least-recently-used
    dirty unpinned frames (counted as [bp.bg_writeback]) until [reserve]
    clean unpinned victims exist, then broadcast the shard's condition.
    Returns the number of pages written. Must be called without latches
    held — normally from the writer domain. *)

val flush_aged : t -> before:int64 -> int
(** Flush every dirty frame (pinned ones included) whose [rec_lsn] is
    below [before], returning the number of pages written. The
    checkpointer calls this with the previous checkpoint's anchor before
    capturing the next one: hot pages are never eviction victims, so
    without this sweep the oldest dirty [rec_lsn] — and with it restart's
    redo span — would stay pinned to the start of the log no matter how
    often checkpoints fire. A frame re-dirtied mid-flush stays dirty with
    its old [rec_lsn] and is retried next interval. *)

val try_prefetch : t -> Page_id.t -> unit
(** Read the page into the pool ahead of demand if it is absent and a
    frame is available without a write-back (free slot or clean victim);
    otherwise do nothing. Never blocks on I/O another frame needs first
    and never runs under a latch. Counted in [bp.prefetch.issued]; a later
    demand pin of the page counts [bp.prefetch.hit]. *)

val dirty_page_table : t -> (Page_id.t * int64) list
(** [(pid, rec_lsn)] for every dirty resident page — the ARIES DPT recorded
    in checkpoints. [rec_lsn] is the LSN that first dirtied the page. *)

val drop_all : t -> unit
(** Crash simulation: discard every frame (and its cached decoded node)
    without flushing. *)

(** {1 Decoded-node cache}

    Each frame can hold one type-erased decoded node ([Obj.t], because
    the pool cannot name the tree's predicate type) stamped with the page
    LSN it reflects. A lookup only hits while the stamp still equals the
    page-header LSN, so any logged mutation ({!mark_dirty} stamps a new
    LSN) implicitly invalidates a cache the writer did not reinstall.
    Mutators of the raw image that do {e not} go through node encoding
    (redo image reinstall, page zero-fill) must call {!invalidate_cache}
    explicitly. All four functions assume the frame latch is held (S
    suffices for {!cached_node}; installs happen under X). *)

val cached_node : frame -> Obj.t option
(** The cached decoded node, or [None] if absent or stale (stamp differs
    from the current page-header LSN). *)

val cache_node : frame -> Obj.t -> unit
(** Install a decoded node stamped with the {e current} page-header LSN.
    Call after the image and header LSN are final (i.e. after
    {!mark_dirty}). No-op when the pool was created with
    [~node_cache:false]. *)

val cache_node_at : frame -> Obj.t -> lsn:int64 -> unit
(** Like {!cache_node} but stamps [lsn] instead of reading the header —
    for redo, where [mark_dirty ~lsn] runs after the node write and the
    header will end at exactly [lsn]. *)

val invalidate_cache : frame -> unit
(** Drop the frame's cached node (counted in [bp.node_cache.invalidate]).
    Required after raw-image mutations that bypass node encoding. *)

val invalidate_caches : t -> unit
(** Drop every frame's cached node. Restart calls this first: redo
    mutates raw images, and a pool surviving {!Recovery.restart_multi}
    (warm restart) must not serve pre-crash decodes. *)

(** {1 Statistics}

    Per-pool counters, mirrored into the global metrics registry
    ([bp.hit], [bp.miss], [bp.evict], [bp.writeback],
    [latches_held_across_io]) — see OBSERVABILITY.md. *)

val hits : t -> int
(** Pins satisfied without disk I/O. *)

val misses : t -> int
(** Pins that had to read the page from disk. *)

val evictions : t -> int
(** Frames recycled to make room (write-back first if dirty). *)

val fg_writebacks : t -> int
(** Dirty write-backs paid on the foreground (demand-eviction) path —
    [bp.fg_writeback]. Zero while a live background writer keeps up. *)

val bg_writebacks : t -> int
(** Dirty write-backs issued by the background writer and administrative
    flushes — [bp.bg_writeback]. *)

val io_while_latched : t -> int
(** Disk I/Os issued while the calling domain held any latch — the claim-C1
    invariant; the GiST protocol keeps this at zero. *)

val reset_stats : t -> unit
(** Zero the per-pool counters (not the global metrics registry). *)
