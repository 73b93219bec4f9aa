(** Write-ahead log manager.

    Records are serialized to bytes on append and kept in an in-memory
    sequence split by a durability watermark: a simulated crash discards
    everything after the last [force]. LSNs are dense (1, 2, 3, …) so the
    log doubles as the tree-global NSN counter of §10.1 — [last_lsn] is the
    "global counter" a traversal memorizes, and the LSN of a split's log
    record is the new NSN of the split node, recoverable for free.

    Thread-safe, and lock-free on every hot path: [append] encodes into a
    per-domain scratch buffer, reserves its LSN with one atomic
    fetch-and-add, stores the image into the reserved slot of a chunked
    slot store, and advances a contiguous {e publish watermark} — appends
    from N domains never convoy on a mutex. [last_lsn], [durable_lsn],
    [read] and [iter_from] are plain atomic reads over published slots
    (§10.1's warning about a synchronized NSN counter no longer applies;
    experiment E8 measures the alternatives, E14 the multi-domain
    scaling). The internal mutex guards only structural cold paths (chunk
    allocation, truncation, simulated crashes). *)

type t
(** A log manager: the record slots, the publish and durability
    watermarks, and the checkpoint anchor. *)

val create : unit -> t
(** An empty log; the first append gets LSN 1. *)

val append :
  t ->
  txn:Gist_util.Txn_id.t ->
  prev:Lsn.t ->
  ?ext:string ->
  Log_record.payload ->
  Lsn.t
(** Reserve the next LSN, serialize, and publish the record — no lock
    taken (amortized; the first append into each 1024-record chunk
    allocates it under the structural mutex). [ext] names the
    access-method extension the payload's opaque encodings belong to.
    On return the record's slot is filled; it becomes visible to readers
    once the publish watermark crosses it, i.e. as soon as every earlier
    reservation is also in place. *)

val force : t -> Lsn.t -> unit
(** Make every record up to and including [lsn] durable. Waits (parked on
    a condition variable) for the publish watermark to cover [lsn] if a
    neighboring append below it is still in flight, then performs one
    physical flush on the simulated log device: a single-admission mutex
    plus the configured {!set_flush_delay_ns} latency. Every flush
    command pays the full device round-trip — a caller that queued behind
    a neighbor whose flush already covered its LSN has nothing left to
    write ([wal.flush_absorbed]) but still owes its own barrier; merging
    concurrent flushes into one command is the host's job, which is what
    {!Group_commit}'s leader flushes add. Returns immediately when [lsn] is
    already durable (counted in the [wal.force_noop] metric, not in
    {!forces}). Time stalled in the slow path lands in the
    [wal.force_wait_ns] histogram; each entry fires the flush-request
    hook ({!set_flush_hook}). *)

val force_all : t -> unit
(** Make the whole log durable ({!force} up to the highest reserved LSN). *)

val flush_to : t -> Lsn.t -> unit
(** The physical flush alone: make records up to [lsn] durable {e without}
    firing the flush-request hook or counting a caller-side force — the
    entry point for {!Group_commit}'s leader flushes, whose requests
    already fired the hook at submission. One device write
    covers every LSN up to the clamp, however many committers requested
    them. *)

val set_flush_delay_ns : t -> int -> unit
(** Simulated log-device latency per physical flush (default 0). Like the
    disk's [io_delay_ns] it blocks only the flushing domain, so group
    commit — which amortizes one flush over every commit in the window —
    shows up as real throughput, not just a counter. *)

val last_lsn : t -> Lsn.t
(** LSN of the most recent {e published} record (the global NSN counter).
    May momentarily trail a concurrent append that has not been published
    yet — under-reporting only ever causes a conservative extra rightlink
    check, never a missed split. *)

val durable_lsn : t -> Lsn.t
(** The durability watermark: every record at or below it survives a
    crash. A lock-free monotonic read, like {!force}'s fast path. *)

val read : t -> Lsn.t -> Log_record.t option
(** Decode the record at [lsn]; [None] if out of range (never appended,
    crash-lost, or truncated away). If [lsn] is reserved by an in-flight
    append, waits for publication — rollback must never mistake an
    in-flight record for a crash-lost one. *)

val iter_from : t -> Lsn.t -> (Log_record.t -> unit) -> unit
(** Apply to every published record with LSN >= the argument, in order.
    Entirely lock-free: one watermark snapshot bounds the scan, so
    restart replay over a long log takes zero lock round-trips. *)

val set_anchor : t -> Lsn.t -> unit
(** Persist the LSN of the most recent complete checkpoint (the "master
    record"). Durable immediately, like a separate anchor block. *)

val anchor : t -> Lsn.t
(** The persisted checkpoint anchor; [Lsn.nil] before the first
    {!set_anchor}. Restart's analysis pass begins here. *)

val crash : t -> unit
(** Discard the volatile tail: records after [durable_lsn] are lost, the
    anchor keeps its last durable value. Assumes the workload domains are
    gone (a simulated power loss is stop-the-world). *)

val crash_ragged : ?keep_bytes:int -> t -> unit
(** Like {!crash}, but the device was mid-append when power died: the
    first record past the durable watermark persists a [keep_bytes]-byte
    garbage prefix (a {e torn tail}). The garbage occupies no LSN slot —
    readers never see it — but restart must acknowledge and discard it via
    {!discard_torn_tail}, and any later {!append} overwrites it. *)

val has_torn_tail : t -> bool
(** Whether a ragged crash left a partially written record after the
    durable prefix. *)

val discard_torn_tail : t -> bool
(** Detect and drop the torn tail (restart's log-scan boundary check: a
    record that fails its length/checksum validation ends the usable log).
    Returns whether one was found; bumps the [wal.torn_tail] metric.
    Called by [Recovery.restart_multi] before analysis. *)

val truncate_before : t -> Lsn.t -> int
(** Reclaim records with LSN below the given point — clamped so nothing at
    or after the checkpoint anchor, or not yet durable, is ever discarded
    (restart may need those). Returns how many records were reclaimed.
    Safe after a checkpoint whose dirty pages have been flushed; runs
    concurrently with lock-free appends (they only touch slots above the
    durability watermark). *)

(** {1 Statistics}

    Per-log counters, mirrored into the global metrics registry
    ([wal.append], [wal.append_bytes], [wal.force], [wal.append_ns],
    [wal.append_retry]) — see OBSERVABILITY.md. *)

val appended : t -> int
(** Records published since creation (LSNs are dense, so this is also the
    highest published LSN). *)

val forces : t -> int
(** {!force} / {!force_all} calls (whether or not the watermark moved). *)

val bytes_written : t -> int
(** Total encoded size of appended records. Reported as the delta of the
    process-wide [wal.append_bytes] counter against a baseline captured at
    {!create} / {!reset_stats} — the byte count is recorded exactly once
    per append, not kept in a per-log twin. With several logs appending
    concurrently (tests), the figure aggregates all of them. *)

val reset_stats : t -> unit
(** Zero the per-log counters (not the global metrics registry). *)

(** {1 Fault injection} *)

val set_append_hook : t -> (unit -> unit) option -> unit
(** Install (or clear) a hook run at every {!append} entry, before the
    record touches any log state — so a raised exception (simulated power
    loss, [Gist_fault.Crash]) means the append never happened and never
    leaves the log, which survives the crash, in a locked or half-updated
    state. One [None] branch per append when injection is off. *)

val set_flush_hook : t -> (unit -> unit) option -> unit
(** Install (or clear) a hook run at every {e durability request} —
    {!force} / {!force_all} entry (before the already-durable fast path)
    and {!Group_commit.submit} — in the requesting domain, never inside a
    group-commit leader's flush. That placement keeps fault schedules deterministic:
    the hook fires once per request regardless of how many requests each
    physical flush absorbs. *)

val fire_flush_hook : t -> unit
(** Run the flush hook if one is installed — for durability entry points
    outside this module ({!Group_commit.submit}) that must participate in
    the same fault-injection site. *)
