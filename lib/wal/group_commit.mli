(** Group commit: leader/follower flush batching in the committing
    domains.

    WAL {e append} is lock-free; this module removes the remaining
    global serialization point — durability. Instead of every committer
    paying its own physical flush ({!Log_manager.force}: device mutex +
    the full simulated device write), a committer whose LSN is not yet
    durable and that finds no flush in flight becomes the {e leader}: it
    flushes everything published so far with one device write and wakes
    the {e followers} that queued behind it. Followers whose LSN that
    flush covered return; the rest elect the next leader among
    themselves. Batches form behind the flush in flight, so there is no
    batching stall: a lone committer flushes at once, and under load each
    device write covers every commit that arrived while the previous one
    ran. No domain is handed the flush, so a commit never waits for
    another domain to be scheduled.

    Three commit modes, selected per-database by [Db.config.commit_mode]:

    - [Sync] — each commit calls {!Log_manager.force} itself (the
      pre-group-commit behavior, and the default).
    - [Group] — commits {!submit} with [wait = true]: the call returns
      once a leader's flush covers the commit LSN. Same durability
      contract as [Sync], one device write per batch.
    - [Async] — commits {!submit} with [wait = false]: locks and
      predicates release immediately and durability trails. A trailer
      domain ({!start}), the only domain this module spawns, flushes
      what Async commits leave behind. After a crash an async-committed
      transaction may roll back (atomically — all of it or none); a
      [Sync]/[Group]-committed one may not. See PROTOCOL.md §8.

    The device itself never merges flush commands — a {!Log_manager.force}
    that queues behind a neighbor covering its LSN still pays its own
    barrier ([wal.flush_absorbed] counts the write it saved). Leader
    flushes are the host-side merging that turns N commits into one
    device command ([wal.group_size] per flush). *)

(** How a transaction commit obtains durability. *)
type mode = Sync | Group | Async

val mode_to_string : mode -> string
(** ["sync"] / ["group"] / ["async"] — the spelling experiments and env
    knobs ([FUZZ_COMMIT_MODE]) use. *)

val mode_of_string : string -> mode option
(** Inverse of {!mode_to_string} (case-insensitive); [None] on anything
    else. *)

type t
(** A group-commit instance: the leader/follower state (flush in flight,
    requests waiting for the next one), the Async trailer's pending LSN,
    and the trailer-domain lifecycle. *)

val create : Log_manager.t -> t
(** A group-commit instance over [log], with no trailer running. Waiting
    submits need nothing more: they flush for themselves. *)

val start : t -> unit
(** Spawn the Async trailer domain. Idempotent — a running trailer is
    kept. *)

val stop : t -> unit
(** Drain the Async window and join the trailer: every no-wait request
    enqueued before [stop] returns is durable (or crash-rewound).
    Idempotent; {!start} may be called again after. *)

val halt : t -> unit
(** Power cut: join the trailer {e discarding} the pending Async window —
    those requests are the log tail a simulated crash loses. A leader
    flush already in flight completes before [halt] returns (a device
    write in flight at failure), so the log rewind that follows is
    stop-the-world, as {!Log_manager.crash} assumes. Every follower is
    released un-covered — its commit died with the power — and the
    instance stays halted: no later submit flushes or waits. [Db.crash]
    calls this before rewinding the log. *)

val running : t -> bool
(** Whether the Async trailer domain is live. *)

val submit : ?wait:bool -> t -> Lsn.t -> unit
(** Request durability up to [lsn]. Fires the flush-request fault hook
    ({!Log_manager.set_flush_hook}) and counts [wal.group_commit]; returns
    at once if [lsn] is already durable.

    With [wait = true] (default), runs leader/follower in the calling
    domain: follow the flush in flight, or — with none in flight — lead
    one ({!Log_manager.flush_to} up to the highest published LSN; the hook
    already fired here). Returns once [lsn] is durable, after the
    caller's own flush as leader (durable unless a crash rewound the
    log), or on {!halt} (simulated power loss: durability can never
    arrive, and the waiting commit died with the power anyway). Waiting
    time lands in the shared [wal.force_wait_ns] histogram.

    With [wait = false], hands [lsn] to the trailer and returns —
    pipelined durability. With no trailer running, the record stays
    volatile until a neighboring flush covers it. *)
