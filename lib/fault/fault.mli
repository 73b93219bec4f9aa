(** Deterministic fault injection.

    A {!plan} is a small set of {!point}s — "on the [at]-th event of
    {!site}, perform {!action}" — armed onto a database's disk and log via
    the no-op-by-default hook points ({!Gist_storage.Disk.set_hooks},
    {!Gist_wal.Log_manager.set_append_hook}). When no plan is armed the
    hooks cost one [None] branch per I/O; when armed, event counting is
    exact and single-domain-deterministic, so a crash point found by the
    fuzzer replays bit-identically from the same seed.

    Crash model: a firing crash point raises {!Crash} out of the hook,
    {e before} any survivor state (the disk store, the log's record
    sequence) is touched — the power is gone, the operation never
    happened. Volatile state (buffer-pool frames stuck loading, held
    latches, transaction tables) may be left wedged; that is the point —
    [materialize_crash] discards all of it via [Db.crash], exactly as a
    real power loss would. The two exceptions that persist {e corrupted}
    state are {!Crash_torn} (the in-flight page write lands mangled, then
    power dies) and {!Crash_ragged} (the in-flight log append leaves a
    partial record past the durable watermark). *)

exception Crash
(** Simulated power loss, raised from a hook. Catch it at the driver's top
    level and call {!materialize_crash}. *)

exception Io_error
(** Simulated transient device error ({!Io_error_once}); the operation
    failed but the system lives on. *)

type site = Disk_read | Disk_write | Wal_append | Wal_flush
(** Hook points events are counted at (each counted from 1 per arming).
    [Wal_flush] counts durability {e requests} — [Log_manager.force] entry
    and [Group_commit.submit] — in the requesting domain (never inside a
    group-commit leader's flush), so one count per commit regardless of
    how many requests each physical flush absorbs: schedules stay
    seed-deterministic across commit modes. A crash there is power dying
    between a commit record's append and its durability. *)

val site_name : site -> string
(** ["disk.read"], ["disk.write"], ["wal.append"], ["wal.flush"] — the
    labels used by the [Fault_inject] trace event. *)

type action =
  | Crash_now  (** Power loss before the operation touches anything. *)
  | Crash_torn of int
      (** Disk-write only: persist the first [n] bytes of the new image
          over the old content, then power loss ([after_write]). The
          disk's checksum flags the page; restart's media check repairs
          it from a logged full-page image. *)
  | Crash_ragged of int
      (** WAL-append only: power loss, with the interrupted record
          leaving an [n]-byte garbage prefix past the durable watermark
          (materialized via [Log_manager.crash_ragged]). *)
  | Io_error_once  (** Raise {!Io_error} once; the point is consumed. *)
  | Delay_ns of int  (** A latency spike: block the caller, then proceed. *)

type point = { site : site; at : int; act : action }

type plan = point list

val crash_after : site -> int -> plan
(** Power loss at the [n]-th event of [site]. *)

val torn_write_at : int -> keep:int -> plan
(** Torn write at the [n]-th disk write, persisting [keep] bytes. *)

val ragged_append_at : int -> keep:int -> plan
(** Ragged log tail at the [n]-th append, keeping [keep] garbage bytes. *)

type t
(** An armed controller: the plan plus per-site event counters. *)

val arm : disk:Gist_storage.Disk.t -> log:Gist_wal.Log_manager.t -> plan -> t
(** Install the hooks. An empty plan counts events without ever firing —
    the fuzzer's profiling pass. *)

val disarm : t -> unit
(** Remove the hooks (idempotent; also done by {!materialize_crash}). *)

val events_seen : t -> site -> int
(** Events counted at [site] since arming (profiling pass output). *)

val fired : t -> (string * int) list
(** The points that fired, in firing order, as [(site_name, seq)]. *)

val materialize_crash : t -> Gist_core.Db.t -> Gist_core.Db.t
(** Turn a raised {!Crash} into the post-power-loss world: disarm the
    hooks, leave the ragged tail in the log if a {!Crash_ragged} point
    fired, and run [Db.crash] (drop all volatile state, truncate the log
    to its durable prefix). Run recovery on the returned environment. *)
