module Metrics = Gist_obs.Metrics
module Trace = Gist_obs.Trace
module Disk = Gist_storage.Disk
module Page_id = Gist_storage.Page_id
module Log_manager = Gist_wal.Log_manager

exception Crash

exception Io_error

let m_armed = Metrics.counter ~unit_:"ops" ~help:"fault plans armed" "fault.armed"

let m_fired =
  Metrics.counter ~unit_:"ops" ~help:"fault-injection points that fired" "fault.fired"

let m_crashes =
  Metrics.counter ~unit_:"ops" ~help:"injected crashes (power loss)" "fault.crash"

let m_torn = Metrics.counter ~unit_:"ops" ~help:"injected torn page writes" "fault.torn_write"

let m_io_errors =
  Metrics.counter ~unit_:"ops" ~help:"injected transient I/O errors" "fault.io_error"

let m_delays = Metrics.counter ~unit_:"ops" ~help:"injected latency spikes" "fault.delay"

type site = Disk_read | Disk_write | Wal_append | Wal_flush

let site_name = function
  | Disk_read -> "disk.read"
  | Disk_write -> "disk.write"
  | Wal_append -> "wal.append"
  | Wal_flush -> "wal.flush"

type action =
  | Crash_now
  | Crash_torn of int
  | Crash_ragged of int
  | Io_error_once
  | Delay_ns of int

type point = { site : site; at : int; act : action }

type plan = point list

let crash_after site at = [ { site; at; act = Crash_now } ]

let torn_write_at at ~keep = [ { site = Disk_write; at; act = Crash_torn keep } ]

let ragged_append_at at ~keep = [ { site = Wal_append; at; act = Crash_ragged keep } ]

(* The controller is driven from a single domain (the fuzzer's workload is
   sequential); counters are plain mutable fields. *)
type t = {
  disk : Disk.t;
  log : Log_manager.t;
  mutable points : point list;
  mutable n_read : int;
  mutable n_write : int;
  mutable n_append : int;
  mutable n_flush : int;
  mutable ragged_keep : int option;
      (* a ragged-append point fired: [materialize_crash] must leave a
         torn tail in the log *)
  mutable crash_after_write : bool;
      (* a torn-write point fired: the [after_write] hook crashes once the
         mangled image has landed *)
  mutable in_hook : bool;
      (* reentrancy guard: building a torn image reads the old page
         content through the public [Disk.read], which must not count as
         a workload event *)
  mutable power_off : bool;
      (* a crash point fired: the simulated power is off, so every
         subsequent disk or WAL operation — from any domain — raises
         instead of landing. Without this, a background domain (flusher,
         checkpointer) racing the unwinding workload could keep forcing
         the log and writing pages *after* the power-loss instant,
         retroactively violating the WAL rule once [materialize_crash]
         rewinds the log (a page on disk whose records were discarded, a
         commit durable whose [commit] never returned). A plain bool is
         enough: OCaml word reads/writes do not tear, and a domain
         missing the flag for one extra operation is indistinguishable
         from that operation having raced the crash itself. *)
  mutable fired : (string * int) list;
}

let events_seen t = function
  | Disk_read -> t.n_read
  | Disk_write -> t.n_write
  | Wal_append -> t.n_append
  | Wal_flush -> t.n_flush

let fired t = List.rev t.fired

let lookup t site seq =
  List.find_opt (fun p -> p.site = site && p.at = seq) t.points

(* Bookkeeping common to every firing point: consume it, record it,
   surface it in metrics and the trace ring. *)
let note t site seq =
  t.points <- List.filter (fun p -> not (p.site = site && p.at = seq)) t.points;
  t.fired <- (site_name site, seq) :: t.fired;
  Metrics.incr m_fired;
  if Trace.enabled () then Trace.emit (Trace.Fault_inject { site = site_name site; seq })

let apply_simple t site seq act =
  note t site seq;
  match act with
  | Crash_now ->
    Metrics.incr m_crashes;
    t.power_off <- true;
    raise Crash
  | Crash_ragged keep ->
    Metrics.incr m_crashes;
    t.ragged_keep <- Some keep;
    t.power_off <- true;
    raise Crash
  | Io_error_once ->
    Metrics.incr m_io_errors;
    raise Io_error
  | Delay_ns ns ->
    Metrics.incr m_delays;
    if ns > 0 then Unix.sleepf (Float.of_int ns /. 1e9)
  | Crash_torn _ -> assert false (* only reachable from the write hook *)

let before_read t _pid =
  if t.power_off then raise Crash;
  if not t.in_hook then begin
    t.n_read <- t.n_read + 1;
    match lookup t Disk_read t.n_read with
    | Some p -> apply_simple t Disk_read t.n_read p.act
    | None -> ()
  end

let before_write t pid img =
  if t.power_off then raise Crash;
  if t.in_hook then Disk.Write_full
  else begin
    t.n_write <- t.n_write + 1;
    let seq = t.n_write in
    match lookup t Disk_write seq with
    | Some { act = Crash_torn keep; _ } ->
      note t Disk_write seq;
      Metrics.incr m_torn;
      (* What the platter ends up holding: a prefix of the new image
         spliced onto the old content (zeros if the page was never
         written) — the classic interrupted sector train. *)
      t.in_hook <- true;
      let old =
        match Disk.read t.disk pid with
        | bytes -> bytes
        | exception _ -> Bytes.make (Bytes.length img) '\000'
      in
      t.in_hook <- false;
      let torn = Bytes.copy old in
      let n = min (max 0 keep) (Bytes.length img) in
      Bytes.blit img 0 torn 0 n;
      t.crash_after_write <- true;
      Disk.Write_torn torn
    | Some p ->
      apply_simple t Disk_write seq p.act;
      Disk.Write_full
    | None -> Disk.Write_full
  end

let after_write t _pid =
  if t.crash_after_write then begin
    t.crash_after_write <- false;
    Metrics.incr m_crashes;
    t.power_off <- true;
    raise Crash
  end

let on_append t =
  if t.power_off then raise Crash;
  if not t.in_hook then begin
    t.n_append <- t.n_append + 1;
    match lookup t Wal_append t.n_append with
    | Some p -> apply_simple t Wal_append t.n_append p.act
    | None -> ()
  end

(* Counted at the durability *request* — [force]/[force_all] entry and
   [Group_commit.submit] — in the requesting domain, never inside a
   group-commit leader's flush; the count is the same however many
   requests each physical flush later absorbs, so schedules stay seed-deterministic
   across commit modes. A crash here is the power dying with a commit's
   flush request in flight: the commit record is appended but (unless a
   neighbor already covered it) not durable. *)
let on_flush t =
  if t.power_off then raise Crash;
  if not t.in_hook then begin
    t.n_flush <- t.n_flush + 1;
    match lookup t Wal_flush t.n_flush with
    | Some p -> apply_simple t Wal_flush t.n_flush p.act
    | None -> ()
  end

let arm ~disk ~log plan =
  let t =
    {
      disk;
      log;
      points = plan;
      n_read = 0;
      n_write = 0;
      n_append = 0;
      n_flush = 0;
      ragged_keep = None;
      crash_after_write = false;
      in_hook = false;
      power_off = false;
      fired = [];
    }
  in
  Disk.set_hooks disk
    (Some
       {
         Disk.before_read = (fun pid -> before_read t pid);
         before_write = (fun pid img -> before_write t pid img);
         after_write = (fun pid -> after_write t pid);
       });
  Log_manager.set_append_hook log (Some (fun () -> on_append t));
  Log_manager.set_flush_hook log (Some (fun () -> on_flush t));
  Metrics.incr m_armed;
  t

let disarm t =
  Disk.set_hooks t.disk None;
  Log_manager.set_append_hook t.log None;
  Log_manager.set_flush_hook t.log None

let materialize_crash t db =
  (* Halt the writer domains while the hooks are still armed: the sticky
     [power_off] makes any of their in-flight I/O raise instead of land.
     Only once every domain is dead is it safe to rewind the log below —
     otherwise a flusher racing this rewind could write back a page whose
     records the rewind discards (a disk page referencing an allocation no
     durable record made). *)
  Gist_core.Db.halt_domains db;
  disarm t;
  (* The crash unwound ops that were holding latches; the latches are
     volatile and die with the buffer pool, and so does the executing
     thread's held count. *)
  Gist_storage.Latch.reset_held ();
  (match t.ragged_keep with
  | Some keep -> Log_manager.crash_ragged ~keep_bytes:keep t.log
  | None -> ());
  t.ragged_keep <- None;
  Gist_core.Db.crash db
