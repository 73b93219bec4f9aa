module Metrics = Gist_obs.Metrics
module Trace = Gist_obs.Trace

type mode = Sync | Group | Async

let mode_to_string = function Sync -> "sync" | Group -> "group" | Async -> "async"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "sync" -> Some Sync
  | "group" -> Some Group
  | "async" -> Some Async
  | _ -> None

let m_group_commit =
  Metrics.counter ~unit_:"ops" ~help:"durability requests routed through group commit"
    "wal.group_commit"

let m_group_flush =
  Metrics.counter ~unit_:"ops"
    ~help:"leader flushes (one device write each, by a committer or the Async trailer)"
    "wal.group_flush"

let h_group_size =
  Metrics.histogram ~unit_:"reqs"
    ~help:"durability requests coalesced into each leader flush" "wal.group_size"

(* Shared with [Log_manager]'s sync path: the registry dedupes by name, so
   both routes land their stall time in one histogram and pre/post latency
   stays directly comparable. *)
let h_force_wait_ns =
  Metrics.histogram ~unit_:"ns"
    ~help:"time a durability request stalled: device queueing + the physical flush"
    "wal.force_wait_ns"

(* All mutable state sits behind one mutex. [flushing] marks the one
   leader flush in flight; [reqs] counts the requests registered since the
   last flush began (the next flush's group); [hi] is the highest LSN an
   Async request left for the trailer. [halted] is a power cut: no flush
   starts after it. The committing domains flush for themselves; [writer]
   is the Async trailer, the only domain this module spawns. *)
type t = {
  log : Log_manager.t;
  m : Mutex.t;
  done_ : Condition.t;  (* followers park here while a leader flushes *)
  work : Condition.t;  (* the trailer parks here while nothing is pending *)
  mutable flushing : bool;
  mutable reqs : int;
  mutable hi : Lsn.t;
  mutable halted : bool;
  mutable stopping : bool;
  mutable writer : unit Domain.t option;
}

let create log =
  {
    log;
    m = Mutex.create ();
    done_ = Condition.create ();
    work = Condition.create ();
    flushing = false;
    reqs = 0;
    hi = Lsn.nil;
    halted = false;
    stopping = false;
    writer = None;
  }

let covered t lsn = Lsn.compare (Log_manager.durable_lsn t.log) lsn >= 0

(* Called with [t.m] held and no flush in flight: become the leader, make
   everything published (and at least [lsn]) durable with one device
   write while the mutex is released, then wake the followers. Returns
   with [t.m] held. Requests that register during the flush wait for it
   and form the next group. *)
let lead t lsn =
  t.flushing <- true;
  let n = t.reqs in
  t.reqs <- 0;
  Mutex.unlock t.m;
  let target = Lsn.max lsn (Log_manager.last_lsn t.log) in
  Log_manager.flush_to t.log target;
  Metrics.incr m_group_flush;
  Metrics.record h_group_size (Float.of_int n);
  if Trace.enabled () then Trace.emit (Trace.Group_flush { lsn = target; group = n });
  Mutex.lock t.m;
  t.flushing <- false;
  Condition.broadcast t.done_

(* Called with [t.m] held: follow the flush in flight, or lead one. Ends
   once [lsn] is durable, once [halt] cut the power, or after this
   domain's own flush — which covers [lsn] unless a crash rewound the log
   past it, in which case nothing ever will. *)
let rec await t lsn =
  if covered t lsn || t.halted then ()
  else if t.flushing then begin
    Condition.wait t.done_ t.m;
    await t lsn
  end
  else lead t lsn

(* The Async trailer: take the pending [hi], make it durable, repeat;
   park while nothing is pending. *)
let rec trail t =
  while Lsn.equal t.hi Lsn.nil && not t.stopping do
    Condition.wait t.work t.m
  done;
  if not (Lsn.equal t.hi Lsn.nil) then begin
    let target = t.hi in
    t.hi <- Lsn.nil;
    await t target;
    trail t
  end

let start t =
  Mutex.lock t.m;
  if t.writer = None then begin
    t.stopping <- false;
    t.writer <-
      Some
        (Domain.spawn (fun () ->
             Mutex.lock t.m;
             trail t;
             Mutex.unlock t.m))
  end;
  Mutex.unlock t.m

let running t =
  Mutex.lock t.m;
  let r = t.writer <> None in
  Mutex.unlock t.m;
  r

(* Stop the trailer (it drains [hi] first unless [halted]) and join it. *)
let join_writer t =
  let d = t.writer in
  t.writer <- None;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  Option.iter Domain.join d;
  Mutex.lock t.m

let stop t =
  Mutex.lock t.m;
  join_writer t;
  Mutex.unlock t.m

(* A power cut. The pending Async window is discarded; the flush in
   flight, like a device write at the moment of failure, completes before
   [halt] returns, so the log rewind that follows is stop-the-world. Every
   follower is released un-covered — its commit died with the power — and
   no flush starts afterwards. *)
let halt t =
  Mutex.lock t.m;
  t.halted <- true;
  t.hi <- Lsn.nil;
  Condition.broadcast t.done_;
  join_writer t;
  while t.flushing do
    Condition.wait t.done_ t.m
  done;
  Mutex.unlock t.m

let submit ?(wait = true) t lsn =
  Log_manager.fire_flush_hook t.log;
  Metrics.incr m_group_commit;
  if not (covered t lsn) then begin
    Mutex.lock t.m;
    if wait then begin
      t.reqs <- t.reqs + 1;
      Metrics.time_ns h_force_wait_ns (fun () -> await t lsn)
    end
    else if t.writer <> None then begin
      t.reqs <- t.reqs + 1;
      if Lsn.compare lsn t.hi > 0 then t.hi <- lsn;
      Condition.signal t.work
    end;
    (* With no trailer, an Async record stays volatile until a neighboring
       flush covers it — exactly Async's durability-trails contract. *)
    Mutex.unlock t.m
  end
