open Gist_util
module Metrics = Gist_obs.Metrics
module Trace = Gist_obs.Trace

let m_appends = Metrics.counter ~unit_:"ops" ~help:"log records appended" "wal.append"

let m_bytes =
  Metrics.counter ~unit_:"bytes" ~help:"serialized log bytes appended" "wal.append_bytes"

let m_forces = Metrics.counter ~unit_:"ops" ~help:"log force (durability) requests" "wal.force"

let m_force_noop =
  Metrics.counter ~unit_:"ops"
    ~help:"force requests skipped because the LSN was already durable" "wal.force_noop"

let m_append_retry =
  Metrics.counter ~unit_:"ops"
    ~help:"contended publish-watermark CAS retries on the lock-free append path"
    "wal.append_retry"

let m_flushes =
  Metrics.counter ~unit_:"ops"
    ~help:"physical log-device writes (one per flush window, however many LSNs it covers)"
    "wal.flush"

let m_flush_absorbed =
  Metrics.counter ~unit_:"ops"
    ~help:"flushes whose LSN a neighboring flush had already covered when they reached \
           the device head — their write was merged but their flush command still paid \
           the device barrier (host-side merging the caller left on the table)"
    "wal.flush_absorbed"

let h_force_wait_ns =
  Metrics.histogram ~unit_:"ns"
    ~help:"time a durability request stalled: device queueing + the physical flush"
    "wal.force_wait_ns"

let h_append_ns =
  Metrics.histogram ~unit_:"ns" ~help:"serialize + LSN-reserve + publish latency of one append"
    "wal.append_ns"

let m_torn_tail =
  Metrics.counter ~unit_:"ops"
    ~help:"partially-written log tails detected and discarded at restart" "wal.torn_tail"

(* The append path takes no lock. An appender

     1. encodes the record into a per-domain scratch buffer (the expensive
        part, fully outside any synchronization),
     2. reserves the next dense LSN with one [Atomic.fetch_and_add],
     3. patches the LSN into the image and stores it into the reserved
        slot of a chunked slot store, and
     4. advances the contiguous *publish watermark* over every filled slot.

   The watermark ([published]) is the log's public high-water mark: reads,
   iteration, [last_lsn] (the §10.1 NSN counter) and [force] all clamp to
   it, so a reserved-but-unfilled slot from a concurrent appender is never
   observable. A caller that needs a specific reserved LSN ([force] before
   commit returns, [read] during rollback) blocks on a condition variable
   until the watermark covers it — between reservation and slot store
   there is no fallible or blocking code, so the gap closes as soon as the
   neighboring appender is scheduled, and the group-commit property of the
   old mutex design is preserved without the convoy.

   The mutex guards only structural cold paths: chunk-directory growth,
   truncation, simulated crashes, and the torn-tail capture. *)

let chunk_bits = 10

let chunk_size = 1 lsl chunk_bits (* records per slot chunk *)

type chunk = Bytes.t option Atomic.t array

(* Shared sentinel for truncated-away (or not-yet-allocated) chunks. *)
let empty_chunk : chunk = [||]

type t = {
  mutex : Mutex.t; (* chunk growth, truncation, crash, torn-tail capture *)
  chunks : chunk array Atomic.t; (* directory; chunk c holds LSNs c*CS+1 .. (c+1)*CS *)
  next : int Atomic.t; (* highest reserved LSN *)
  published : int Atomic.t; (* highest contiguous in-place LSN *)
  durable : int Atomic.t; (* durability watermark; <= published *)
  floor : int Atomic.t; (* LSNs <= floor have been truncated away *)
  anchor : int Atomic.t; (* checkpoint anchor ("master record") *)
  wait_m : Mutex.t; (* publish-watermark waiters (force/read of an in-flight LSN) *)
  wait_c : Condition.t;
  waiters : int Atomic.t; (* publishers broadcast only when someone is parked *)
  forces : int Atomic.t;
  flush_m : Mutex.t;
      (* the simulated log device: one flush command at a time, and every
         command pays the full device round-trip ([flush_delay_ns]) — a
         barrier issued to the device costs the same whether or not the
         cache still holds dirty bytes. Merging concurrent flushes into
         one command is the *host's* job; [Group_commit]'s leader
         flushes are where that happens. *)
  flush_delay_ns : int Atomic.t; (* simulated device latency per physical flush *)
  mutable bytes_base : int; (* [wal.append_bytes] value at create/reset_stats *)
  mutable append_hook : (unit -> unit) option;
      (* fault injection: runs at append entry, before any state changes *)
  mutable flush_hook : (unit -> unit) option;
      (* fault injection: runs at every durability *request* (force entry,
         group-commit submit) in the requesting domain, never inside a
         group-commit leader's flush — crash points inside the flush
         window stay deterministic for the crash fuzzer *)
  torn_tail : Bytes.t option Atomic.t;
      (* a partially persisted record beyond [durable] left by a ragged
         crash; occupies no LSN slot and must be discarded at restart *)
}

let create () =
  {
    mutex = Mutex.create ();
    chunks = Atomic.make [||];
    next = Atomic.make 0;
    published = Atomic.make 0;
    durable = Atomic.make 0;
    floor = Atomic.make 0;
    anchor = Atomic.make 0;
    wait_m = Mutex.create ();
    wait_c = Condition.create ();
    waiters = Atomic.make 0;
    forces = Atomic.make 0;
    flush_m = Mutex.create ();
    flush_delay_ns = Atomic.make 0;
    bytes_base = Metrics.value m_bytes;
    append_hook = None;
    flush_hook = None;
    torn_tail = Atomic.make None;
  }

let set_append_hook t hook = t.append_hook <- hook

let set_flush_hook t hook = t.flush_hook <- hook

let fire_flush_hook t = match t.flush_hook with None -> () | Some hook -> hook ()

let set_flush_delay_ns t ns = Atomic.set t.flush_delay_ns (max 0 ns)

(* The slot holding [lsn], or [None] when its chunk has not been allocated
   (or was truncated away wholesale). Lock-free. *)
let slot t lsn =
  let idx = lsn - 1 in
  let c = idx lsr chunk_bits in
  let dir = Atomic.get t.chunks in
  if c >= Array.length dir then None
  else
    let chunk = Array.unsafe_get dir c in
    let i = idx land (chunk_size - 1) in
    if i >= Array.length chunk then None else Some (Array.unsafe_get chunk i)

let slot_get t lsn = match slot t lsn with None -> None | Some s -> Atomic.get s

(* The slot for [lsn], allocating its chunk (and growing the directory)
   under the mutex if needed. Only the rare first-append-into-a-chunk
   takes the lock. *)
let ensure_slot t lsn =
  match slot t lsn with
  | Some s -> s
  | None ->
    Mutex.lock t.mutex;
    let idx = lsn - 1 in
    let c = idx lsr chunk_bits in
    let dir = Atomic.get t.chunks in
    let dir =
      if c < Array.length dir then dir
      else begin
        let dir' = Array.make (max (c + 1) (max 4 (2 * Array.length dir))) empty_chunk in
        Array.blit dir 0 dir' 0 (Array.length dir);
        Atomic.set t.chunks dir';
        dir'
      end
    in
    if dir.(c) == empty_chunk then dir.(c) <- Array.init chunk_size (fun _ -> Atomic.make None);
    let s = dir.(c).(idx land (chunk_size - 1)) in
    Mutex.unlock t.mutex;
    s

let wake_waiters t =
  if Atomic.get t.waiters > 0 then begin
    Mutex.lock t.wait_m;
    Condition.broadcast t.wait_c;
    Mutex.unlock t.wait_m
  end

(* Advance the publish watermark over every contiguous filled slot. Each
   appender calls this after storing its own record; whichever domain
   observes the next slot filled carries the watermark forward, so it
   reaches [next] as soon as every reservation below is in place. A failed
   CAS means a neighbor advanced concurrently — counted as
   [wal.append_retry], the contention the old design paid a mutex for. *)
let rec publish t =
  let p = Atomic.get t.published in
  if p < Atomic.get t.next && slot_get t (p + 1) <> None then begin
    if Atomic.compare_and_set t.published p (p + 1) then wake_waiters t
    else Metrics.incr m_append_retry;
    publish t
  end

(* Park until the watermark covers [target], or the reservation counter
   rewinds below it (a simulated crash dropped the tail). Parking (rather
   than spinning) matters on an oversubscribed host: the missing slot
   belongs to a neighbor that may not be scheduled yet. *)
let wait_published t target =
  if Atomic.get t.published < target && Atomic.get t.next >= target then begin
    Atomic.incr t.waiters;
    Mutex.lock t.wait_m;
    while Atomic.get t.published < target && Atomic.get t.next >= target do
      Condition.wait t.wait_c t.wait_m
    done;
    Mutex.unlock t.wait_m;
    Atomic.decr t.waiters
  end

let scratch_key : Buffer.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Buffer.create 256)

let append t ~txn ~prev ?(ext = "") payload =
  (match t.append_hook with None -> () | Some hook -> hook ());
  (* A successful append lands where the garbage tail sat: overwrite it. *)
  if Atomic.get t.torn_tail <> None then Atomic.set t.torn_tail None;
  let t0 = Clock.now_ns () in
  (* Serialize into the calling domain's reusable scratch buffer — no
     per-record [Buffer.create], no synchronization. *)
  let b = Domain.DLS.get scratch_key in
  Buffer.clear b;
  (* Placeholder LSN; patched once reserved. *)
  Log_record.encode b { Log_record.lsn = Lsn.nil; txn; prev; ext; payload };
  let img = Buffer.to_bytes b in
  (* Reservation to slot-store is straight-line infallible code, so every
     reserved slot is filled promptly and the watermark never sticks. *)
  let lsn = 1 + Atomic.fetch_and_add t.next 1 in
  Bytes.set_int64_le img 0 (Int64.of_int lsn);
  Atomic.set (ensure_slot t lsn) (Some img);
  publish t;
  Metrics.incr m_appends;
  (* The byte count is recorded exactly once — [bytes_written] reads this
     same counter relative to a baseline instead of keeping a twin. *)
  Metrics.add m_bytes (Bytes.length img);
  Metrics.record h_append_ns (Float.of_int (Clock.now_ns () - t0));
  let lsn64 = Int64.of_int lsn in
  if Trace.enabled () then Trace.emit (Trace.Wal_append { lsn = lsn64; bytes = Bytes.length img });
  lsn64

(* Monotonic CAS advance of the durability watermark. *)
let rec advance_durable t target =
  let d = Atomic.get t.durable in
  if d < target && not (Atomic.compare_and_set t.durable d target) then advance_durable t target

(* The physical flush: one simulated flush command making every record up
   to [target] durable. The device ([flush_m]) admits one command at a
   time and each pays the full round-trip: a caller that queued behind a
   neighbor whose write already covered its LSN has nothing left to
   *write* ([wal.flush_absorbed]) but still owes its own barrier —
   devices don't merge flush commands, hosts do. That merging is exactly
   what [Group_commit]'s leader flushes add: one command per batch
   instead of one per committer. *)
let force_to t target =
  wait_published t target;
  (* If a simulated crash rewound the tail while we waited, only what
     remains published can be made durable. *)
  let target = min target (Atomic.get t.published) in
  if target > Atomic.get t.durable then begin
    Mutex.lock t.flush_m;
    if target <= Atomic.get t.durable then Metrics.incr m_flush_absorbed;
    let delay = Atomic.get t.flush_delay_ns in
    if delay > 0 then Unix.sleepf (Float.of_int delay /. 1e9);
    Metrics.incr m_flushes;
    (* Re-clamp: a crash during the simulated device wait may have
       rewound the published watermark below the target. *)
    advance_durable t (min target (Atomic.get t.published));
    Mutex.unlock t.flush_m
  end;
  if Trace.enabled () then Trace.emit (Trace.Wal_force { lsn = Int64.of_int (Atomic.get t.durable) })

let force t lsn =
  fire_flush_hook t;
  (* Fast path: already durable. [durable] only grows, so a stale read can
     only under-report and send us to the slow path. Group-commit callers
     whose LSN a neighbor already forced return immediately. *)
  if Int64.to_int lsn <= Atomic.get t.durable then Metrics.incr m_force_noop
  else begin
    Atomic.incr t.forces;
    Metrics.incr m_forces;
    Metrics.time_ns h_force_wait_ns (fun () ->
        force_to t (min (Int64.to_int lsn) (Atomic.get t.next)))
  end

let force_all t =
  fire_flush_hook t;
  Atomic.incr t.forces;
  Metrics.incr m_forces;
  Metrics.time_ns h_force_wait_ns (fun () -> force_to t (Atomic.get t.next))

(* Group commit's entry point: a physical flush with no request hook (the
   request already fired at submission) and no [forces] accounting (a
   leader's device writes are counted in [wal.flush] / [wal.group_flush],
   not as caller-side force calls). *)
let flush_to t lsn = force_to t (min (Int64.to_int lsn) (Atomic.get t.next))

let last_lsn t = Int64.of_int (Atomic.get t.published)

(* Lock-free monotonic read, same justification as [force]'s fast path. *)
let durable_lsn t = Int64.of_int (Atomic.get t.durable)

let read t lsn =
  let l = Int64.to_int lsn in
  if l <= Atomic.get t.floor || l > Atomic.get t.next then None
  else begin
    (* A reserved LSN exists (its appender is mid-publish); wait for it so
       rollback never mistakes an in-flight record for a crash-lost one. *)
    wait_published t l;
    if l > Atomic.get t.published then None (* crash rewound the tail *)
    else
      (* A concurrent truncation may clear the slot after the floor check;
         the [None] that results is exactly the truncated-away answer. *)
      Option.map (fun img -> Log_record.decode (Codec.reader img)) (slot_get t l)
  end

let iter_from t lsn f =
  (* Slots are immutable once published and truncation only clears below
     the anchor (which iteration never starts before), so a single
     watermark snapshot bounds a fully lock-free scan — restart replay
     takes zero lock round-trips however long the log is. *)
  let hi = Atomic.get t.published in
  let start = max (Int64.to_int lsn) (Atomic.get t.floor + 1) in
  for l = max 1 start to hi do
    match slot_get t l with
    | Some img -> f (Log_record.decode (Codec.reader img))
    | None -> ()
  done

let set_anchor t lsn = Atomic.set t.anchor (Int64.to_int lsn)

let anchor t = Int64.of_int (Atomic.get t.anchor)

let crash t =
  (* Simulated power loss: stop-the-world by construction (the workload
     domains are gone). The volatile tail past [durable] is discarded and
     the reservation/publish counters rewind to the watermark. *)
  Mutex.lock t.mutex;
  let durable = Atomic.get t.durable in
  let high = Atomic.get t.next in
  for l = durable + 1 to high do
    match slot t l with None -> () | Some s -> Atomic.set s None
  done;
  Atomic.set t.next durable;
  Atomic.set t.published durable;
  if Atomic.get t.anchor > durable then Atomic.set t.anchor 0;
  Mutex.unlock t.mutex;
  (* Unpark anyone waiting on a now-lost LSN. *)
  Mutex.lock t.wait_m;
  Condition.broadcast t.wait_c;
  Mutex.unlock t.wait_m

let crash_ragged ?(keep_bytes = 9) t =
  Mutex.lock t.mutex;
  let durable = Atomic.get t.durable in
  (* The device was mid-append when power died: the first record past the
     durable watermark persisted only a prefix. Capture it before the
     volatile tail is dropped. *)
  (match slot_get t (durable + 1) with
  | Some img ->
    let n = min (max 1 keep_bytes) (Bytes.length img) in
    Atomic.set t.torn_tail (Some (Bytes.sub img 0 n))
  | None -> ());
  Mutex.unlock t.mutex;
  crash t

let has_torn_tail t = Atomic.get t.torn_tail <> None

let discard_torn_tail t =
  let found = Atomic.get t.torn_tail <> None in
  Atomic.set t.torn_tail None;
  if found then Metrics.incr m_torn_tail;
  found

let truncate_before t lsn =
  Mutex.lock t.mutex;
  (* Keep everything at or after the anchor and anything not yet durable:
     records the next restart could need must survive. *)
  let limit = min (Int64.to_int lsn) (min (Atomic.get t.anchor) (Atomic.get t.durable)) in
  let floor = Atomic.get t.floor in
  let floor' = max floor (limit - 1) in
  let reclaimed = floor' - floor in
  if reclaimed > 0 then begin
    for l = floor + 1 to floor' do
      match slot t l with None -> () | Some s -> Atomic.set s None
    done;
    (* Chunks now entirely below the floor are dropped wholesale (slot
       arrays freed, the directory keeps the shared sentinel). *)
    let dir = Atomic.get t.chunks in
    for c = 0 to (floor' / chunk_size) - 1 do
      if c < Array.length dir then dir.(c) <- empty_chunk
    done;
    Atomic.set t.floor floor'
  end;
  Mutex.unlock t.mutex;
  max 0 reclaimed

let appended t = Atomic.get t.published

let forces t = Atomic.get t.forces

let bytes_written t = Metrics.value m_bytes - t.bytes_base

let reset_stats t =
  Atomic.set t.forces 0;
  t.bytes_base <- Metrics.value m_bytes
