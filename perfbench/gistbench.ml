(* The canonical benchmark of the concurrent, recoverable GiST.

   One workload per invocation, driven through the public API only:
   bulk load, closed-loop client domains running a fixed number of
   transactions (point reads, delete+insert writes, locked range scans,
   snapshot scans), then correctness checks, a crash and a timed restart.
   With [--trace 0] it prints the end-to-end metrics; with [--trace 1] it
   records spans around every call into a layer and prints the per-layer
   metrics instead. The last line of standard output is the JSON result.
   See README.md for the workloads and the metric map.

   Usage: gistbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny] *)

open Gist_core
module B = Gist_ams.Btree_ext
module Txn = Gist_txn.Txn_manager
module Lock = Gist_txn.Lock_manager
module Metrics = Gist_obs.Metrics
module Log = Gist_wal.Log_manager
module Group_commit = Gist_wal.Group_commit
module Xoshiro = Gist_util.Xoshiro
module Hist = Gist_util.Stats.Histogram

(* --- workloads --- *)

type kind = Read | Write | Scan | Snap

let kind_index = function Read -> 0 | Write -> 1 | Scan -> 2 | Snap -> 3

let kind_label = [| "read"; "write"; "scan"; "snap" |]

(* Client domains per workload, each a closed loop: the host's core count. *)
let clients = 2

type spec = {
  name : string;
  slots : int;  (** Bulk-loaded keys (one per slot). *)
  pool : int;  (** Buffer-pool frames. *)
  commit_mode : Group_commit.mode;
  bg_writer : bool;
  zipf : bool;  (** Zipf (theta 0.99) point keys; uniform otherwise. *)
  mix : (kind * int) list;  (** Transaction shares, out of 100. *)
  scan_slots : int;  (** Width of range and snapshot scans, in keys. *)
  vacuum_every : int;  (** Committed writes between [Gist.vacuum] calls (0: never). *)
  rate : int;  (** Nominal txn/s: a run does [rate * seconds] transactions. *)
}

let workloads ~tiny =
  let slots = if tiny then 4_000 else 200_000 in
  let width n = if tiny then n / 20 else n in
  [
    {
      name = "point_mem";
      slots;
      pool = 8192;
      commit_mode = Group_commit.Sync;
      bg_writer = false;
      zipf = false;
      mix = [ (Read, 76); (Write, 20); (Scan, 2); (Snap, 2) ];
      scan_slots = width 200;
      vacuum_every = 0;
      rate = 25_000;
    };
    {
      name = "scan_mvcc";
      slots;
      pool = 8192;
      commit_mode = Group_commit.Sync;
      bg_writer = false;
      zipf = false;
      mix = [ (Snap, 20); (Scan, 15); (Write, 50); (Read, 15) ];
      scan_slots = width 1000;
      vacuum_every = 500;
      rate = 2_000;
    };
    {
      name = "ooc_io";
      slots;
      pool = (if tiny then 64 else 190);
      commit_mode = Group_commit.Group;
      bg_writer = true;
      zipf = true;
      mix = [ (Read, 76); (Write, 20); (Scan, 2); (Snap, 2) ];
      scan_slots = width 2000;
      vacuum_every = 0;
      rate = 5_000;
    };
  ]

let config spec =
  {
    Db.default_config with
    Db.pool_capacity = spec.pool;
    commit_mode = spec.commit_mode;
    bg_writer = spec.bg_writer;
    checkpoint_interval_us = 0;
  }

(* Zipfian ranks with precomputed constants (Gray et al., as in YCSB). *)
module Zipf = struct
  type t = { n : int; zetan : float; alpha : float; eta : float; half : float }

  let theta = 0.99

  let create n =
    let zeta m =
      let s = ref 0.0 in
      for i = 1 to m do
        s := !s +. (1.0 /. (Float.of_int i ** theta))
      done;
      !s
    in
    let zetan = zeta n in
    {
      n;
      zetan;
      alpha = 1.0 /. (1.0 -. theta);
      eta = (1.0 -. ((2.0 /. Float.of_int n) ** (1.0 -. theta))) /. (1.0 -. (zeta 2 /. zetan));
      half = 1.0 +. (0.5 ** theta);
    }

  let sample t rng =
    let u = Xoshiro.float rng 1.0 in
    let uz = u *. t.zetan in
    if uz < 1.0 then 0
    else if uz < t.half then 1
    else min (t.n - 1) (int_of_float (Float.of_int t.n *. (((t.eta *. u) -. t.eta +. 1.0) ** t.alpha)))
end

(* --- clients --- *)

type client = {
  c : int;
  rng : Xoshiro.t;
  model : Keys.t;
  zipf : Zipf.t option;
  pattern : kind array;  (** The mix, one cycle of 100 transactions. *)
  spans : Spans.t;
  lat : Pct.t array;  (** Latency samples (ns) per kind. *)
  vac : Pct.t;  (** Vacuum durations (ns). *)
  mutable sampling : bool;
  mutable seq : int;  (** Transactions issued. *)
  mutable committed : int;
  mutable writes : int;  (** Committed write transactions. *)
  mutable aborted : int;  (** Deadlock victims, rolled back and retried. *)
  mutable failed : int;  (** Transactions that could not commit. *)
  mutable bad : int;  (** Results that disagreed with the model. *)
  mutable unrepeatable : int;  (** Snapshot scans that a repeat under the same [Db.ro] contradicted. *)
  mutable errors : string list;
}

let note cl msg = if List.length cl.errors < 5 then cl.errors <- msg :: cl.errors

let fail cl msg =
  cl.failed <- cl.failed + 1;
  note cl msg

let bad cl msg =
  cl.bad <- cl.bad + 1;
  note cl msg

let make_clients spec ~seed =
  let master = Xoshiro.create seed in
  Array.init clients (fun c ->
      let rng = Xoshiro.split master in
      let model = Keys.create ~client:c ~clients ~slots:spec.slots in
      let pattern =
        Array.concat (List.map (fun (k, n) -> Array.make n k) spec.mix)
      in
      Xoshiro.shuffle rng pattern;
      {
        c;
        rng;
        model;
        zipf = (if spec.zipf then Some (Zipf.create (Keys.own_slots model)) else None);
        pattern;
        spans = Spans.create ();
        lat = Array.init 4 (fun _ -> Pct.create 1024);
        vac = Pct.create 64;
        sampling = false;
        seq = 0;
        committed = 0;
        writes = 0;
        aborted = 0;
        failed = 0;
        bad = 0;
        unrepeatable = 0;
        errors = [];
      })

let reset_counts cl =
  Array.iter Pct.clear cl.lat;
  Pct.clear cl.vac;
  cl.committed <- 0;
  cl.writes <- 0;
  cl.aborted <- 0

type state = {
  spec : spec;
  mutable db : Db.t;
  mutable tree : B.t Gist.t;
  clients : client array;
}

(* A client's next point slot: uniform over its stripe, or Zipf-ranked
   with ranks scattered over the stripe by a multiplicative permutation
   (1_000_003 is prime, hence coprime with any stripe size below it). *)
let point_index cl =
  let n = Keys.own_slots cl.model in
  match cl.zipf with
  | None -> Xoshiro.int cl.rng n
  | Some z -> Zipf.sample z cl.rng * 1_000_003 mod n

let victim cl =
  let m = cl.model in
  let n = Keys.own_slots m in
  let rec go i tries =
    match Keys.first_live m (Keys.own_slot m i) with
    | Some k -> k
    | None -> if tries = 0 then failwith "stripe has no live key" else go ((i + 1) mod n) (tries - 1)
  in
  go (point_index cl) n

let rec fresh_key cl =
  match Keys.fresh cl.model cl.rng (Keys.own_slot cl.model (point_index cl)) with
  | Some k -> k
  | None -> fresh_key cl

let scan_range st cl =
  let w = st.spec.scan_slots in
  let lo = Xoshiro.int cl.rng (st.spec.slots - w + 1) in
  (lo, lo + w)

let tag cl = (cl.seq * 16) + cl.c

let finish cl kind t0 =
  let t1 = Spans.now () in
  Spans.close_root cl.spans t1;
  if cl.sampling then Pct.add cl.lat.(kind_index kind) (t1 - t0);
  cl.committed <- cl.committed + 1

(* One read-write transaction running [body]; a deadlock victim is rolled
   back and retried, any other exception fails the transaction. *)
let rw st cl kind body on_commit =
  let txns = st.db.Db.txns in
  let rec go tries =
    let t0 = Spans.now () in
    Spans.open_root cl.spans (kind_index kind) ~txn:(tag cl) t0;
    let txn = Spans.call cl.spans Spans.begin_txn (fun () -> Txn.begin_txn txns) in
    match body txn with
    | r ->
      Spans.call cl.spans Spans.commit (fun () -> Txn.commit txns txn);
      finish cl kind t0;
      on_commit r
    | exception e -> (
      (try Spans.call cl.spans Spans.abort (fun () -> Txn.abort txns txn) with _ -> ());
      Spans.close_root cl.spans (Spans.now ());
      match e with
      | Lock.Deadlock _ when tries < 16 ->
        cl.aborted <- cl.aborted + 1;
        go (tries + 1)
      | e -> fail cl (kind_label.(kind_index kind) ^ ": " ^ Printexc.to_string e))
  in
  go 0

let check_range cl what keys ~lo ~hi =
  if not (Keys.matches_range cl.model keys ~lo ~hi) then bad cl (what ^ " disagrees with the model")

let read st cl =
  let j = Keys.own_slot cl.model (point_index cl) in
  rw st cl Read
    (fun txn ->
      Spans.call cl.spans Spans.search (fun () ->
          Gist.search st.tree txn (Keys.slot_range j (j + 1))))
    (fun res -> check_range cl "point read" (Keys.keys_of res) ~lo:j ~hi:(j + 1))

let vacuum st cl =
  let t0 = Spans.now () in
  match Spans.call cl.spans Spans.vacuum (fun () -> Gist.vacuum st.tree) with
  | () -> Pct.add cl.vac (Spans.now () - t0)
  | exception e -> fail cl ("vacuum: " ^ Printexc.to_string e)

let write st cl =
  let kd = victim cl and kf = fresh_key cl in
  rw st cl Write
    (fun txn ->
      let found =
        Spans.call cl.spans Spans.delete (fun () ->
            Gist.delete st.tree txn ~key:(B.key kd) ~rid:(Keys.rid_of_key kd))
      in
      Spans.call cl.spans Spans.insert (fun () ->
          Gist.insert st.tree txn ~key:(B.key kf) ~rid:(Keys.rid_of_key kf));
      found)
    (fun found ->
      if not found then bad cl "delete missed a live key";
      Keys.remove cl.model kd;
      Keys.add cl.model kf;
      cl.writes <- cl.writes + 1;
      if st.spec.vacuum_every > 0 && cl.writes mod st.spec.vacuum_every = 0 then vacuum st cl)

let scan st cl =
  let lo, hi = scan_range st cl in
  rw st cl Scan
    (fun txn ->
      Spans.call cl.spans Spans.search (fun () -> Gist.search st.tree txn (Keys.slot_range lo hi)))
    (fun res -> check_range cl "range scan" (Keys.keys_of res) ~lo ~hi)

let snap st cl =
  let lo, hi = scan_range st cl in
  let t0 = Spans.now () in
  Spans.open_root cl.spans (kind_index Snap) ~txn:(tag cl) t0;
  match
    let ro = Spans.call cl.spans Spans.begin_ro (fun () -> Db.begin_ro st.db) in
    Fun.protect
      ~finally:(fun () -> Spans.call cl.spans Spans.end_ro (fun () -> Db.end_ro st.db ro))
      (fun () ->
        Spans.call cl.spans Spans.snapshot_search (fun () ->
            Gist.snapshot_search st.tree ro (Keys.slot_range lo hi)))
  with
  | res ->
    finish cl Snap t0;
    check_range cl "snapshot scan" (Keys.keys_of res) ~lo ~hi
  | exception e ->
    Spans.close_root cl.spans (Spans.now ());
    fail cl ("snap: " ^ Printexc.to_string e)

let run_txns st cl n =
  for _ = 1 to n do
    let kind = cl.pattern.(cl.seq mod Array.length cl.pattern) in
    cl.seq <- cl.seq + 1;
    match kind with
    | Read -> read st cl
    | Write -> write st cl
    | Scan -> scan st cl
    | Snap -> snap st cl
  done

(* --- client domains --- *)

(* Persistent client domains released together for each job and awaited
   together, so a round's wall time covers exactly its work. *)
module Crew = struct
  type t = {
    m : Mutex.t;
    cv : Condition.t;
    n : int;
    mutable gen : int;
    mutable job : (int -> unit) option;
    mutable pending : int;
    mutable error : string option;
    mutable domains : unit Domain.t list;
  }

  let worker t c () =
    let rec loop seen =
      Mutex.lock t.m;
      while t.gen = seen do
        Condition.wait t.cv t.m
      done;
      let gen = t.gen and job = t.job in
      Mutex.unlock t.m;
      match job with
      | None -> ()
      | Some f ->
        let err = match f c with () -> None | exception e -> Some (Printexc.to_string e) in
        Mutex.lock t.m;
        if err <> None then t.error <- err;
        t.pending <- t.pending - 1;
        Condition.broadcast t.cv;
        Mutex.unlock t.m;
        loop gen
    in
    loop 0

  let create n =
    let t =
      {
        m = Mutex.create ();
        cv = Condition.create ();
        n;
        gen = 0;
        job = None;
        pending = 0;
        error = None;
        domains = [];
      }
    in
    t.domains <- List.init n (fun c -> Domain.spawn (worker t c));
    t

  let post t job =
    Mutex.lock t.m;
    t.job <- job;
    t.pending <- t.n;
    t.gen <- t.gen + 1;
    Condition.broadcast t.cv;
    Mutex.unlock t.m

  (* Run [f c] on every client domain [c]; returns the wall time in ns. *)
  let run t f =
    let t0 = Spans.now () in
    post t (Some f);
    Mutex.lock t.m;
    while t.pending > 0 do
      Condition.wait t.cv t.m
    done;
    let err = t.error in
    Mutex.unlock t.m;
    (match err with Some e -> failwith ("client domain: " ^ e) | None -> ());
    Spans.now () - t0

  let stop t =
    post t None;
    List.iter Domain.join t.domains
end

(* --- phases --- *)

let s_of_ns ns = Float.of_int ns /. 1e9

let sum_clients st f = Array.fold_left (fun acc cl -> acc + f cl) 0 st.clients

(* Build the database and tree and warm them up; returns the state and the
   set-up time (the benchmark's own model is built before the clock). *)
let setup spec crew ~seed ~warmup =
  let clients = make_clients spec ~seed in
  let entries =
    Array.init spec.slots (fun j ->
        let k = Keys.key_of_slot j in
        (B.key k, Keys.rid_of_key k))
  in
  Gc.compact ();
  let t0 = Spans.now () in
  let db = Db.create ~config:(config spec) () in
  let tree = Gist.bulk_load db B.ext ~empty_bp:B.Empty entries in
  let st = { spec; db; tree; clients } in
  (* When the pool holds the whole tree, a full scan fills the decoded-node
     cache before the clients warm up. *)
  if db.Db.alloc_next <= spec.pool then begin
    let ro = Db.begin_ro db in
    ignore (Gist.snapshot_search tree ro (Keys.slot_range 0 spec.slots));
    Db.end_ro db ro
  end;
  ignore (Crew.run crew (fun c -> run_txns st clients.(c) warmup));
  let dt = Spans.now () - t0 in
  Array.iter reset_counts clients;
  (st, s_of_ns dt)

type timed = {
  rates : (bool * float) list;  (** (traced, committed txn/s) per round. *)
  txns : int;  (** Committed in the timed phase. *)
  writes : int;
  metrics : Metrics.snapshot;  (** Kernel instruments over the timed phase. *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

(* The measured phase: [rounds] rounds of [per_round] transactions per
   client. Throughput is the median of the rounds' rates, so a burst of
   host noise confined to a few rounds does not move it. In a traced run
   every other round records spans, so the same run also gives the
   traced/untraced throughput ratio. *)
let run_timed st crew ~rounds ~per_round ~trace =
  Gc.compact ();
  Metrics.reset ();
  let gc0 = Gc.quick_stat () in
  let rates =
    List.init rounds (fun r ->
        let traced = trace && r land 1 = 1 in
        Array.iter
          (fun cl ->
            cl.spans.Spans.on <- traced;
            cl.sampling <- not trace)
          st.clients;
        let before = sum_clients st (fun cl -> cl.committed) in
        let dt = Crew.run crew (fun c -> run_txns st st.clients.(c) per_round) in
        let n = sum_clients st (fun cl -> cl.committed) - before in
        let rate = Float.of_int n /. s_of_ns dt in
        Printf.printf "round %d%s: %d txns in %.3f s = %.0f txn/s\n%!" r
          (if traced then " (traced)" else "") n (s_of_ns dt) rate;
        (traced, rate))
  in
  Array.iter
    (fun cl ->
      cl.spans.Spans.on <- false;
      cl.sampling <- false)
    st.clients;
  let gc1 = Gc.quick_stat () in
  {
    rates;
    txns = sum_clients st (fun cl -> cl.committed);
    writes = sum_clients st (fun cl -> cl.writes);
    metrics = Metrics.snapshot ();
    gc0;
    gc1;
  }

(* Every live key, read by one read-committed scan of the whole key space,
   against the union of the client models. *)
let full_check st =
  let txns = st.db.Db.txns in
  let txn = Txn.begin_txn txns in
  let keys =
    Keys.keys_of
      (Gist.search ~isolation:`Read_committed st.tree txn (Keys.slot_range 0 st.spec.slots))
  in
  Txn.commit txns txn;
  List.length keys = sum_clients st (fun cl -> cl.model.Keys.size)
  && Array.for_all (fun cl -> Keys.matches_range cl.model keys ~lo:0 ~hi:st.spec.slots) st.clients

(* Repeat a snapshot scan under one [Db.ro] around the client's own
   committed writes (and, with two clients, the other's concurrent ones):
   both scans must return the same set, the first one exactly the model. *)
let multicopy st cl ~checks =
  for _ = 1 to checks do
    let lo, hi = scan_range st cl in
    let q = Keys.slot_range lo hi in
    let ro = Db.begin_ro st.db in
    let first = List.sort Int.compare (Keys.keys_of (Gist.snapshot_search st.tree ro q)) in
    check_range cl "snapshot scan" first ~lo ~hi;
    for _ = 1 to 3 do
      write st cl
    done;
    let again = List.sort Int.compare (Keys.keys_of (Gist.snapshot_search st.tree ro q)) in
    if again <> first then begin
      cl.unrepeatable <- cl.unrepeatable + 1;
      note cl "repeated snapshot scan returned a different set"
    end;
    Db.end_ro st.db ro
  done

(* Leave one uncommitted delete+insert per client in the durable log: the
   restart must roll both back. *)
let leave_losers st =
  Array.iter
    (fun cl ->
      let kd = victim cl and kf = fresh_key cl in
      let txn = Txn.begin_txn st.db.Db.txns in
      ignore (Gist.delete st.tree txn ~key:(B.key kd) ~rid:(Keys.rid_of_key kd));
      Gist.insert st.tree txn ~key:(B.key kf) ~rid:(Keys.rid_of_key kf))
    st.clients;
  Log.force_all st.db.Db.log

(* Crash, restart and reopen, then run [after] on the recovered state.
   Returns the restart time and the number of log records from the
   restart's checkpoint anchor to the end of the log. [anchor] sends the
   restart back to an earlier checkpoint: ARIES may begin analysis at any
   complete checkpoint, and redo is idempotent, so each crash/restart
   cycle anchored at the bulk-load checkpoint replays the workload's log
   again. *)
let crash_restart st ~anchor ~after =
  let root = Gist.root st.tree in
  let log = st.db.Db.log in
  Log.set_anchor log anchor;
  let records = Int64.to_int (Int64.sub (Log.last_lsn log) anchor) in
  Gc.compact ();
  let t0 = Spans.now () in
  let db = Db.crash st.db in
  Recovery.restart db B.ext;
  let tree = Gist.open_existing db B.ext ~root () in
  let dt = Spans.now () - t0 in
  st.db <- db;
  st.tree <- tree;
  after ();
  (s_of_ns dt, records)

(* --- reporting --- *)

let out = ref []

let emit name unit_ value =
  let value = if Float.is_finite value then value else 0.0 in
  out := (name, unit_, value) :: !out;
  Printf.printf "%-34s %14.4f %s\n" name value unit_

let ratio a b = if b = 0.0 then 0.0 else a /. b

let fi = Float.of_int

let us ns = fi ns /. 1000.0

(* Exact p50 and p99 over every sample of the timed phase, with the sample
   count and how many samples lie beyond each. *)
let emit_latency name buffers =
  let sorted = Pct.sorted buffers in
  List.iter
    (fun (suffix, q) ->
      let v, beyond = Pct.percentile sorted q in
      let metric = Printf.sprintf "%s_%s_us" name suffix in
      Printf.printf "%s: %d samples, %d beyond\n" metric (Array.length sorted) beyond;
      emit metric "us" (us v))
    [ ("p50", 0.50); ("p99", 0.99) ]

let hist_us snap name q =
  match Metrics.find snap name with
  | Some (Metrics.Histogram h) when Hist.count h > 0 -> Hist.percentile h q /. 1000.0
  | _ -> 0.0

let emit_layers st (t : timed) (s : Spans.summary) ~restart_s ~records =
  let m = t.metrics in
  let cnt name = fi (Metrics.counter_value m name) in
  let txns = fi t.txns in
  let per_txn name = ratio (cnt name) txns in
  let per_ktxn name = 1000.0 *. ratio (cnt name) txns in
  (* storage *)
  emit "storage.bp_hit_ratio" "ratio" (ratio (cnt "bp.hit") (cnt "bp.hit" +. cnt "bp.miss"));
  emit "storage.bp_miss_per_txn" "1/txn" (per_txn "bp.miss");
  emit "storage.bp_evict_per_txn" "1/txn" (per_txn "bp.evict");
  emit "storage.disk_read_per_txn" "1/txn" (per_txn "disk.read");
  emit "storage.disk_write_per_txn" "1/txn" (per_txn "disk.write");
  emit "storage.disk_read_us_p50" "us" (hist_us m "disk.read_ns" 0.5);
  emit "storage.fg_writeback_per_ktxn" "1/ktxn" (per_ktxn "bp.fg_writeback");
  emit "storage.bg_writeback_per_ktxn" "1/ktxn" (per_ktxn "bp.bg_writeback");
  emit "storage.prefetch_hit_ratio" "ratio" (ratio (cnt "bp.prefetch.hit") (cnt "bp.prefetch.issued"));
  emit "storage.latch_wait_per_ktxn" "1/ktxn" (per_ktxn "latch.wait");
  emit "storage.latch_wait_us_p99" "us" (hist_us m "latch.wait_ns" 0.99);
  emit "storage.node_decode_per_txn" "1/txn" (per_txn "bp.node_cache.miss");
  emit "storage.latches_held_across_io" "count" (cnt "latches_held_across_io");
  (* wal *)
  emit "wal.append_per_txn" "1/txn" (per_txn "wal.append");
  emit "wal.bytes_per_txn" "B/txn" (per_txn "wal.append_bytes");
  emit "wal.force_per_txn" "1/txn" (per_txn "wal.force");
  emit "wal.flush_per_txn" "1/txn" (per_txn "wal.flush");
  emit "wal.group_size_mean" "reqs" (ratio (cnt "wal.group_commit") (cnt "wal.group_flush"));
  emit "wal.force_wait_us_p50" "us" (hist_us m "wal.force_wait_ns" 0.5);
  emit "wal.append_retry_per_ktxn" "1/ktxn" (per_ktxn "wal.append_retry");
  (* txn, from the traced calls and the lock manager's instruments *)
  let pct samples q = us (fst (Pct.percentile (Pct.sorted [ samples ]) q)) in
  let span_us name q = pct s.Spans.durations.(name) q in
  emit "txn.begin_us_p50" "us" (span_us Spans.begin_txn 0.5);
  emit "txn.commit_us_p50" "us" (span_us Spans.commit 0.5);
  emit "txn.commit_us_p99" "us" (span_us Spans.commit 0.99);
  emit "lock.acquire_per_txn" "1/txn" (per_txn "lock.acquire");
  emit "lock.wait_per_ktxn" "1/ktxn" (per_ktxn "lock.wait");
  emit "lock.wait_us_p99" "us" (hist_us m "lock.wait_ns" 0.99);
  emit "lock.deadlock_per_ktxn" "1/ktxn" (per_ktxn "lock.deadlock");
  emit "mvcc.ro_envelope_us_p50" "us" (pct s.Spans.ro_envelope 0.5);
  (* pred *)
  emit "pred.register_per_txn" "1/txn" (per_txn "pred.register");
  emit "pred.attach_per_txn" "1/txn" (per_txn "pred.attach");
  emit "pred.check_per_write" "1/write" (ratio (cnt "pred.check") (fi t.writes));
  emit "pred.shard_contention_ratio" "ratio"
    (ratio (cnt "pred.shard_contention") (cnt "pred.shard_lock"));
  (* core *)
  emit "gist.search_us_p50" "us" (span_us Spans.search 0.5);
  emit "gist.insert_us_p50" "us" (span_us Spans.insert 0.5);
  emit "gist.delete_us_p50" "us" (span_us Spans.delete 0.5);
  emit "gist.snapshot_search_us_p50" "us" (span_us Spans.snapshot_search 0.5);
  emit "mvcc.version_skipped_per_snap" "1/snap"
    (ratio (cnt "mvcc.version_skipped") (cnt "mvcc.snapshot_scan"));
  emit "gist.olc_restart_ratio" "ratio" (ratio (cnt "olc.restart") (cnt "olc.read_attempt"));
  let ops = cnt "gist.search" +. cnt "gist.insert" +. cnt "gist.delete" +. cnt "mvcc.snapshot_scan" in
  emit "gist.olc_fallback_per_kop" "1/kop" (1000.0 *. ratio (cnt "olc.fallback") ops);
  emit "gist.split_per_kwrite" "1/kwrite" (1000.0 *. ratio (cnt "gist.split") (fi t.writes));
  let vac = Pct.sorted (Array.to_list (Array.map (fun cl -> cl.vac) st.clients)) in
  emit "gist.vacuum_ms" "ms" (fi (fst (Pct.percentile vac 0.5)) /. 1e6);
  emit "mvcc.gc_reclaimed_per_vacuum" "1/vacuum"
    (ratio (cnt "mvcc.gc_reclaimed") (fi (Array.length vac)));
  emit "mvcc.deferred_free" "pages" (fi (Db.deferred_free_count st.db));
  emit "recovery.records_replayed" "count" (fi records);
  emit "recovery.us_per_record" "us" (ratio (restart_s *. 1e6) (fi records));
  (* runtime *)
  let g0 = t.gc0 and g1 = t.gc1 in
  emit "gc.minor_words_per_txn" "words/txn" (ratio (g1.Gc.minor_words -. g0.Gc.minor_words) txns);
  emit "gc.promoted_words_per_txn" "words/txn"
    (ratio (g1.Gc.promoted_words -. g0.Gc.promoted_words) txns);
  emit "gc.minor_per_ktxn" "1/ktxn"
    (1000.0 *. ratio (fi (g1.Gc.minor_collections - g0.Gc.minor_collections)) txns);
  emit "gc.major_per_ktxn" "1/ktxn"
    (1000.0 *. ratio (fi (g1.Gc.major_collections - g0.Gc.major_collections)) txns)

let emit_trace (t : timed) (s : Spans.summary) ~micro =
  let total name = fi s.Spans.total_ns.(Spans.id name) in
  let root = fi s.Spans.root_ns and roots = fi s.Spans.roots in
  let envelope =
    total "Txn_manager.begin_txn" +. total "Txn_manager.commit" +. total "Db.begin_ro"
    +. total "Db.end_ro"
  in
  emit "trace.envelope_frac" "ratio" (ratio envelope root);
  emit "trace.residual_frac" "ratio" (ratio (root -. fi s.Spans.covered_ns) root);
  let med traced = Pct.median_f (List.filter_map (fun (tr, r) -> if tr = traced then Some r else None) t.rates) in
  emit "trace.overhead_frac" "ratio" (1.0 -. ratio (med true) (med false));
  let layer_us layer =
    let acc = ref 0.0 in
    Array.iteri
      (fun i (_, l) -> if l = layer then acc := !acc +. fi s.Spans.total_ns.(i))
      Spans.names;
    ratio !acc roots /. 1000.0
  in
  emit "trace.self_txn_us_per_txn" "us" (layer_us "txn");
  emit "trace.self_core_us_per_txn" "us" (layer_us "core");
  emit "trace.self_bench_us_per_txn" "us" (ratio (root -. fi s.Spans.covered_ns) roots /. 1000.0);
  (* Unit costs times per-transaction counts, against the traced mean
     transaction time: what the four hot layer calls explain. *)
  let txn_us = ratio root roots /. 1000.0 in
  let unit name = List.assoc name micro in
  emit "micro.lock_pair_ns" "ns" (unit "lock_pair");
  emit "micro.wal_append_ns" "ns" (unit "wal_append");
  emit "micro.node_decode_ns" "ns" (unit "node_decode");
  emit "micro.pred_cycle_ns" "ns" (unit "pred_cycle");
  let per_txn name = ratio (fi (Metrics.counter_value t.metrics name)) (fi t.txns) in
  let explained_us =
    ((unit "lock_pair" *. per_txn "lock.acquire")
    +. (unit "wal_append" *. per_txn "wal.append")
    +. (unit "node_decode" *. per_txn "bp.node_cache.miss")
    +. (unit "pred_cycle" *. per_txn "pred.register"))
    /. 1000.0
  in
  emit "micro.explained_us_per_txn" "us" explained_us;
  emit "micro.residual_frac" "ratio" (1.0 -. ratio explained_us txn_us)

(* --- main --- *)

(* Where the traced run writes its spans, relative to the working
   directory (the repository root). *)
let spans_dir = ".perfbench"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME point_mem | scan_mvcc | ooc_io");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S nominal run length (sets the fixed transaction count)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or traced per-layer metrics (1)");
      ("--tiny", Arg.Set tiny, " tiny sizes (smoke test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gistbench --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match List.find_opt (fun s -> s.name = !workload) (workloads ~tiny:!tiny) with
    | Some s -> s
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let trace = !trace = 1 in
  let rounds = if !tiny then 2 else 10 in
  let per_client = if !tiny then 200 else spec.rate * !seconds / clients in
  let per_round = max 1 (per_client / rounds) in
  let warmup = if !tiny then 20 else per_client / 50 in
  Printf.printf "workload %s: %d clients, %d keys, pool %d frames, %d rounds x %d txns/client\n%!"
    spec.name clients spec.slots spec.pool rounds per_round;
  let crew = Crew.create clients in
  let checks = ref [] in
  let check name ok =
    checks := (name, ok) :: !checks;
    Printf.printf "check %-28s %s\n%!" name (if ok then "ok" else "FAIL")
  in
  (* Set-up, three times: the reported time is the median. *)
  let setups = 3 in
  let rec build i prev times =
    if i = setups then (Option.get prev, times)
    else begin
      Option.iter (fun st -> Db.close st.db) prev;
      let st, dt = setup spec crew ~seed:!seed ~warmup in
      build (i + 1) (Some st) (dt :: times)
    end
  in
  let st, setup_times = build 0 None [] in
  let t = run_timed st crew ~rounds ~per_round ~trace in
  let heap_mb = Float.of_int (Gc.stat ()).Gc.live_words *. 8.0 /. 1e6 in
  let pages = st.db.Db.alloc_next - 1 - List.length st.db.Db.alloc_free in
  let live = sum_clients st (fun cl -> cl.model.Keys.size) in
  let space = Float.of_int (pages * st.db.Db.config.Db.page_size) /. Float.of_int live in
  (* Correctness. *)
  let c1 = Metrics.counter_value (Metrics.snapshot ()) "latches_held_across_io" in
  check "no_io_under_latch" (c1 = 0 && Gist_storage.Buffer_pool.io_while_latched st.db.Db.pool = 0);
  ignore (Crew.run crew (fun c -> multicopy st st.clients.(c) ~checks:(if !tiny then 3 else 20)));
  check "repeatable_snapshot" (sum_clients st (fun cl -> cl.unrepeatable) = 0);
  check "tree_check" (Tree_check.ok (Tree_check.check st.tree));
  check "model" (full_check st && sum_clients st (fun cl -> cl.bad) = 0);
  leave_losers st;
  (* Five crash/restart cycles over the same log; the first and the last
     recovered states are checked, and the reported restart time is the
     median. *)
  let anchor = Log.anchor st.db.Db.log in
  let tree_ok = ref true and state_ok = ref true in
  let after i () =
    if i = 0 || i = 4 then begin
      tree_ok := !tree_ok && Tree_check.ok (Tree_check.check st.tree);
      state_ok := !state_ok && full_check st
    end
  in
  let restarts = List.init 5 (fun i -> crash_restart st ~anchor ~after:(after i)) in
  let restart_s = Pct.median_f (List.map fst restarts) and records = snd (List.hd restarts) in
  check "restart_tree_check" !tree_ok;
  check "restart_committed_state" !state_ok;
  Db.close st.db;
  Crew.stop crew;
  let errors = Array.to_list st.clients |> List.concat_map (fun cl -> List.rev cl.errors) in
  List.iter (fun e -> Printf.printf "error: %s\n" e) errors;
  let attempted = sum_clients st (fun cl -> cl.seq) in
  let failed_txns = sum_clients st (fun cl -> cl.failed + cl.bad) in
  let failed_checks = List.length (List.filter (fun (_, ok) -> not ok) !checks) in
  let committed = fi t.txns in
  if trace then begin
    let spans = Array.to_list (Array.map (fun cl -> cl.spans) st.clients) in
    (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat spans_dir (Printf.sprintf "spans-%s.tsv" spec.name) in
    Spans.write path spans;
    Printf.printf "spans written to %s\n" path;
    let summary = Spans.summarize spans in
    emit_layers st t summary ~restart_s ~records;
    emit_trace t summary ~micro:(Micro.run ~quota_s:(if !tiny then 0.02 else 0.2))
  end
  else begin
    emit "setup_s" "s" (Pct.median_f setup_times);
    emit "txn_per_s" "1/s" (Pct.median_f (List.map snd t.rates));
    Array.iteri
      (fun i label -> emit_latency label (Array.to_list (Array.map (fun cl -> cl.lat.(i)) st.clients)))
      kind_label;
    emit "restart_s" "s" restart_s;
    emit "heap_live_mb" "MB" heap_mb;
    emit "space_bytes_per_entry" "B" space;
    emit "committed_frac" "ratio"
      (ratio committed (committed +. fi (sum_clients st (fun cl -> cl.aborted + cl.failed))))
  end;
  let correct = failed_txns = 0 && failed_checks = 0 in
  let metrics =
    List.rev !out
    |> List.map (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted (failed_txns + failed_checks) metrics;
  exit (if correct then 0 else 1)
