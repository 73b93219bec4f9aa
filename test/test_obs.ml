(* The observability layer: registry semantics, cross-domain merging,
   trace-ring behavior, and an end-to-end check that the instrumented
   kernel actually reports what the paper's claims need (rightlink
   traversals > 0, I/Os under latches = 0). *)

open Gist_core
module B = Gist_ams.Btree_ext
module Rid = Gist_storage.Rid
module Txn = Gist_txn.Txn_manager
module Lock_manager = Gist_txn.Lock_manager
module Metrics = Gist_obs.Metrics
module Trace = Gist_obs.Trace
module Stats = Gist_util.Stats

let rid i = Rid.make ~page:1000 ~slot:i

(* --- registry semantics --- *)

let test_registration () =
  let a = Metrics.counter ~unit_:"ops" "test.obs.reg" in
  let b = Metrics.counter "test.obs.reg" in
  Metrics.incr a;
  Metrics.incr b;
  (* Same name, same kind: one shared instrument. *)
  Alcotest.(check int) "idempotent registration shares the counter" 2 (Metrics.value a);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: \"test.obs.reg\" already registered as a counter, not a histogram")
    (fun () -> ignore (Metrics.histogram "test.obs.reg"))

let test_merge_across_domains () =
  let c = Metrics.counter "test.obs.merge.c" in
  let s = Metrics.summary "test.obs.merge.s" in
  let h = Metrics.histogram "test.obs.merge.h" in
  let per_domain = 500 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Metrics.incr c;
              Metrics.observe s (Float.of_int (d + 1));
              Metrics.record h (Float.of_int i)
            done))
  in
  List.iter Domain.join domains;
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "counter merged" (4 * per_domain)
    (Metrics.counter_value snap "test.obs.merge.c");
  (match Metrics.find snap "test.obs.merge.s" with
  | Some (Metrics.Summary sum) ->
    Alcotest.(check int) "summary count merged over 4 shards" (4 * per_domain)
      (Stats.Summary.count sum);
    Alcotest.(check (float 1e-9)) "summary min" 1.0 (Stats.Summary.min sum);
    Alcotest.(check (float 1e-9)) "summary max" 4.0 (Stats.Summary.max sum)
  | _ -> Alcotest.fail "summary sample missing");
  match Metrics.find snap "test.obs.merge.h" with
  | Some (Metrics.Histogram hist) ->
    Alcotest.(check int) "histogram count merged over 4 shards" (4 * per_domain)
      (Stats.Histogram.count hist)
  | _ -> Alcotest.fail "histogram sample missing"

let test_histogram_percentiles () =
  let h = Metrics.histogram ~unit_:"ns" "test.obs.pct" in
  for i = 1 to 1000 do
    Metrics.record h (Float.of_int i)
  done;
  let snap = Metrics.snapshot () in
  match Metrics.find snap "test.obs.pct" with
  | Some (Metrics.Histogram hist) ->
    let p50 = Stats.Histogram.percentile hist 0.50 in
    let p99 = Stats.Histogram.percentile hist 0.99 in
    (* Log buckets have ~11% resolution; allow a generous band. *)
    Alcotest.(check bool)
      (Printf.sprintf "p50 (%g) near 500" p50)
      true
      (p50 > 400.0 && p50 < 625.0);
    Alcotest.(check bool)
      (Printf.sprintf "p99 (%g) near 990" p99)
      true
      (p99 > 800.0 && p99 < 1250.0);
    Alcotest.(check bool) "percentiles ordered" true (p99 >= p50)
  | _ -> Alcotest.fail "histogram sample missing"

(* --- trace ring --- *)

let test_trace_wraparound () =
  Trace.set_capacity 64;
  Trace.enable ();
  (* A fresh domain gets a fresh ring sized by the new capacity. *)
  let dom =
    Domain.spawn (fun () ->
        for i = 0 to 199 do
          Trace.emit (Trace.Bp_hit { page = i })
        done;
        (Domain.self () :> int))
  in
  let dom_id = Domain.join dom in
  Trace.disable ();
  let mine = List.filter (fun e -> e.Trace.domain = dom_id) (Trace.dump ()) in
  Alcotest.(check int) "ring kept exactly its capacity" 64 (List.length mine);
  let pages =
    List.filter_map
      (fun e -> match e.Trace.event with Trace.Bp_hit { page } -> Some page | _ -> None)
      mine
  in
  (* Oldest events were overwritten: only the last 64 pages survive. *)
  Alcotest.(check int) "oldest surviving event" 136 (List.fold_left min max_int pages);
  Alcotest.(check int) "newest surviving event" 199 (List.fold_left max 0 pages);
  Trace.clear ();
  Alcotest.(check int) "clear drops everything" 0 (List.length (Trace.dump ()));
  Trace.set_capacity 4096

(* --- end to end: the instrumented kernel under a real workload --- *)

let rec with_retry db work =
  let txn = Txn.begin_txn db.Db.txns in
  match work txn with
  | v ->
    Txn.commit db.Db.txns txn;
    v
  | exception Lock_manager.Deadlock _ ->
    Txn.abort db.Db.txns txn;
    with_retry db work

(* Deterministic rightlink traversal (the Figure 1/2 interleaving): a
   search pauses before visiting a leaf, an insert splits that leaf, and
   the resumed search must follow the rightlink — which the metrics and
   the trace must both record. *)
let force_rightlink () =
  let config =
    { Db.default_config with Db.max_entries = 8; pool_capacity = 512; page_size = 1024 }
  in
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  let setup = Txn.begin_txn db.Db.txns in
  List.iter
    (fun i -> Gist.insert t setup ~key:(B.key i) ~rid:(rid i))
    [ 1; 2; 3; 4; 5; 6; 7; 9; 11; 13; 15; 17; 19 ];
  Txn.commit db.Db.txns setup;
  let follows0 = Metrics.counter_value (Metrics.snapshot ()) "gist.rightlink_follow" in
  let searcher_paused = Semaphore.Binary.make false in
  let split_done = Semaphore.Binary.make false in
  let in_searcher = Atomic.make false in
  let paused_once = Atomic.make false in
  Gist.set_hook t (fun ev ->
      if
        Atomic.get in_searcher
        && String.length ev > 13
        && String.sub ev 0 13 = "search:visit:"
        && (not (String.equal ev "search:visit:P1"))
        && not (Atomic.get paused_once)
      then begin
        Atomic.set paused_once true;
        Semaphore.Binary.release searcher_paused;
        Semaphore.Binary.acquire split_done
      end);
  let searcher =
    Domain.spawn (fun () ->
        Atomic.set in_searcher true;
        let txn = Txn.begin_txn db.Db.txns in
        let r = Gist.search t txn (B.range 1 30) in
        Txn.commit db.Db.txns txn;
        Atomic.set in_searcher false;
        List.length r)
  in
  Semaphore.Binary.acquire searcher_paused;
  let inserter = Txn.begin_txn db.Db.txns in
  List.iter
    (fun i -> Gist.insert t inserter ~key:(B.key i) ~rid:(rid i))
    [ 31; 32; 33; 34; 35; 36; 37; 38; 39; 40; 41; 42; 43; 44; 45 ];
  Txn.commit db.Db.txns inserter;
  Semaphore.Binary.release split_done;
  ignore (Domain.join searcher);
  Metrics.counter_value (Metrics.snapshot ()) "gist.rightlink_follow" - follows0

let test_end_to_end () =
  (* Thrash phase: a preloaded tree behind a 16-frame pool, then a
     single-domain steady-state workload — every operation faults pages
     in and evicts, yet the link protocol never does that I/O under a
     latch. Structure modifications during the preload legitimately pin
     while latched (they run inside NTAs), so — exactly like the seed's
     claims suite — stats reset after the preload and the invariant is
     asserted over the steady-state rounds. *)
  let thrash_config =
    { Db.default_config with Db.max_entries = 8; pool_capacity = 16; page_size = 1024 }
  in
  let tdb = Db.create ~config:thrash_config () in
  let tt = Gist.create tdb B.ext ~empty_bp:B.Empty () in
  let preload = Txn.begin_txn tdb.Db.txns in
  for i = 1 to 2_000 do
    Gist.insert tt preload ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit tdb.Db.txns preload;
  Metrics.reset ();
  Trace.clear ();
  Trace.enable ();
  let thrash_rounds = 20 in
  for round = 1 to thrash_rounds do
    let txn = Txn.begin_txn tdb.Db.txns in
    ignore (Gist.search tt txn (B.range (round * 50) ((round * 50) + 100)));
    Gist.insert tt txn ~key:(B.key (10_000 + round)) ~rid:(rid (10_000 + round));
    Txn.commit tdb.Db.txns txn
  done;
  (* Contended phase: 4 domains insert concurrently (pool sized so the
     working set stays resident, as in the concurrency suite). *)
  let config =
    { Db.default_config with Db.max_entries = 8; pool_capacity = 512; page_size = 1024 }
  in
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  let n_domains = 4 and per_domain = 300 in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              let k = (d * 10_000) + i in
              with_retry db (fun txn -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k))
            done))
  in
  List.iter Domain.join domains;
  (* Deterministic phase: guarantee at least one rightlink traversal. *)
  let forced_rightlinks = force_rightlink () in
  Trace.disable ();
  let snap = Metrics.snapshot () in
  Alcotest.(check int) "every insert counted"
    (thrash_rounds + (n_domains * per_domain) + 13 + 15)
    (Metrics.counter_value snap "gist.insert");
  Alcotest.(check bool) "splits happened" true (Metrics.counter_value snap "gist.split" > 0);
  Alcotest.(check bool) "WAL appended" true (Metrics.counter_value snap "wal.append" > 0);
  Alcotest.(check bool) "pool thrashed" true (Metrics.counter_value snap "bp.evict" > 0);
  Alcotest.(check bool) "rightlink traversals recorded (registry)" true
    (Metrics.counter_value snap "gist.rightlink_follow" > 0);
  Alcotest.(check bool) "rightlink traversals recorded (forced interleaving)" true
    (forced_rightlinks > 0);
  Alcotest.(check int) "claim C1: zero I/Os under latches" 0
    (Metrics.counter_value snap "latches_held_across_io");
  (* The trace saw the traversal too. *)
  let saw_rightlink =
    List.exists
      (fun e -> match e.Trace.event with Trace.Rightlink _ -> true | _ -> false)
      (Trace.dump ())
  in
  Alcotest.(check bool) "Rightlink event traced" true saw_rightlink;
  Trace.clear ();
  (* Rendered output contains the claim counter with its zero value. *)
  let json = Metrics.render_json snap in
  Alcotest.(check bool) "json exposes the C1 counter" true
    (let sub = {|"latches_held_across_io":0|} in
     let rec find i =
       i + String.length sub <= String.length json
       && (String.sub json i (String.length sub) = sub || find (i + 1))
     in
     find 0)

let suite =
  [
    Alcotest.test_case "registration is idempotent, kind-checked" `Quick test_registration;
    Alcotest.test_case "snapshot merges 4 domains" `Quick test_merge_across_domains;
    Alcotest.test_case "histogram percentile sanity" `Quick test_histogram_percentiles;
    Alcotest.test_case "trace ring wraps at capacity" `Quick test_trace_wraparound;
    Alcotest.test_case "end to end: contended workload observed" `Quick test_end_to_end;
  ]
