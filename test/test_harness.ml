(* Tests for the experiment harness itself: the driver's accounting, the
   workload generators' contracts, and the table formatter. *)

open Gist_core
open Gist_harness
module B = Gist_ams.Btree_ext
module Txn = Gist_txn.Txn_manager

let config =
  { Db.default_config with Db.max_entries = 8; pool_capacity = 128; page_size = 1024 }

let test_driver_counts_and_duration () =
  let db = Db.create ~config () in
  let counter = Atomic.make 0 in
  let stats =
    Driver.run_txn_ops ~db ~domains:2 ~duration_s:0.2 ~seed:1 (fun ~worker:_ ~rng:_ ~txn:_ ->
        Atomic.incr counter)
  in
  Alcotest.(check int) "driver ops = body invocations" (Atomic.get counter) stats.Driver.ops;
  Alcotest.(check bool) "respected the deadline (within slack)" true
    (stats.Driver.elapsed_s >= 0.2 && stats.Driver.elapsed_s < 2.0);
  Alcotest.(check bool) "throughput consistent" true
    (Float.abs (stats.Driver.throughput -. (Float.of_int stats.Driver.ops /. stats.Driver.elapsed_s))
    < 1.0);
  Alcotest.(check int) "latency samples = ops" stats.Driver.ops
    (Gist_util.Stats.Histogram.count stats.Driver.latency)

let test_driver_rng_streams_deterministic () =
  (* Same seed -> same per-worker streams (first value recorded). *)
  let db = Db.create ~config () in
  let capture () =
    let seen = Array.make 2 0L in
    let once = Array.make 2 false in
    ignore
      (Driver.run_txn_ops ~db ~domains:2 ~duration_s:0.05 ~seed:42 (fun ~worker ~rng ~txn:_ ->
           if not once.(worker) then begin
             once.(worker) <- true;
             seen.(worker) <- Gist_util.Xoshiro.next64 rng
           end));
    seen
  in
  let a = capture () and b = capture () in
  Alcotest.(check bool) "per-worker streams reproducible" true (a = b);
  Alcotest.(check bool) "workers get distinct streams" true (a.(0) <> a.(1))

let test_driver_txn_retry () =
  (* The transactional driver commits each successful body; deliberately
     conflicting bodies must retry, not crash. *)
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  Workload.Btree.preload db t ~n:50;
  let stats =
    Driver.run_txn_ops ~db ~domains:2 ~duration_s:0.2 ~seed:9 (fun ~worker:_ ~rng ~txn ->
        (* Everyone reads and rewrites the same hot keys. *)
        let k = Gist_util.Xoshiro.int rng 10 in
        ignore (Gist.search t txn (B.range k (k + 3)));
        if Gist.delete t txn ~key:(B.key k) ~rid:(Workload.Btree.rid_of_key ~worker:0 k) then
          Gist.insert t txn ~key:(B.key k) ~rid:(Workload.Btree.rid_of_key ~worker:0 k))
  in
  Alcotest.(check bool) "made progress" true (stats.Driver.ops > 0);
  let report = Tree_check.check t in
  Alcotest.(check bool) "tree consistent after contention" true (Tree_check.ok report);
  let txn = Txn.begin_txn db.Db.txns in
  Alcotest.(check int) "no lost keys" 50 (List.length (Gist.search t txn (B.range 0 49)));
  Txn.commit db.Db.txns txn

let test_driver_gives_up_uncommitted () =
  (* An operation that deadlocks on every attempt gives up without a
     commit: it is not a committed operation. *)
  let db = Db.create ~config () in
  (* Opening a tree installs the undo handler that [Txn.abort] needs. *)
  ignore (Gist.create db B.ext ~empty_bp:B.Empty ());
  let stats =
    Driver.run_txn_ops ~db ~domains:1 ~duration_s:0.05 ~seed:3 (fun ~worker:_ ~rng:_ ~txn ->
        raise (Gist_txn.Lock_manager.Deadlock (Txn.id txn)))
  in
  Alcotest.(check int) "no committed ops" 0 stats.Driver.ops;
  Alcotest.(check bool) "the attempts gave up" true (stats.Driver.given_up > 0);
  Alcotest.(check int) "every attempt aborted"
    (stats.Driver.given_up * Driver.max_attempts)
    stats.Driver.aborts;
  Alcotest.(check (float 0.0)) "zero throughput" 0.0 stats.Driver.throughput;
  Alcotest.(check int) "no latency samples" 0
    (Gist_util.Stats.Histogram.count stats.Driver.latency)

let test_workload_generator_contracts () =
  let rng = Gist_util.Xoshiro.create 5 in
  let searches = ref 0 and inserts = ref 0 and deletes = ref 0 in
  let seen_rids = Hashtbl.create 64 in
  for _ = 1 to 2_000 do
    match Workload.Btree.mixed ~worker:3 ~space:1_000 ~read_pct:50 ~scan_width:10 ~theta:0.0 rng with
    | Workload.Btree.Search (B.Range { lo; hi }) ->
      incr searches;
      Alcotest.(check bool) "scan bounds ordered" true (lo <= hi)
    | Workload.Btree.Search _ -> incr searches
    | Workload.Btree.Insert (_, rid) ->
      incr inserts;
      Alcotest.(check bool) "fresh rid per insert" false (Hashtbl.mem seen_rids rid);
      Hashtbl.replace seen_rids rid ()
    | Workload.Btree.Delete _ -> incr deletes
  done;
  Alcotest.(check bool) "read share near 50%" true (!searches > 800 && !searches < 1_200);
  Alcotest.(check bool) "some deletes generated" true (!deletes > 0)

let test_workload_apply_runs () =
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  Workload.Btree.preload db t ~n:100;
  let rng = Gist_util.Xoshiro.create 77 in
  let txn = Txn.begin_txn db.Db.txns in
  for _ = 1 to 300 do
    Workload.Btree.apply t txn
      (Workload.Btree.mixed ~worker:1 ~space:100 ~read_pct:30 ~scan_width:5 ~theta:0.5 rng)
  done;
  Txn.commit db.Db.txns txn;
  let report = Tree_check.check t in
  Alcotest.(check bool) "tree consistent after applied workload" true (Tree_check.ok report)

let test_rtree_workload () =
  let db = Db.create ~config:{ config with Db.page_size = 2048 } () in
  let t = Gist.create db Gist_ams.Rtree_ext.ext ~empty_bp:Gist_ams.Rtree_ext.Empty () in
  Workload.Rtree.preload db t ~n:500 ~extent:100.0 ~seed:3;
  Alcotest.(check int) "preloaded" 500 (Gist.entry_count t);
  let rng = Gist_util.Xoshiro.create 4 in
  let txn = Txn.begin_txn db.Db.txns in
  for _ = 1 to 200 do
    Workload.Rtree.apply t txn (Workload.Rtree.mixed ~worker:2 ~extent:100.0 ~read_pct:50 ~window:5.0 rng)
  done;
  Txn.commit db.Db.txns txn;
  let report = Tree_check.check t in
  Alcotest.(check bool) "rtree consistent" true (Tree_check.ok report)

let suite =
  [
    Alcotest.test_case "driver counts and duration" `Quick test_driver_counts_and_duration;
    Alcotest.test_case "driver rng determinism" `Quick test_driver_rng_streams_deterministic;
    Alcotest.test_case "driver txn retry under contention" `Quick test_driver_txn_retry;
    Alcotest.test_case "workload generator contracts" `Quick test_workload_generator_contracts;
    Alcotest.test_case "workload apply" `Quick test_workload_apply_runs;
    Alcotest.test_case "rtree workload" `Quick test_rtree_workload;
    Alcotest.test_case "driver gives up uncommitted" `Quick test_driver_gives_up_uncommitted;
  ]
