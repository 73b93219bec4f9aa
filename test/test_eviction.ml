(* Larger-than-memory buffer management (E17's correctness half):

   - a qcheck equivalence property: the eviction policy is invisible to
     tree contents — identical op histories through an Lru pool and a
     Two_q pool end in identical trees;
   - scan resistance: a full-tree scan through a 2Q pool must not evict
     the protected hot set the way plain LRU does;
   - the background writer keeps foreground eviction clean
     (bp.fg_writeback = 0) while the pool thrashes;
   - fuzzy checkpoints fire from the writer domain and recovery after a
     crash replays from the last anchor (recovery.redo_span recorded);
   - cursor scans hand upcoming pages to the writer domain for
     read-ahead (bp.prefetch.issued);
   - a bg-enabled crash-fuzz sweep: every fault mode with the writer
     domain + 200µs fuzzy checkpoints + prefetch racing the crash point
     (point budget shared with test_fault via FUZZ_POINTS). *)

open Gist_core
module B = Gist_ams.Btree_ext
module Rid = Gist_storage.Rid
module Buffer_pool = Gist_storage.Buffer_pool
module Txn = Gist_txn.Txn_manager
module Metrics = Gist_obs.Metrics
module Crash_fuzz = Gist_fault.Crash_fuzz

let rid i = Rid.make ~page:1000 ~slot:i

let counter name = Metrics.counter_value (Metrics.snapshot ()) name

let tiny_config =
  { Db.default_config with Db.max_entries = 8; pool_capacity = 32; page_size = 1024 }

let make_tree ?(config = tiny_config) ?(n = 0) () =
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  if n > 0 then begin
    let txn = Txn.begin_txn db.Db.txns in
    for i = 1 to n do
      Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
    done;
    Txn.commit db.Db.txns txn
  end;
  (db, t)

let sorted_keys results =
  results |> List.map (fun (k, _) -> B.key_value k) |> List.sort compare

let check_tree t =
  let report = Tree_check.check t in
  Alcotest.(check bool) (Format.asprintf "%a" Tree_check.pp report) true (Tree_check.ok report)

(* --- policy equivalence: eviction order never changes tree contents --- *)

let test_policy_equivalence_qcheck =
  QCheck.Test.make ~count:30 ~name:"Lru and Two_q pools end in identical trees"
    QCheck.(small_list (pair (int_bound 600) bool))
    (fun ops ->
      let run policy =
        let config = { tiny_config with Db.eviction_policy = policy } in
        let db, t = make_tree ~config () in
        let txn = Txn.begin_txn db.Db.txns in
        (* Keep the history well-formed: no duplicate live (key, rid)
           inserts, no deletes of absent keys — the generator is free-form
           but the tree's contract is not. *)
        let present = Hashtbl.create 64 in
        List.iter
          (fun (k, ins) ->
            if ins then begin
              if not (Hashtbl.mem present k) then begin
                Hashtbl.add present k ();
                Gist.insert t txn ~key:(B.key k) ~rid:(rid k)
              end
            end
            else if Hashtbl.mem present k then begin
              Hashtbl.remove present k;
              ignore (Gist.delete t txn ~key:(B.key k) ~rid:(rid k))
            end)
          ops;
        Txn.commit db.Db.txns txn;
        let txn = Txn.begin_txn db.Db.txns in
        let got = sorted_keys (Gist.search t txn (B.range 0 1_000)) in
        Txn.commit db.Db.txns txn;
        (got, Tree_check.ok (Tree_check.check t))
      in
      let lru, lru_ok = run Buffer_pool.Lru in
      let two_q, two_q_ok = run Buffer_pool.Two_q in
      lru_ok && two_q_ok && lru = two_q)

(* --- scan resistance ------------------------------------------------- *)

(* Warm a hot range until it is pool-resident, sweep the whole tree once,
   then re-probe the hot range and count the misses the sweep caused. *)
let hot_misses_after_scan policy =
  let config =
    (* Generous per-shard headroom: the pool is sharded, and a hot set
       that overloads one shard would miss for capacity reasons the
       policy cannot fix. *)
    { tiny_config with Db.pool_capacity = 256; eviction_policy = policy }
  in
  let db, t = make_tree ~config ~n:4_000 () in
  let probe_hot txn = ignore (Gist.search t txn (B.range 1 200)) in
  let txn = Txn.begin_txn db.Db.txns in
  for _ = 1 to 5 do
    probe_hot txn
  done;
  (* Hot set is resident: a probe now should not miss. *)
  let m0 = Buffer_pool.misses db.Db.pool in
  let h0 = Buffer_pool.hits db.Db.pool in
  probe_hot txn;
  let warm_misses = Buffer_pool.misses db.Db.pool - m0 in
  let hot_pages = Buffer_pool.hits db.Db.pool - h0 + warm_misses in
  ignore (Gist.search t txn (B.range 0 10_000));
  let m1 = Buffer_pool.misses db.Db.pool in
  probe_hot txn;
  Txn.commit db.Db.txns txn;
  let after = Buffer_pool.misses db.Db.pool - m1 in
  (warm_misses, after, hot_pages)

let test_scan_resistance () =
  let saved0 = counter "bp.scan_resist_saved" in
  let warm_2q, after_2q, hot_pages = hot_misses_after_scan Buffer_pool.Two_q in
  let _, after_lru, _ = hot_misses_after_scan Buffer_pool.Lru in
  (* Sharding skews residency a little; the hot set must be essentially
     resident, not perfectly so. *)
  Alcotest.(check bool)
    (Printf.sprintf "hot set resident before the scan (2Q: %d/%d misses)" warm_2q hot_pages)
    true
    (warm_2q * 10 < hot_pages);
  Alcotest.(check bool)
    (Printf.sprintf "scan evicts the LRU hot set (%d/%d misses)" after_lru hot_pages)
    true
    (after_lru > hot_pages / 2);
  Alcotest.(check bool)
    (Printf.sprintf "2Q keeps the hot set >90%% resident (%d/%d misses)" after_2q hot_pages)
    true
    (after_2q * 10 < hot_pages);
  Alcotest.(check bool) "probation victims were chosen over protected frames" true
    (counter "bp.scan_resist_saved" > saved0)

(* --- background writer: foreground eviction stays clean -------------- *)

let test_bg_writer_clean_foreground () =
  let config = { tiny_config with Db.bg_writer = true } in
  let db, t = make_tree ~config () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 3_000 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  let txn = Txn.begin_txn db.Db.txns in
  for round = 0 to 19 do
    ignore (Gist.search t txn (B.range (round * 100) ((round * 100) + 150)))
  done;
  Txn.commit db.Db.txns txn;
  Alcotest.(check bool) "pool thrashed (evictions happened)" true
    (Buffer_pool.evictions db.Db.pool > 0);
  Alcotest.(check bool) "the writer domain flushed" true
    (Buffer_pool.bg_writebacks db.Db.pool > 0);
  Alcotest.(check int) "foreground eviction never wrote back" 0
    (Buffer_pool.fg_writebacks db.Db.pool);
  Alcotest.(check int) "zero I/Os under a held latch" 0
    (Buffer_pool.io_while_latched db.Db.pool);
  check_tree t;
  Db.close db

(* --- fuzzy checkpoints bound the redo span --------------------------- *)

let test_fuzzy_checkpoint_recovery () =
  let config =
    { tiny_config with Db.bg_writer = true; checkpoint_interval_us = 500 }
  in
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  let ckpt0 = counter "ckpt.fuzzy" in
  for batch = 0 to 19 do
    let txn = Txn.begin_txn db.Db.txns in
    for i = 1 to 100 do
      Gist.insert t txn ~key:(B.key ((batch * 100) + i)) ~rid:(rid ((batch * 100) + i))
    done;
    Txn.commit db.Db.txns txn;
    (* Give the writer domain a checkpoint window between batches. *)
    Unix.sleepf 0.001
  done;
  Alcotest.(check bool) "fuzzy checkpoints fired during the workload" true
    (counter "ckpt.fuzzy" > ckpt0);
  let root = Gist.root t in
  let db' = Db.crash db in
  (* The rebuilt environment's writer domain runs from here on; give it
     several checkpoint intervals before restart. It must take no
     checkpoint yet: one of the still-empty pool, transaction table and
     allocator would move the anchor past every record restart must
     replay. *)
  Unix.sleepf 0.005;
  Recovery.restart db' B.ext;
  let t' = Gist.open_existing db' B.ext ~root () in
  let txn = Txn.begin_txn db'.Db.txns in
  let got = sorted_keys (Gist.search t' txn (B.range 0 10_000)) in
  Txn.commit db'.Db.txns txn;
  Alcotest.(check int) "every committed key survives the crash" 2_000 (List.length got);
  (match Metrics.find (Metrics.snapshot ()) "recovery.redo_span" with
  | Some (Metrics.Summary s) ->
    Alcotest.(check bool) "restart recorded its redo span" true
      (Gist_util.Stats.Summary.count s > 0)
  | _ -> Alcotest.fail "recovery.redo_span summary not registered");
  check_tree t';
  Db.close db'

(* --- range-scan prefetch --------------------------------------------- *)

let test_prefetch_on_scan () =
  let config =
    { tiny_config with Db.pool_capacity = 48; bg_writer = true; prefetch_depth = 4 }
  in
  let db, t = make_tree ~config ~n:3_000 () in
  let issued0 = counter "bp.prefetch.issued" in
  let txn = Txn.begin_txn db.Db.txns in
  let cursor = Cursor.open_ t txn (B.range 0 10_000) in
  let n = ref 0 in
  let rec drain () =
    match Cursor.next cursor with
    | Some _ ->
      incr n;
      drain ()
    | None -> ()
  in
  drain ();
  Cursor.close cursor;
  Txn.commit db.Db.txns txn;
  (* Let the writer domain drain whatever is still queued. *)
  Unix.sleepf 0.005;
  Alcotest.(check int) "cursor saw every key" 3_000 !n;
  Alcotest.(check bool) "the scan issued prefetches" true
    (counter "bp.prefetch.issued" > issued0);
  Db.close db

(* --- crash fuzz with the writer domain racing the fault -------------- *)

let fuzz_points () =
  match Sys.getenv_opt "FUZZ_POINTS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 200)
  | None -> 200

let test_crash_fuzz_bg () =
  let points = fuzz_points () in
  let summaries = Crash_fuzz.run_sweep ~bg_writer:true ~seed:20260808 ~points () in
  List.iter
    (fun s ->
      List.iter
        (fun v -> Alcotest.failf "oracle violation: %s" v)
        s.Crash_fuzz.violations;
      Alcotest.(check bool)
        (Printf.sprintf "%s mode fired at least one crash"
           (Crash_fuzz.mode_name s.Crash_fuzz.mode))
        true
        (s.Crash_fuzz.crashes > 0))
    summaries

let suite =
  [
    QCheck_alcotest.to_alcotest test_policy_equivalence_qcheck;
    Alcotest.test_case "scan resistance: 2Q protects the hot set" `Quick test_scan_resistance;
    Alcotest.test_case "bg writer: foreground eviction stays clean" `Quick
      test_bg_writer_clean_foreground;
    Alcotest.test_case "fuzzy checkpoints + crash recovery" `Quick
      test_fuzzy_checkpoint_recovery;
    Alcotest.test_case "cursor scan issues prefetch" `Quick test_prefetch_on_scan;
    Alcotest.test_case "crash-fuzz sweep with bg writer (FUZZ_POINTS)" `Quick
      test_crash_fuzz_bg;
  ]
