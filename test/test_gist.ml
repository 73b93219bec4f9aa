(* Single-threaded end-to-end tests of the GiST operations on the B-tree
   extension: insert/search/delete, splits, BP expansion, logical deletion
   semantics, abort rollback, and tree invariants after bulk loads. *)

open Gist_core
module B = Gist_ams.Btree_ext
module Rid = Gist_storage.Rid
module Txn = Gist_txn.Txn_manager

let rid i = Rid.make ~page:1000 ~slot:i

let small_config =
  { Db.default_config with Db.max_entries = 8; pool_capacity = 64; page_size = 1024 }

let make_tree ?(config = small_config) () =
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  (db, t)

let sorted_keys results =
  results |> List.map (fun (k, _) -> B.key_value k) |> List.sort compare

let check_tree t =
  let report = Tree_check.check t in
  Alcotest.(check bool) (Format.asprintf "%a" Tree_check.pp report) true (Tree_check.ok report)

let test_empty_search () =
  let db, t = make_tree () in
  let txn = Txn.begin_txn db.Db.txns in
  Alcotest.(check (list (pair int int)))
    "empty tree returns nothing" []
    (Gist.search t txn (B.range 0 100) |> List.map (fun (k, r) -> (B.key_value k, r.Rid.slot)));
  Txn.commit db.Db.txns txn

let test_insert_search () =
  let db, t = make_tree () in
  let txn = Txn.begin_txn db.Db.txns in
  List.iter (fun i -> Gist.insert t txn ~key:(B.key i) ~rid:(rid i)) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (list int)) "all keys" [ 1; 3; 5; 7; 9 ]
    (sorted_keys (Gist.search t txn (B.range 0 100)));
  Alcotest.(check (list int)) "range [3,7]" [ 3; 5; 7 ]
    (sorted_keys (Gist.search t txn (B.range 3 7)));
  Alcotest.(check (list int)) "point query" [ 7 ] (sorted_keys (Gist.search t txn (B.key 7)));
  Alcotest.(check (list int)) "miss" [] (sorted_keys (Gist.search t txn (B.key 4)));
  Txn.commit db.Db.txns txn;
  check_tree t

let test_bulk_insert_splits () =
  let db, t = make_tree () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 500 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  Alcotest.(check bool) "tree grew" true (Gist.height t > 1);
  let txn = Txn.begin_txn db.Db.txns in
  Alcotest.(check int) "all 500 present" 500
    (List.length (Gist.search t txn (B.range 1 500)));
  Alcotest.(check (list int)) "spot range" [ 250; 251; 252 ]
    (sorted_keys (Gist.search t txn (B.range 250 252)));
  Txn.commit db.Db.txns txn;
  check_tree t

let test_reverse_and_random_order () =
  let db, t = make_tree () in
  let txn = Txn.begin_txn db.Db.txns in
  let rng = Gist_util.Xoshiro.create 42 in
  let keys = Array.init 300 (fun i -> i + 1) in
  Gist_util.Xoshiro.shuffle rng keys;
  Array.iter (fun i -> Gist.insert t txn ~key:(B.key i) ~rid:(rid i)) keys;
  Txn.commit db.Db.txns txn;
  let txn = Txn.begin_txn db.Db.txns in
  Alcotest.(check int) "300 keys" 300 (List.length (Gist.search t txn (B.range 1 300)));
  Txn.commit db.Db.txns txn;
  check_tree t

let test_delete_basic () =
  let db, t = make_tree () in
  let txn = Txn.begin_txn db.Db.txns in
  List.iter (fun i -> Gist.insert t txn ~key:(B.key i) ~rid:(rid i)) [ 1; 2; 3 ];
  Txn.commit db.Db.txns txn;
  let txn = Txn.begin_txn db.Db.txns in
  Alcotest.(check bool) "delete 2" true (Gist.delete t txn ~key:(B.key 2) ~rid:(rid 2));
  Alcotest.(check bool) "delete missing" false (Gist.delete t txn ~key:(B.key 42) ~rid:(rid 42));
  (* Logical deletion: the deleter itself no longer sees the key. *)
  Alcotest.(check (list int)) "deleter's view" [ 1; 3 ]
    (sorted_keys (Gist.search t txn (B.range 0 10)));
  Txn.commit db.Db.txns txn;
  let txn = Txn.begin_txn db.Db.txns in
  Alcotest.(check (list int)) "after commit" [ 1; 3 ]
    (sorted_keys (Gist.search t txn (B.range 0 10)));
  Txn.commit db.Db.txns txn;
  (* The entry is still physically present until GC. *)
  Alcotest.(check int) "physical entries" 3 (Gist.entry_count t);
  Gist.vacuum t;
  Alcotest.(check int) "after vacuum" 2 (Gist.entry_count t);
  check_tree t

let test_abort_insert () =
  let db, t = make_tree () in
  let txn = Txn.begin_txn db.Db.txns in
  List.iter (fun i -> Gist.insert t txn ~key:(B.key i) ~rid:(rid i)) [ 1; 2; 3 ];
  Txn.commit db.Db.txns txn;
  let txn = Txn.begin_txn db.Db.txns in
  Gist.insert t txn ~key:(B.key 99) ~rid:(rid 99);
  Txn.abort db.Db.txns txn;
  let txn = Txn.begin_txn db.Db.txns in
  Alcotest.(check (list int)) "aborted insert gone" [ 1; 2; 3 ]
    (sorted_keys (Gist.search t txn (B.range 0 200)));
  Txn.commit db.Db.txns txn;
  check_tree t

let test_abort_delete () =
  let db, t = make_tree () in
  let txn = Txn.begin_txn db.Db.txns in
  List.iter (fun i -> Gist.insert t txn ~key:(B.key i) ~rid:(rid i)) [ 1; 2; 3 ];
  Txn.commit db.Db.txns txn;
  let txn = Txn.begin_txn db.Db.txns in
  ignore (Gist.delete t txn ~key:(B.key 2) ~rid:(rid 2));
  Txn.abort db.Db.txns txn;
  let txn = Txn.begin_txn db.Db.txns in
  Alcotest.(check (list int)) "rolled-back delete visible again" [ 1; 2; 3 ]
    (sorted_keys (Gist.search t txn (B.range 0 10)));
  Txn.commit db.Db.txns txn;
  check_tree t

let test_abort_with_splits () =
  (* An abort whose inserts caused splits must remove the entries but keep
     the (individually committed) structure intact. *)
  let db, t = make_tree () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 50 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  let txn = Txn.begin_txn db.Db.txns in
  for i = 51 to 200 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.abort db.Db.txns txn;
  let txn = Txn.begin_txn db.Db.txns in
  Alcotest.(check int) "only committed keys" 50
    (List.length (Gist.search t txn (B.range 1 1000)));
  Txn.commit db.Db.txns txn;
  check_tree t

let test_duplicate_keys_nonunique () =
  (* A non-unique index stores equal keys with distinct RIDs. *)
  let db, t = make_tree () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 20 do
    Gist.insert t txn ~key:(B.key 7) ~rid:(rid i)
  done;
  Alcotest.(check int) "20 duplicates" 20 (List.length (Gist.search t txn (B.key 7)));
  Txn.commit db.Db.txns txn;
  check_tree t

let test_savepoint_partial_rollback () =
  let db, t = make_tree () in
  let txn = Txn.begin_txn db.Db.txns in
  Gist.insert t txn ~key:(B.key 1) ~rid:(rid 1);
  Txn.savepoint db.Db.txns txn "sp1";
  Gist.insert t txn ~key:(B.key 2) ~rid:(rid 2);
  Gist.insert t txn ~key:(B.key 3) ~rid:(rid 3);
  Txn.rollback_to_savepoint db.Db.txns txn "sp1";
  Alcotest.(check (list int)) "only pre-savepoint insert" [ 1 ]
    (sorted_keys (Gist.search t txn (B.range 0 10)));
  Gist.insert t txn ~key:(B.key 4) ~rid:(rid 4);
  Txn.commit db.Db.txns txn;
  let txn = Txn.begin_txn db.Db.txns in
  Alcotest.(check (list int)) "post-commit" [ 1; 4 ]
    (sorted_keys (Gist.search t txn (B.range 0 10)));
  Txn.commit db.Db.txns txn;
  check_tree t

let test_mixed_workload_invariants () =
  let db, t = make_tree () in
  let rng = Gist_util.Xoshiro.create 7 in
  let live = Hashtbl.create 64 in
  for round = 1 to 20 do
    let txn = Txn.begin_txn db.Db.txns in
    for _ = 1 to 50 do
      let k = Gist_util.Xoshiro.int rng 1000 in
      if Gist_util.Xoshiro.bool rng then begin
        if not (Hashtbl.mem live k) then begin
          Gist.insert t txn ~key:(B.key k) ~rid:(rid k);
          Hashtbl.replace live k ()
        end
      end
      else if Hashtbl.mem live k then begin
        ignore (Gist.delete t txn ~key:(B.key k) ~rid:(rid k));
        Hashtbl.remove live k
      end
    done;
    Txn.commit db.Db.txns txn;
    if round mod 5 = 0 then Gist.vacuum t
  done;
  let txn = Txn.begin_txn db.Db.txns in
  let found = sorted_keys (Gist.search t txn (B.range 0 1000)) in
  let expected = Hashtbl.fold (fun k () acc -> k :: acc) live [] |> List.sort compare in
  Alcotest.(check (list int)) "live set matches" expected found;
  Txn.commit db.Db.txns txn;
  check_tree t

let test_stats_counters () =
  let db, t = make_tree () in
  (* The metrics registry is process-global: measure deltas over this
     test's operations. *)
  let snap0 = Gist_obs.Metrics.snapshot () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 100 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  ignore (Gist.search t txn (B.range 1 50));
  (* A streaming scan counts once at its entry, like its one-shot
     counterpart. *)
  let c = Cursor.open_ t txn (B.range 1 50) in
  while Cursor.next c <> None do
    ()
  done;
  Cursor.close c;
  ignore (Gist.delete t txn ~key:(B.key 7) ~rid:(rid 7));
  Txn.commit db.Db.txns txn;
  let ro = Db.begin_ro db in
  ignore (Gist.snapshot_search t ro (B.range 1 50));
  ignore (Cursor.snap_next (Cursor.open_snapshot t ro (B.range 1 50)));
  Db.end_ro db ro;
  Gist.vacuum t;
  let snap1 = Gist_obs.Metrics.snapshot () in
  let d name =
    Gist_obs.Metrics.counter_value snap1 name - Gist_obs.Metrics.counter_value snap0 name
  in
  Alcotest.(check int) "inserts counted" 100 (d "gist.insert");
  Alcotest.(check int) "searches counted: search, cursor, two snapshot scans" 4 (d "gist.search");
  Alcotest.(check int) "snapshot scans counted" 2 (d "mvcc.snapshot_scan");
  Alcotest.(check int) "deletes counted" 1 (d "gist.delete");
  Alcotest.(check bool) "splits happened" true (d "gist.split" > 0);
  Alcotest.(check bool) "root grew" true (d "gist.root_grow" >= 1);
  Alcotest.(check bool) "bp updates happened" true (d "gist.bp_update" > 0);
  Alcotest.(check int) "gc reclaimed the mark" 1 (d "gist.gc_entry")

let suite =
  [
    Alcotest.test_case "empty search" `Quick test_empty_search;
    Alcotest.test_case "insert+search" `Quick test_insert_search;
    Alcotest.test_case "bulk insert splits" `Quick test_bulk_insert_splits;
    Alcotest.test_case "random order insert" `Quick test_reverse_and_random_order;
    Alcotest.test_case "delete basic" `Quick test_delete_basic;
    Alcotest.test_case "abort insert" `Quick test_abort_insert;
    Alcotest.test_case "abort delete" `Quick test_abort_delete;
    Alcotest.test_case "abort with splits" `Quick test_abort_with_splits;
    Alcotest.test_case "duplicate keys (non-unique)" `Quick test_duplicate_keys_nonunique;
    Alcotest.test_case "savepoint partial rollback" `Quick test_savepoint_partial_rollback;
    Alcotest.test_case "mixed workload invariants" `Quick test_mixed_workload_invariants;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
  ]
