(* Decoded-node cache (frame-attached) tests.

   The cache stores each frame's last decoded [Node.t] stamped with the
   page LSN it reflects; [Node.get] serves hits, write_node writes
   through. These tests pin the three properties the design rests on:
   coherence (the cached node always fingerprints equal to a fresh decode
   of the image), invalidation at restart (recovery redo mutates raw
   images, so no pre-restart decode may survive [Recovery.restart]), and
   effectiveness (repeat traversals hit; a pool created with
   [~node_cache:false] really has none). *)

open Gist_core
module B = Gist_ams.Btree_ext
module Rid = Gist_storage.Rid
module Page_id = Gist_storage.Page_id
module Buffer_pool = Gist_storage.Buffer_pool
module Latch = Gist_storage.Latch
module Txn = Gist_txn.Txn_manager
module Metrics = Gist_obs.Metrics
module Dyn = Gist_util.Dyn

let rid i = Rid.make ~page:1000 ~slot:i

let config =
  { Db.default_config with Db.max_entries = 8; pool_capacity = 64; page_size = 1024 }

let make () =
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  (db, t)

let keys_of t db =
  let txn = Txn.begin_txn db.Db.txns in
  let r =
    Gist.search t txn (B.range min_int max_int)
    |> List.map (fun (k, _) -> B.key_value k)
    |> List.sort compare
  in
  Txn.commit db.Db.txns txn;
  r

let counter name = Metrics.counter_value (Metrics.snapshot ()) name

(* Walk every reachable page; fail if any frame's cached node disagrees
   with a fresh decode of its image. *)
let check_coherent db t =
  let rec go pid =
    let children =
      Buffer_pool.with_page db.Db.pool pid Latch.S (fun frame ->
          match Node.read B.ext frame with
          | exception Gist_util.Codec.Corrupt _ -> [] (* retired page *)
          | node ->
            if not (Node.cache_coherent B.ext frame) then
              Alcotest.failf "stale cached node on page %d" (Page_id.to_int pid);
            (match node.Node.entries with
            | Node.Leaf _ -> []
            | Node.Internal d -> Dyn.fold (fun l e -> e.Node.ie_child :: l) [] d))
    in
    List.iter go children
  in
  go (Gist.root t)

(* --- qcheck: coherence after arbitrary inserts/deletes/splits/GC --- *)

type op = Insert of int | Delete of int | Vacuum

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 20 160)
      (frequency
         [
           (6, map (fun k -> Insert k) (int_range 0 200));
           (3, map (fun k -> Delete k) (int_range 0 200));
           (1, return Vacuum);
         ]))

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Insert k -> Printf.sprintf "i%d" k
             | Delete k -> Printf.sprintf "d%d" k
             | Vacuum -> "v")
           ops))
    gen_ops

let prop_coherent_after_ops =
  QCheck.Test.make ~name:"node cache coherent after random ops" ~count:60 arb_ops (fun ops ->
      let db, t = make () in
      let next_rid = ref 0 in
      let live = Hashtbl.create 64 in
      List.iter
        (fun op ->
          let txn = Txn.begin_txn db.Db.txns in
          (match op with
          | Insert k ->
            incr next_rid;
            Gist.insert t txn ~key:(B.key k) ~rid:(rid !next_rid);
            Hashtbl.replace live k !next_rid
          | Delete k -> (
            match Hashtbl.find_opt live k with
            | Some r ->
              ignore (Gist.delete t txn ~key:(B.key k) ~rid:(rid r));
              Hashtbl.remove live k
            | None -> ())
          | Vacuum -> Gist.vacuum t);
          Txn.commit db.Db.txns txn)
        ops;
      check_coherent db t;
      true)

(* --- restart drops the cache (the stale-decode bug this would catch) --- *)

let test_restart_invalidates () =
  let db, t = make () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 60 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  Db.checkpoint db;
  (* Warm the cache, then poison a cached leaf in memory WITHOUT writing
     the image — exactly the divergence a restart's raw-image redo can
     cause. If restart served surviving caches, the phantom key would be
     visible afterwards. *)
  ignore (keys_of t db);
  let poisoned = ref 0 in
  let rec poison pid =
    Buffer_pool.with_page db.Db.pool pid Latch.X (fun frame ->
        let node = Node.get B.ext frame in
        match node.Node.entries with
        | Node.Leaf _ ->
          Node.add_leaf_entry node
            {
              Node.le_key = B.key 99_999;
              le_rid = rid 99_999;
              le_creator = Gist_util.Txn_id.none;
              le_deleter = Gist_util.Txn_id.none;
            };
          incr poisoned;
          []
        | Node.Internal d -> Dyn.fold (fun l e -> e.Node.ie_child :: l) [] d)
    |> List.iter poison
  in
  poison (Gist.root t);
  Alcotest.(check bool) "poisoned at least one cached leaf" true (!poisoned > 0);
  let inval_before = counter "bp.node_cache.invalidate" in
  (* Restart the live (warm-pool) db: recovery must drop every cached
     decode before replaying. *)
  Recovery.restart db B.ext;
  let t' = Gist.open_existing db B.ext ~root:(Gist.root t) () in
  Alcotest.(check bool) "restart invalidated cached nodes" true
    (counter "bp.node_cache.invalidate" > inval_before);
  Alcotest.(check (list int)) "no phantom key after restart"
    (List.init 60 (fun i -> i + 1))
    (keys_of t' db);
  check_coherent db t'

(* --- hit rate and the off knob --- *)

let test_hit_rate () =
  (* Pool must hold the whole tree: the cache lives with the frame, so a
     shard-LRU eviction is a legitimate (counted) invalidation, not a
     hit-rate bug. *)
  let db = Db.create ~config:{ config with Db.pool_capacity = 512 } () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 300 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  ignore (keys_of t db);
  (* Warm: every page decoded once. Re-scan many times; pool (64 frames)
     holds the whole tree, so repeats must be nearly all hits. *)
  let h0 = counter "bp.node_cache.hit" and m0 = counter "bp.node_cache.miss" in
  for _ = 1 to 20 do
    ignore (keys_of t db)
  done;
  let hits = counter "bp.node_cache.hit" - h0
  and misses = counter "bp.node_cache.miss" - m0 in
  Alcotest.(check bool) "repeat scans hit the cache" true (hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "hit rate > 90%% (hits=%d misses=%d)" hits misses)
    true
    (float_of_int hits /. float_of_int (hits + misses) > 0.9)

let test_cache_off () =
  (* One formatted leaf page in a bare pool, with the decoded node
     installed through [cache_node]. *)
  let frame_with_cached_node ~node_cache =
    let disk = Gist_storage.Disk.create ~page_size:1024 () in
    let pool = Buffer_pool.create ~node_cache ~capacity:8 ~disk ~force_log:ignore () in
    let frame = Buffer_pool.pin_new pool (Page_id.of_int 1) in
    let node = Node.make_leaf ~id:(Page_id.of_int 1) ~bp:(B.range 0 100) in
    Node.write B.ext node frame;
    Buffer_pool.cache_node frame (Obj.repr node);
    frame
  in
  Alcotest.(check bool) "control: the default pool serves the installed node" true
    (Option.is_some (Buffer_pool.cached_node (frame_with_cached_node ~node_cache:true)));
  let frame = frame_with_cached_node ~node_cache:false in
  Alcotest.(check bool) "cache_node is a no-op: cached_node is None" true
    (Option.is_none (Buffer_pool.cached_node frame));
  let h0 = counter "bp.node_cache.hit" and m0 = counter "bp.node_cache.miss" in
  for _ = 1 to 5 do
    ignore (Node.get B.ext frame)
  done;
  Alcotest.(check int) "Node.get never hits" h0 (counter "bp.node_cache.hit");
  Alcotest.(check bool) "every Node.get decodes" true (counter "bp.node_cache.miss" - m0 >= 5);
  Alcotest.(check bool) "Node.get installs nothing" true
    (Option.is_none (Buffer_pool.cached_node frame))

(* --- eviction recycles the cache with the frame --- *)

let test_eviction_invalidates () =
  (* Tiny pool: scanning a tree bigger than the pool forces recycling;
     coherence must survive frames being rebound to other pages. *)
  let small = { config with Db.pool_capacity = 16 } in
  let db = Db.create ~config:small () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 400 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  for _ = 1 to 3 do
    Alcotest.(check int) "scan sees all keys" 400 (List.length (keys_of t db))
  done;
  check_coherent db t

let suite =
  [
    Alcotest.test_case "restart invalidates cached nodes" `Quick test_restart_invalidates;
    Alcotest.test_case "repeat traversals hit (>90%)" `Quick test_hit_rate;
    Alcotest.test_case "node_cache=false disables the cache" `Quick test_cache_off;
    Alcotest.test_case "eviction recycles cache with frame" `Quick test_eviction_invalidates;
    QCheck_alcotest.to_alcotest prop_coherent_after_ops;
  ]
