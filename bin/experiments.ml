(* Experiment driver: regenerates every figure/table-shaped result in
   EXPERIMENTS.md (see DESIGN.md §4 for the experiment index).

   Usage:  experiments [E1|E2|...|E12|E5b|E6b|F5|all] [--duration s] [--domains n,n,...]

   A broken tree, or an E12 recovery oracle violation, fails the experiment
   (exit 1); an unknown experiment name exits 2.
*)

open Gist_core
open Gist_harness
module B = Gist_ams.Btree_ext
module R = Gist_ams.Rtree_ext
module Rid = Gist_storage.Rid
module Txn = Gist_txn.Txn_manager
module Lock_manager = Gist_txn.Lock_manager
module Log = Gist_wal.Log_manager
module Xoshiro = Gist_util.Xoshiro
module Clock = Gist_util.Clock

let rid i = Rid.make ~page:1000 ~slot:i

let small_tree_config =
  { Db.default_config with Db.max_entries = 16; pool_capacity = 4096; page_size = 2048 }

let make_btree ?(config = small_tree_config) () =
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  (db, t)

let with_retry db work =
  let rec go n =
    let txn = Txn.begin_txn db.Db.txns in
    match work txn with
    | v ->
      Txn.commit db.Db.txns txn;
      v
    | exception Lock_manager.Deadlock _ ->
      Txn.abort db.Db.txns txn;
      if n > 100 then failwith "experiments: retry storm" else go (n + 1)
  in
  go 0

(* A broken tree voids the experiment's numbers, so it fails the run. *)
let check_tree t label =
  let report = Tree_check.check t in
  if not (Tree_check.ok report) then begin
    Format.eprintf "%s FAILED: broken tree: %a@." label Tree_check.pp report;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E1: Figures 1 & 2 — lost keys without the link protocol             *)
(* ------------------------------------------------------------------ *)

let e1 ~duration_s =
  Report.section "E1  Figure 1/2: lost keys under concurrent splits";
  print_endline
    "Readers repeatedly scan 2000 preloaded keys while writers split nodes by\n\
     inserting interleaved keys. Both read variants take per-node S latches and\n\
     no locks; they differ ONLY in NSN/rightlink split compensation.";
  let run_variant name search_fn =
    let db, t = make_btree () in
    let setup = Txn.begin_txn db.Db.txns in
    (* Preload even keys so writer inserts (odd keys) split nodes holding them. *)
    for i = 0 to 1999 do
      Gist.insert t setup ~key:(B.key (i * 10)) ~rid:(rid (i * 10))
    done;
    Txn.commit db.Db.txns setup;
    let stop = Atomic.make false in
    let writers =
      List.init 3 (fun w ->
          Domain.spawn (fun () ->
              let rng = Xoshiro.create (100 + w) in
              let seq = ref 0 in
              while not (Atomic.get stop) do
                (* Duplicate keys are fine in a non-unique index; RIDs must
                   be fresh. Keys interleave with the preloaded ones so
                   splits relocate them. *)
                let k = Xoshiro.int rng 19_990 + 1 in
                let k = if k mod 10 = 0 then k + 1 else k in
                incr seq;
                with_retry db (fun txn ->
                    Gist.insert t txn ~key:(B.key k) ~rid:(Rid.make ~page:(2000 + w) ~slot:!seq))
              done))
    in
    let scans = ref 0 and lossy_scans = ref 0 and max_lost = ref 0 in
    let t0 = Clock.now_ns () in
    while Clock.elapsed_s t0 < duration_s do
      let found = search_fn t (B.range 0 19_990) in
      let preloaded_found =
        List.fold_left
          (fun n (k, _) -> if B.key_value k mod 10 = 0 then n + 1 else n)
          0 found
      in
      incr scans;
      if preloaded_found < 2000 then begin
        incr lossy_scans;
        max_lost := max !max_lost (2000 - preloaded_found)
      end
    done;
    Atomic.set stop true;
    List.iter Domain.join writers;
    check_tree t "E1";
    (name, !scans, !lossy_scans, !max_lost)
  in
  let nolink = run_variant "no-link (Figure 1)" Gist_baseline.Nolink.search in
  let link = run_variant "NSN/rightlink (Figure 2)" Gist_baseline.Nolink.search_with_links in
  Report.table ~header:[ "variant"; "scans"; "scans w/ lost keys"; "max lost in one scan" ]
    (List.map
       (fun (n, s, l, m) -> [ n; Report.i s; Report.i l; Report.i m ])
       [ nolink; link ]);
  print_endline "Expected shape: the no-link variant loses keys; the link variant never does."

(* ------------------------------------------------------------------ *)
(* E2/E3: throughput scaling, link protocol vs coarse locking          *)
(* ------------------------------------------------------------------ *)

let throughput_cell ~variant ~domains ~duration_s ~io_delay_ns ~pool_capacity =
  let config = { small_tree_config with Db.io_delay_ns; pool_capacity } in
  let db, t = make_btree ~config () in
  Workload.Btree.preload db t ~n:20_000;
  let coarse = Gist_baseline.Coarse_lock.wrap t in
  let body ~worker ~rng ~txn =
    let op = Workload.Btree.mixed ~worker ~space:20_000 ~read_pct:50 ~scan_width:10 ~theta:0.0 rng in
    match variant with
    | `Link -> Workload.Btree.apply t txn op
    | `Coarse -> (
      match op with
      | Workload.Btree.Search q -> ignore (Gist_baseline.Coarse_lock.search coarse txn q)
      | Workload.Btree.Insert (k, rid) -> Gist_baseline.Coarse_lock.insert coarse txn ~key:k ~rid
      | Workload.Btree.Delete (k, rid) ->
        ignore (Gist_baseline.Coarse_lock.delete coarse txn ~key:k ~rid))
  in
  let stats = Driver.run_txn_ops ~db ~domains ~duration_s ~seed:(domains * 7) body in
  check_tree t "E2";
  stats.Driver.throughput

let e2 ~duration_s ~domain_list =
  Report.section "E2  Claim C1: no latches across I/O => concurrent operations overlap waits";
  print_endline
    "B-tree GiST, 20k preloaded keys, 50% range scans / 50% insert+delete.\n\
     'coarse' wraps every operation in a tree-global reader-writer latch (the\n\
     [BS77] subtree-locking degenerate case), so it holds that latch across\n\
     every I/O. In the I/O-bound setting the buffer pool is smaller than the\n\
     working set and each miss blocks the calling domain for the simulated\n\
     device latency. The in-memory rows scale only up to the host's CPU\n\
     count; the concurrency claim shows up in the I/O-bound rows, where the\n\
     link protocol overlaps waits and coarse locking serializes them.";
  Printf.printf "This host recommends %d domains (Domain.recommended_domain_count).\n"
    (Domain.recommended_domain_count ());
  List.iter
    (fun (label, io_delay_ns, pool_capacity) ->
      Printf.printf "\n%s (I/O delay %d ns, pool %d frames)\n" label io_delay_ns pool_capacity;
      let rows =
        List.map
          (fun domains ->
            let link =
              throughput_cell ~variant:`Link ~domains ~duration_s ~io_delay_ns ~pool_capacity
            in
            let coarse =
              throughput_cell ~variant:`Coarse ~domains ~duration_s ~io_delay_ns ~pool_capacity
            in
            [
              Report.i domains;
              Report.f0 link;
              Report.f0 coarse;
              Report.f2 (link /. coarse);
            ])
          domain_list
      in
      Report.table ~header:[ "domains"; "link ops/s"; "coarse ops/s"; "link/coarse" ] rows)
    [ ("in-memory", 0, 4096); ("I/O-bound", 200_000, 160) ];
  print_endline
    "Expected shape: I/O-bound link throughput grows with domains (overlapped\n\
     waits) while coarse stays flat; in-memory rows stay roughly equal on one CPU."

let e3 ~duration_s ~domain_list =
  Report.section "E3  Claim C1 on a non-linear key space (R-tree, I/O-bound)";
  let cell ~variant ~domains =
    let config =
      { small_tree_config with Db.io_delay_ns = 200_000; pool_capacity = 160 }
    in
    let db = Db.create ~config () in
    let t = Gist.create db R.ext ~empty_bp:R.Empty () in
    Workload.Rtree.preload db t ~n:10_000 ~extent:1000.0 ~seed:5;
    let coarse = Gist_baseline.Coarse_lock.wrap t in
    let body ~worker ~rng ~txn =
      let op = Workload.Rtree.mixed ~worker ~extent:1000.0 ~read_pct:50 ~window:20.0 rng in
      match variant with
      | `Link -> Workload.Rtree.apply t txn op
      | `Coarse -> (
        match op with
        | Workload.Rtree.Search q -> ignore (Gist_baseline.Coarse_lock.search coarse txn q)
        | Workload.Rtree.Insert (k, rid) ->
          Gist_baseline.Coarse_lock.insert coarse txn ~key:k ~rid)
    in
    let stats = Driver.run_txn_ops ~db ~domains ~duration_s ~seed:(domains * 13) body in
    check_tree t "E3";
    stats.Driver.throughput
  in
  let rows =
    List.map
      (fun domains ->
        let link = cell ~variant:`Link ~domains in
        let coarse = cell ~variant:`Coarse ~domains in
        [ Report.i domains; Report.f0 link; Report.f0 coarse; Report.f2 (link /. coarse) ])
      domain_list
  in
  Report.table ~header:[ "domains"; "link ops/s"; "coarse ops/s"; "link/coarse" ] rows;
  print_endline
    "Expected shape: as in E2 — rectangles have no linear order, so key-range\n\
     techniques are unavailable, yet the link protocol still overlaps I/O."

(* ------------------------------------------------------------------ *)
(* E4: hybrid vs pure predicate locking — conflict check cost          *)
(* ------------------------------------------------------------------ *)

let e4 () =
  Report.section "E4  Claim C2: hybrid conflict check is O(attached-at-leaf), pure is O(all)";
  print_endline
    "N disjoint narrow scans hold predicates. An insert far from all of them\n\
     checks for conflicts: the hybrid checks its target leaf's attachment\n\
     list; pure predicate locking (§4.2) walks the global table.";
  let rows =
    List.map
      (fun n_preds ->
        let db, t = make_btree () in
        Workload.Btree.preload db t ~n:50_000;
        let pure = Gist_baseline.Pure_predicate.create () in
        (* N scanners, each with a narrow range, transactions left open. *)
        let scanners =
          List.init n_preds (fun i ->
              let txn = Txn.begin_txn db.Db.txns in
              let q = B.range (i * 150) ((i * 150) + 10) in
              ignore (Gist.search t txn q);
              Gist_baseline.Pure_predicate.register pure ~owner:(Txn.id txn) q;
              txn)
        in
        (* The insert's conflict check for a key away from every scan. *)
        let key = B.key 49_999 in
        let pm = Gist.predicate_manager t in
        (* Locate the target leaf once (read-only descent). *)
        let leaf =
          let rec descend pid =
            Gist_storage.Buffer_pool.with_page db.Db.pool pid Gist_storage.Latch.S
              (fun frame ->
                let node = Node.read B.ext frame in
                if Node.is_leaf node then `Leaf pid
                else
                  `Child
                    (Gist_util.Dyn.fold
                       (fun best e ->
                         match best with Some _ -> best | None -> Some e.Node.ie_child)
                       None (Node.internal_entries node)
                    |> Option.get))
            |> function
            | `Leaf p -> p
            | `Child c -> descend c
          in
          descend (Gist.root t)
        in
        let iterations = 20_000 in
        let time f =
          let t0 = Clock.now_ns () in
          for _ = 1 to iterations do
            f ()
          done;
          Float.of_int (Clock.now_ns () - t0) /. Float.of_int iterations
        in
        let hybrid_ns =
          time (fun () ->
              ignore
                (List.filter
                   (fun p ->
                     B.ext.Ext.consistent (B.key 49_999 |> fun k -> k)
                       (Gist_pred.Predicate_manager.formula p))
                   (Gist_pred.Predicate_manager.attached pm leaf)))
        in
        let pure_ns =
          time (fun () ->
              ignore
                (Gist_baseline.Pure_predicate.conflicting pure
                   ~consistent:B.ext.Ext.consistent ~key ~exclude:Gist_util.Txn_id.none))
        in
        List.iter (fun txn -> Txn.commit db.Db.txns txn) scanners;
        [
          Report.i n_preds;
          Report.f0 hybrid_ns;
          Report.f0 pure_ns;
          Report.f2 (pure_ns /. Float.max hybrid_ns 1.0);
        ])
      [ 1; 4; 16; 64; 256 ]
  in
  Report.table
    ~header:[ "active scan preds"; "hybrid ns/check"; "pure ns/check"; "pure/hybrid" ]
    rows;
  print_endline
    "Expected shape: pure check cost grows linearly with the predicate count;\n\
     the hybrid check stays flat (the target leaf has few or no attachments)."

(* ------------------------------------------------------------------ *)
(* E5: repeatable read / phantoms                                      *)
(* ------------------------------------------------------------------ *)

let e5 () =
  Report.section "E5  Claim C3: repeatable read — phantom counts over adversarial trials";
  let trials = 50 in
  (* Strawman: record locks only (scan without predicates — the dirty-read
     link scan stands in for "2PL on records, no phantom protection"). *)
  let run_strawman () =
    let phantoms = ref 0 in
    for trial = 1 to trials do
      let db, t = make_btree () in
      let setup = Txn.begin_txn db.Db.txns in
      for i = 0 to 50 do
        Gist.insert t setup ~key:(B.key (i * 10)) ~rid:(rid (i * 10))
      done;
      Txn.commit db.Db.txns setup;
      let first = List.length (Gist_baseline.Nolink.search_with_links t (B.range 100 200)) in
      (* Concurrent committed insert into the scanned range. *)
      with_retry db (fun txn -> Gist.insert t txn ~key:(B.key (105 + trial)) ~rid:(rid (10_000 + trial)));
      let second = List.length (Gist_baseline.Nolink.search_with_links t (B.range 100 200)) in
      if first <> second then incr phantoms
    done;
    !phantoms
  in
  let run_protocol () =
    let phantoms = ref 0 in
    for trial = 1 to trials do
      let db, t = make_btree () in
      let setup = Txn.begin_txn db.Db.txns in
      for i = 0 to 50 do
        Gist.insert t setup ~key:(B.key (i * 10)) ~rid:(rid (i * 10))
      done;
      Txn.commit db.Db.txns setup;
      let t1 = Txn.begin_txn db.Db.txns in
      let first = List.length (Gist.search t t1 (B.range 100 200)) in
      (* The inserter runs concurrently; it must block until t1 ends. *)
      let d =
        Domain.spawn (fun () ->
            with_retry db (fun txn ->
                Gist.insert t txn ~key:(B.key (105 + trial)) ~rid:(rid (10_000 + trial))))
      in
      (* Give it every opportunity to (incorrectly) slip in. *)
      let t0 = Clock.now_ns () in
      while Clock.elapsed_s t0 < 0.01 do
        Domain.cpu_relax ()
      done;
      let second = List.length (Gist.search t t1 (B.range 100 200)) in
      if first <> second then incr phantoms;
      Txn.commit db.Db.txns t1;
      Domain.join d
    done;
    !phantoms
  in
  let s = run_strawman () in
  let p = run_protocol () in
  Report.table ~header:[ "mechanism"; "trials"; "phantoms" ]
    [
      [ "record 2PL only (no predicates)"; Report.i trials; Report.i s ];
      [ "hybrid locking (paper)"; Report.i trials; Report.i p ];
    ];
  print_endline "Expected shape: the strawman exhibits phantoms on every trial; the protocol none."

(* E5b: the price of Degree 3 — repeatable read vs read committed under
   scan/insert contention on the same key range. *)
let e5b ~duration_s ~domain_list =
  Report.section "E5b  Ablation: isolation level vs throughput under contention";
  print_endline
    "Scans and inserts share one hot range. Degree 3 scans leave predicates\n\
     that contending inserts must block on (then deadlock-retry); Degree 2\n\
     scans take instant locks and no predicates.";
  let cell ~isolation ~domains =
    let db, t = make_btree () in
    Workload.Btree.preload db t ~n:2_000;
    let body ~worker ~rng ~txn =
      ignore worker;
      (* Multi-operation transactions: Degree-3 predicates and read locks
         accumulate across the whole transaction, which is where blocking
         actually bites. *)
      for _ = 1 to 10 do
        if Xoshiro.int rng 100 < 50 then begin
          let lo = Xoshiro.int rng 1_900 in
          ignore (Gist.search ~isolation t txn (B.range lo (lo + 20)))
        end
        else begin
          let k = Xoshiro.int rng 2_000 in
          if Gist.delete t txn ~key:(B.key k) ~rid:(Workload.Btree.rid_of_key ~worker:0 k)
          then Gist.insert t txn ~key:(B.key k) ~rid:(Workload.Btree.rid_of_key ~worker:0 k)
        end
      done
    in
    let stats = Driver.run_txn_ops ~db ~domains ~duration_s ~seed:(domains * 11) body in
    check_tree t "E5b";
    (stats.Driver.throughput, stats.Driver.aborts)
  in
  let rows =
    List.map
      (fun domains ->
        let rr, rr_aborts = cell ~isolation:`Repeatable_read ~domains in
        let rc, rc_aborts = cell ~isolation:`Read_committed ~domains in
        [
          Report.i domains;
          Report.f0 rr;
          Report.i rr_aborts;
          Report.f0 rc;
          Report.i rc_aborts;
          Report.f2 (rc /. rr);
        ])
      domain_list
  in
  Report.table
    ~header:[ "domains"; "RR txns/s"; "RR aborts"; "RC txns/s"; "RC aborts"; "RC/RR" ]
    rows;
  print_endline
    "Expected shape: read committed sustains higher throughput and fewer\n\
     deadlock aborts as contention (domains) grows — the concurrency the\n\
     paper's Degree-3 machinery deliberately trades away for repeatability."

(* ------------------------------------------------------------------ *)
(* E6: crash recovery — correctness sweep and restart cost             *)
(* ------------------------------------------------------------------ *)

let e6 () =
  Report.section "E6  Claim C4 / Table 1: recovery correctness and restart cost";
  let trial ~ops ~seed =
    let config = { small_tree_config with Db.max_entries = 8; page_size = 1024 } in
    let db = Db.create ~config () in
    let t = Gist.create db B.ext ~empty_bp:B.Empty () in
    let rng = Xoshiro.create seed in
    let committed = Hashtbl.create 256 in
    let per_txn = 25 in
    for batch = 0 to (ops / per_txn) - 1 do
      let txn = Txn.begin_txn db.Db.txns in
      for _ = 1 to per_txn do
        let k = Xoshiro.int rng 2000 in
        if Xoshiro.int rng 4 > 0 then begin
          if not (Hashtbl.mem committed k) then begin
            Gist.insert t txn ~key:(B.key k) ~rid:(rid k);
            Hashtbl.replace committed k ()
          end
        end
        else if Hashtbl.mem committed k then begin
          ignore (Gist.delete t txn ~key:(B.key k) ~rid:(rid k));
          Hashtbl.remove committed k
        end
      done;
      Txn.commit db.Db.txns txn;
      if batch mod 10 = 9 then Db.checkpoint db;
      if Xoshiro.int rng 3 = 0 then Gist_storage.Buffer_pool.flush_all db.Db.pool
    done;
    (* In-flight loser + random crash point. *)
    let loser = Txn.begin_txn db.Db.txns in
    for i = 3000 to 3040 do
      Gist.insert t loser ~key:(B.key i) ~rid:(rid i)
    done;
    let durable = Int64.to_int (Log.durable_lsn db.Db.log) in
    let high = Int64.to_int (Log.last_lsn db.Db.log) in
    Log.force db.Db.log (Int64.of_int (durable + Xoshiro.int rng (high - durable + 1)));
    let log_records = Log.appended db.Db.log in
    let root = Gist.root t in
    let db' = Db.crash db in
    let t0 = Clock.now_ns () in
    Recovery.restart db' B.ext;
    let restart_ms = Clock.elapsed_s t0 *. 1000.0 in
    let t' = Gist.open_existing db' B.ext ~root () in
    let txn = Txn.begin_txn db'.Db.txns in
    let got =
      Gist.search t' txn (B.range 0 5000)
      |> List.map (fun (k, _) -> B.key_value k)
      |> List.sort compare
    in
    Txn.commit db'.Db.txns txn;
    let expected = Hashtbl.fold (fun k () acc -> k :: acc) committed [] |> List.sort compare in
    let intact = got = expected in
    let consistent = Tree_check.ok (Tree_check.check t') in
    (log_records, restart_ms, intact, consistent)
  in
  let rows =
    List.concat_map
      (fun ops ->
        List.map
          (fun seed ->
            let records, ms, intact, consistent = trial ~ops ~seed in
            [
              Report.i ops;
              Report.i seed;
              Report.i records;
              Report.f2 ms;
              (if intact then "yes" else "NO");
              (if consistent then "yes" else "NO");
            ])
          [ 1; 2; 3 ])
      [ 500; 2000; 8000 ]
  in
  Report.table
    ~header:[ "ops"; "seed"; "log records"; "restart ms"; "committed intact"; "tree consistent" ]
    rows;
  print_endline
    "Expected shape: every row intact+consistent; restart time grows with log length\n\
     (bounded by checkpoints)."

(* E6b: checkpoint-interval ablation — restart cost is bounded by the
   distance to the last checkpoint, not total log length. *)
let e6b () =
  Report.section "E6b  Ablation: checkpoint interval vs restart cost";
  print_endline
    "217 batches of 20 inserts; checkpoints (with a background-writer flush)\n\
     every N batches; crash after the last batch. Restart cost tracks the\n\
     distance from the crash back to the last checkpoint anchor.";
  let trial ~ckpt_every =
    let config = { small_tree_config with Db.max_entries = 8; page_size = 1024 } in
    let db = Db.create ~config () in
    let t = Gist.create db B.ext ~empty_bp:B.Empty () in
    let batches = 217 and per_batch = 20 in
    for batch = 0 to batches - 1 do
      let txn = Txn.begin_txn db.Db.txns in
      for i = 0 to per_batch - 1 do
        let k = (batch * per_batch) + i in
        Gist.insert t txn ~key:(B.key k) ~rid:(rid k)
      done;
      Txn.commit db.Db.txns txn;
      if ckpt_every > 0 && batch mod ckpt_every = ckpt_every - 1 then begin
        (* Background-writer behavior: flush dirty pages, then checkpoint,
           so the recorded dirty page table is small and redo starts near
           the anchor. *)
        Gist_storage.Buffer_pool.flush_all db.Db.pool;
        Db.checkpoint db
      end
    done;
    let log_records = Log.appended db.Db.log in
    let root = Gist.root t in
    let db' = Db.crash db in
    let t0 = Clock.now_ns () in
    Recovery.restart db' B.ext;
    let restart_ms = Clock.elapsed_s t0 *. 1000.0 in
    let t' = Gist.open_existing db' B.ext ~root () in
    let txn = Txn.begin_txn db'.Db.txns in
    let n = List.length (Gist.search t' txn (B.range 0 10_000)) in
    Txn.commit db'.Db.txns txn;
    check_tree t' "E6b";
    (log_records, restart_ms, n = batches * per_batch)
  in
  let rows =
    List.map
      (fun ckpt_every ->
        let records, ms, intact = trial ~ckpt_every in
        [
          (if ckpt_every = 0 then "never" else Printf.sprintf "every %d txns" ckpt_every);
          Report.i records;
          Report.f2 ms;
          (if intact then "yes" else "NO");
        ])
      [ 0; 150; 60; 10 ]
  in
  Report.table ~header:[ "checkpoint"; "log records"; "restart ms"; "intact" ] rows;
  print_endline
    "Expected shape: identical recovered state; restart time drops as checkpoints\n\
     get denser (analysis+redo start from the last anchor, not the log head)."

(* ------------------------------------------------------------------ *)
(* E7: logical deletion + garbage collection                           *)
(* ------------------------------------------------------------------ *)

let e7 () =
  Report.section "E7  Claim C5: logical deletion and the cost GC reclaims";
  let db, t = make_btree () in
  Workload.Btree.preload db t ~n:30_000;
  let scan_cost () =
    let t0 = Clock.now_ns () in
    let n = with_retry db (fun txn -> List.length (Gist.search t txn (B.range 0 30_000))) in
    (Float.of_int (Clock.now_ns () - t0) /. 1e6, n)
  in
  let ms0, live0 = scan_cost () in
  let row label =
    let ms, live = scan_cost () in
    [ label; Report.i (Gist.entry_count t); Report.i live; Report.i (Gist.leaf_count t); Report.f2 ms ]
  in
  ignore (ms0, live0);
  let r1 = row "loaded" in
  (* Delete 80% logically. *)
  let txn = Txn.begin_txn db.Db.txns in
  for k = 0 to 23_999 do
    ignore (Gist.delete t txn ~key:(B.key k) ~rid:(Workload.Btree.rid_of_key ~worker:0 k))
  done;
  Txn.commit db.Db.txns txn;
  let r2 = row "after logical delete (marks in place)" in
  Gist.vacuum t;
  let r3 = row "after vacuum (GC + node deletion)" in
  check_tree t "E7";
  Report.table ~header:[ "phase"; "physical entries"; "live"; "leaves"; "full scan ms" ]
    [ r1; r2; r3 ];
  print_endline
    "Expected shape: marks keep physical entries and scan cost high until GC;\n\
     vacuum removes them, shrinks the leaf count, and restores scan cost."

(* ------------------------------------------------------------------ *)
(* E8: NSN source ablation (§10.1)                                     *)
(* ------------------------------------------------------------------ *)

let e8 ~duration_s ~domain_list =
  Report.section "E8  Claim C6: NSN/memo source ablation (§10.1)";
  print_endline
    "Insert-heavy workload. 'global counter' reads the log manager's last LSN\n\
     (synchronized) at every pointer memo; 'parent LSN' uses the already-latched\n\
     parent page's LSN; 'dedicated counter' is the R-link tree design.";
  let cell ~nsn_source ~memo_source ~domains =
    let config = { small_tree_config with Db.nsn_source; memo_source } in
    let db, t = make_btree ~config () in
    Workload.Btree.preload db t ~n:5_000;
    let body ~worker ~rng ~txn =
      let op = Workload.Btree.mixed ~worker ~space:5_000 ~read_pct:20 ~scan_width:5 ~theta:0.0 rng in
      Workload.Btree.apply t txn op
    in
    let stats = Driver.run_txn_ops ~db ~domains ~duration_s ~seed:(domains * 3) body in
    check_tree t "E8";
    stats.Driver.throughput
  in
  let variants =
    [
      ("LSN + global-counter memo", Db.Nsn_from_lsn, Db.Memo_global);
      ("LSN + parent-LSN memo (paper)", Db.Nsn_from_lsn, Db.Memo_parent_lsn);
      ("dedicated counter (R-link)", Db.Nsn_from_counter, Db.Memo_global);
    ]
  in
  let rows =
    List.map
      (fun (name, nsn_source, memo_source) ->
        name
        :: List.map
             (fun domains -> Report.f0 (cell ~nsn_source ~memo_source ~domains))
             domain_list)
      variants
  in
  Report.table
    ~header:("variant" :: List.map (fun d -> Printf.sprintf "%dd ops/s" d) domain_list)
    rows

(* ------------------------------------------------------------------ *)
(* E9: node deletion via the drain technique                           *)
(* ------------------------------------------------------------------ *)

let e9 () =
  Report.section "E9  Claim C7: node deletion (drain technique) under concurrent scans";
  let db, t = make_btree () in
  Workload.Btree.preload db t ~n:20_000;
  let leaves0 = Gist.leaf_count t in
  (* Concurrent scans while a vacuum domain retires emptied leaves. *)
  let stop = Atomic.make false in
  let scan_errors = Atomic.make 0 in
  let scanners =
    List.init 3 (fun s ->
        Domain.spawn (fun () ->
            let rng = Xoshiro.create (50 + s) in
            while not (Atomic.get stop) do
              let lo = Xoshiro.int rng 19_000 in
              match with_retry db (fun txn -> Gist.search t txn (B.range lo (lo + 100))) with
              | _ -> ()
              | exception _ -> Atomic.incr scan_errors
            done))
  in
  let vacuumer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Gist.vacuum t;
          Domain.cpu_relax ()
        done)
  in
  (* Delete nearly everything while scans and vacuum run. Small batches
     keep deadlocks with the scanners rare and cheap to retry. *)
  for batch = 0 to 379 do
    with_retry db (fun txn ->
        for k = batch * 50 to (batch * 50) + 47 do
          ignore (Gist.delete t txn ~key:(B.key k) ~rid:(Workload.Btree.rid_of_key ~worker:0 k))
        done)
  done;
  let t0 = Clock.now_ns () in
  while Clock.elapsed_s t0 < 0.3 do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  List.iter Domain.join scanners;
  Domain.join vacuumer;
  Gist.vacuum t;
  let leaves1 = Gist.leaf_count t in
  check_tree t "E9";
  Report.table ~header:[ "metric"; "value" ]
    [
      [ "leaves before"; Report.i leaves0 ];
      [ "leaves after deletes+vacuum"; Report.i leaves1 ];
      [ "scan errors (dangling pointers)"; Report.i (Atomic.get scan_errors) ];
      [ "live entries remaining"; Report.i (Gist.entry_count t) ];
    ];
  print_endline "Expected shape: leaves shrink dramatically; zero scan errors."

(* ------------------------------------------------------------------ *)
(* E10: unique-index insert race (§8)                                  *)
(* ------------------------------------------------------------------ *)

let e10 () =
  Report.section "E10  §8: racing duplicate inserts into a unique index";
  let config = { small_tree_config with Db.max_entries = 8 } in
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~unique:true ~empty_bp:B.Empty () in
  let winners = Atomic.make 0 and dups = Atomic.make 0 and deadlocks = Atomic.make 0 in
  let n_keys = 200 in
  let trace = ref [] in
  let trace_mutex = Mutex.create () in
  let trace_on = Sys.getenv_opt "E10_TRACE" <> None in
  let tr me what =
    if trace_on then begin
      Mutex.lock trace_mutex;
      trace := (me, what, Clock.now_ns ()) :: !trace;
      Mutex.unlock trace_mutex
    end
  in
  if trace_on then
    Gist.set_hook t (fun ev ->
        Mutex.lock trace_mutex;
        trace := ((Domain.self () :> int), ev, Clock.now_ns ()) :: !trace;
        Mutex.unlock trace_mutex);
  let race me =
    let rec attempt k tries =
      if tries > 30 then ()
      else begin
        tr me (Printf.sprintf "attempt k=%d try=%d" k tries);
        let txn = Txn.begin_txn db.Db.txns in
        match Gist.insert t txn ~key:(B.key k) ~rid:(Rid.make ~page:me ~slot:k) with
        | () ->
          tr me (Printf.sprintf "win k=%d (pre-commit)" k);
          Txn.commit db.Db.txns txn;
          tr me (Printf.sprintf "win k=%d (committed)" k);
          Atomic.incr winners
        | exception Gist.Duplicate_key ->
          tr me (Printf.sprintf "dup k=%d" k);
          Txn.commit db.Db.txns txn;
          Atomic.incr dups
        | exception Lock_manager.Deadlock _ ->
          tr me (Printf.sprintf "deadlock k=%d" k);
          Txn.abort db.Db.txns txn;
          Atomic.incr deadlocks;
          attempt k (tries + 1)
      end
    in
    fun () ->
      for k = 0 to n_keys - 1 do
        attempt k 0
      done
  in
  let d1 = Domain.spawn (race 1) and d2 = Domain.spawn (race 2) in
  Domain.join d1;
  Domain.join d2;
  let txn = Txn.begin_txn db.Db.txns in
  let uniqueness_ok =
    List.for_all
      (fun k ->
        let n = List.length (Gist.search t txn (B.key k)) in
        if n <> 1 then begin
          Printf.printf "  !! key %d has %d live entries\n" k n;
          let marker = Printf.sprintf "k=%d" k in
          let evs =
            List.rev !trace
            |> List.filter (fun (_, w, _) ->
                   let has_marker =
                     let ml = String.length marker and wl = String.length w in
                     let rec scan i =
                       i + ml <= wl && (String.sub w i ml = marker
                                        && (i + ml = wl || w.[i + ml] = ' ')
                                       || scan (i + 1))
                     in
                     scan 0
                   in
                   has_marker)
          in
          match evs with
          | (_, _, t0) :: _ ->
            List.rev !trace
            |> List.iter (fun (dom, ev, ts) ->
                   if abs (ts - t0) < 30_000_000 then
                     Printf.printf "     [%+9d] dom%d %s\n" (ts - t0) dom ev)
          | [] -> ()
        end;
        n = 1)
      (List.init n_keys (fun i -> i))
  in
  Txn.commit db.Db.txns txn;
  check_tree t "E10";
  Report.table ~header:[ "metric"; "value" ]
    [
      [ "keys raced (2 inserters each)"; Report.i n_keys ];
      [ "successful inserts"; Report.i (Atomic.get winners) ];
      [ "duplicate errors"; Report.i (Atomic.get dups) ];
      [ "deadlocks resolved (retried)"; Report.i (Atomic.get deadlocks) ];
      [ "every key unique at end"; (if uniqueness_ok then "yes" else "NO") ];
    ];
  print_endline
    "Expected shape: successes = keys, and successes + duplicate errors = all\n\
     attempts that were not deadlock-retried; uniqueness always holds."

(* E11: bulk loading vs incremental insertion (extension feature). *)
let e11 () =
  Report.section "E11  Bulk loading (STR) vs incremental insertion";
  let n = 50_000 in
  let config = { small_tree_config with Db.pool_capacity = 16_384 } in
  (* B-tree: sorted bulk load. *)
  let t0 = Clock.now_ns () in
  let db_b = Db.create ~config () in
  let bulk_b =
    Gist.bulk_load db_b B.ext ~fill:0.9 ~empty_bp:B.Empty
      (Array.init n (fun i -> (B.key i, rid i)))
  in
  let bulk_b_ms = Clock.elapsed_s t0 *. 1000.0 in
  let t0 = Clock.now_ns () in
  let db_bi = Db.create ~config () in
  let incr_b = Gist.create db_bi B.ext ~empty_bp:B.Empty () in
  let txn = Txn.begin_txn db_bi.Db.txns in
  for i = 0 to n - 1 do
    Gist.insert incr_b txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db_bi.Db.txns txn;
  let incr_b_ms = Clock.elapsed_s t0 *. 1000.0 in
  (* R-tree: STR-ordered bulk load vs random-order insertion. *)
  let rng = Xoshiro.create 3 in
  let pts =
    Array.init n (fun i ->
        (R.point (Xoshiro.float rng 10_000.0) (Xoshiro.float rng 10_000.0), rid i))
  in
  let t0 = Clock.now_ns () in
  let sorted = Array.copy pts in
  R.str_sort ~per_node:14 sorted;
  let db_r = Db.create ~config () in
  let bulk_r = Gist.bulk_load db_r R.ext ~fill:0.9 ~empty_bp:R.Empty sorted in
  let bulk_r_ms = Clock.elapsed_s t0 *. 1000.0 in
  let t0 = Clock.now_ns () in
  let db_ri = Db.create ~config () in
  let incr_r = Gist.create db_ri R.ext ~empty_bp:R.Empty () in
  let txn = Txn.begin_txn db_ri.Db.txns in
  Array.iter (fun (p, r) -> Gist.insert incr_r txn ~key:p ~rid:r) pts;
  Txn.commit db_ri.Db.txns txn;
  let incr_r_ms = Clock.elapsed_s t0 *. 1000.0 in
  check_tree bulk_b "E11";
  check_tree bulk_r "E11";
  Report.table
    ~header:[ "tree"; "method"; "load ms"; "leaves"; "height" ]
    [
      [ "B-tree"; "bulk (sorted)"; Report.f0 bulk_b_ms; Report.i (Gist.leaf_count bulk_b);
        Report.i (Gist.height bulk_b) ];
      [ "B-tree"; "incremental"; Report.f0 incr_b_ms; Report.i (Gist.leaf_count incr_b);
        Report.i (Gist.height incr_b) ];
      [ "R-tree"; "bulk (STR)"; Report.f0 bulk_r_ms; Report.i (Gist.leaf_count bulk_r);
        Report.i (Gist.height bulk_r) ];
      [ "R-tree"; "incremental"; Report.f0 incr_r_ms; Report.i (Gist.leaf_count incr_r);
        Report.i (Gist.height incr_r) ];
    ];
  print_endline
    "Expected shape: bulk loading is an order of magnitude faster (minimal\n\
     logging, no descents or splits) and packs ~30% fewer leaves."

(* ------------------------------------------------------------------ *)
(* F5: why repositioning requires a partitioned key space              *)
(* ------------------------------------------------------------------ *)

let f5 () =
  Report.section "F5  Figure 5: repositioning in an ancestor is ambiguous without partitioning";
  let db = Db.create ~config:{ small_tree_config with Db.max_entries = 4 } () in
  let t = Gist.create db R.ext ~empty_bp:R.Empty () in
  let txn = Txn.begin_txn db.Db.txns in
  let rng = Xoshiro.create 2 in
  for i = 0 to 199 do
    let x = Xoshiro.float rng 100.0 and y = Xoshiro.float rng 100.0 in
    Gist.insert t txn ~key:(R.rect x y (x +. 8.0) (y +. 8.0)) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  (* Count root entries whose BPs mutually overlap and probe points covered
     by several of them. *)
  let root_bps =
    Gist_storage.Buffer_pool.with_page db.Db.pool (Gist.root t) Gist_storage.Latch.S
      (fun frame ->
        let node = Node.read R.ext frame in
        if Node.is_leaf node then []
        else Gist_util.Dyn.fold (fun acc e -> e.Node.ie_bp :: acc) [] (Node.internal_entries node))
  in
  let probes = 1000 and ambiguous = ref 0 in
  for _ = 1 to probes do
    let p = R.point (Xoshiro.float rng 100.0) (Xoshiro.float rng 100.0) in
    let covering = List.length (List.filter (fun bp -> R.overlaps p bp) root_bps) in
    if covering >= 2 then incr ambiguous
  done;
  Report.table ~header:[ "metric"; "value" ]
    [
      [ "root entries"; Report.i (List.length root_bps) ];
      [ "random probe points"; Report.i probes ];
      [ "points covered by >= 2 root BPs"; Report.i !ambiguous ];
    ];
  print_endline
    "A search interrupted below this root cannot be repositioned by key value:\n\
     for any key covered by several BPs (non-partitioned key space), the ancestor\n\
     cannot tell which subtrees were already visited — hence ARIES/IM-style\n\
     repositioning is impossible and the link technique is required (§11).";
  check_tree t "F5"

(* ------------------------------------------------------------------ *)
(* E12: crash-point sweep — fault injection proves C4/C5               *)
(* ------------------------------------------------------------------ *)

module Fuzz = Gist_fault.Crash_fuzz
module Metrics = Gist_obs.Metrics

let e12 () =
  Report.section "E12  Crash-point sweep: ARIES restart from every injection point";
  let points =
    match Sys.getenv_opt "FUZZ_POINTS" with
    | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> 200)
    | None -> 200
  in
  let commit_mode =
    match Sys.getenv_opt "FUZZ_COMMIT_MODE" with
    | Some v -> (
      match Gist_wal.Group_commit.mode_of_string v with
      | Some m -> m
      | None -> failwith (Printf.sprintf "FUZZ_COMMIT_MODE=%s: want sync|group|async" v))
    | None -> Gist_wal.Group_commit.Sync
  in
  Printf.printf
    "A seeded workload (two trees, mixed commits/aborts, checkpoints, vacuum,\n\
     log truncation) is profiled, then crashed at points spread across its\n\
     disk-read/disk-write/WAL-append/flush-request event stream — clean power\n\
     loss, torn page writes, ragged WAL tails, and crashes during recovery\n\
     itself. After each crash, restart must reproduce exactly the committed\n\
     state (commit_mode=%s%s).\n"
    (Gist_wal.Group_commit.mode_to_string commit_mode)
    (match commit_mode with
    | Gist_wal.Group_commit.Async -> "; async accepts any prefix of commit order"
    | _ -> "");
  let snap0 = Metrics.snapshot () in
  let t0 = Clock.now_ns () in
  let summaries = Fuzz.run_sweep ~commit_mode ~seed:20260806 ~points () in
  let sweep_ms = Clock.elapsed_s t0 *. 1000.0 in
  let snap1 = Metrics.snapshot () in
  let d name = Metrics.counter_value snap1 name - Metrics.counter_value snap0 name in
  Report.table
    ~header:[ "mode"; "points"; "crashes"; "events/run"; "violations" ]
    (List.map
       (fun s ->
         [ Fuzz.mode_name s.Fuzz.mode; Report.i s.Fuzz.points; Report.i s.Fuzz.crashes;
           Report.i s.Fuzz.events; Report.i (List.length s.Fuzz.violations) ])
       summaries);
  List.iter
    (fun s ->
      List.iter
        (fun v -> Printf.printf "VIOLATION (%s): %s\n" (Fuzz.mode_name s.Fuzz.mode) v)
        s.Fuzz.violations)
    summaries;
  Report.table
    ~header:[ "metric delta over the sweep"; "value" ]
    [
      [ "fault.fired"; Report.i (d "fault.fired") ];
      [ "fault.crash"; Report.i (d "fault.crash") ];
      [ "fault.torn_write"; Report.i (d "fault.torn_write") ];
      [ "wal.torn_tail (ragged tails discarded)"; Report.i (d "wal.torn_tail") ];
      [ "recovery.torn_page_repaired (from FPIs)"; Report.i (d "recovery.torn_page_repaired") ];
      [ "recovery.torn_page_zeroed (no FPI found)"; Report.i (d "recovery.torn_page_zeroed") ];
      [ "disk.read_unallocated"; Report.i (d "disk.read_unallocated") ];
    ];
  Printf.printf "swept %d crash points in %.0f ms\n"
    (List.fold_left (fun acc s -> acc + s.Fuzz.points) 0 summaries)
    sweep_ms;
  print_endline
    "Expected shape: zero violations — every crash point recovers to exactly\n\
     the committed state with deletes never half-visible (C4/C5); torn pages\n\
     are repaired from full-page images, ragged WAL tails are discarded, and\n\
     a second restart is a no-op (its own checkpoint pair only).";
  let violations = List.fold_left (fun n s -> n + List.length s.Fuzz.violations) 0 summaries in
  if violations > 0 then begin
    Printf.eprintf "E12 FAILED: %d recovery oracle violations\n" violations;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

(* Every kept experiment, in the order [all] runs them. *)
let experiments ~duration_s ~domain_list =
  [
    ("E1", fun () -> e1 ~duration_s);
    ("E2", fun () -> e2 ~duration_s ~domain_list);
    ("E3", fun () -> e3 ~duration_s ~domain_list);
    ("E4", e4);
    ("E5", e5);
    ("E5b", fun () -> e5b ~duration_s ~domain_list);
    ("E6", e6);
    ("E6b", e6b);
    ("E7", e7);
    ("E8", fun () -> e8 ~duration_s ~domain_list);
    ("E9", e9);
    ("E10", e10);
    ("E11", e11);
    ("E12", e12);
    ("F5", f5);
  ]

let run_experiment ~duration_s ~domain_list name =
  let all = experiments ~duration_s ~domain_list in
  if name = "all" then List.iter (fun (_, run) -> run ()) all
  else
    match
      List.find_opt (fun (n, _) -> String.lowercase_ascii n = String.lowercase_ascii name) all
    with
    | Some (_, run) -> run ()
    | None ->
      Printf.eprintf "unknown experiment %S (try E1..E12, E5b, E6b, F5, all)\n" name;
      exit 2

open Cmdliner

let experiment =
  Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc:"E1..E12, E5b, E6b, F5 or all")

let duration =
  Arg.(
    value & opt float 1.0
    & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc:"Per-cell measurement duration")

let domains =
  Arg.(
    value
    & opt (list int) [ 1; 2; 4 ]
    & info [ "domains" ] ~docv:"N,N,..." ~doc:"Domain counts for scaling sweeps")

let cmd =
  let doc = "Regenerate the GiST concurrency/recovery experiments (see EXPERIMENTS.md)" in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(
      const (fun duration_s domain_list exp -> run_experiment ~duration_s ~domain_list exp)
      $ duration $ domains $ experiment)

let () = exit (Cmd.eval cmd)
