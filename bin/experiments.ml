(* Experiment driver: regenerates every figure/table-shaped result in
   EXPERIMENTS.md (see DESIGN.md §4 for the experiment index).

   Usage:  experiments [E1|E2|...|E18|F5|all] [--duration s] [--domains n,n,...]
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

let check_tree_or_warn t label =
  let report = Tree_check.check t in
  if not (Tree_check.ok report) then
    Format.printf "WARNING %s: %a@." label Tree_check.pp report

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
    check_tree_or_warn t "E1";
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
  check_tree_or_warn t "E2";
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
    check_tree_or_warn t "E3";
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
    check_tree_or_warn t "E5b";
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
    check_tree_or_warn t' "E6b";
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
  check_tree_or_warn t "E7";
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
    check_tree_or_warn t "E8";
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
  check_tree_or_warn t "E9";
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
  check_tree_or_warn t "E10";
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
  check_tree_or_warn bulk_b "E11";
  check_tree_or_warn bulk_r "E11";
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
  check_tree_or_warn t "F5"

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
     a second restart is a no-op (its own checkpoint pair only)."

(* ------------------------------------------------------------------ *)
(* E13: decoded-node cache on/off — search & insert throughput         *)
(* ------------------------------------------------------------------ *)

let e13 ~duration_s =
  Report.section "E13  Decoded-node cache: search/insert throughput, cache on vs off";
  print_endline
    "Two identical 20k-key B-trees at fanout 256 (16 KiB pages), differing only\n\
     in the [node_cache] knob. The pool holds both trees entirely, so the\n\
     off-tree's extra cost is pure per-visit re-decoding — exactly what the\n\
     frame-attached cache removes.";
  let config =
    { Db.default_config with Db.max_entries = 256; pool_capacity = 8192; page_size = 16384 }
  in
  let make node_cache =
    let db = Db.create ~config:{ config with Db.node_cache } () in
    let t = Gist.create db B.ext ~empty_bp:B.Empty () in
    let txn = Txn.begin_txn db.Db.txns in
    for k = 0 to 19_999 do
      Gist.insert t txn ~key:(B.key k) ~rid:(rid k)
    done;
    Txn.commit db.Db.txns txn;
    (db, t)
  in
  let time_ops f =
    let t0 = Clock.now_ns () in
    let n = ref 0 in
    while Clock.elapsed_s t0 < duration_s do
      f !n;
      incr n
    done;
    Clock.elapsed_s t0 *. 1e9 /. float_of_int !n
  in
  let rng = Xoshiro.create 7 in
  let search t _ =
    let lo = Xoshiro.int rng 19_000 in
    ignore (Gist_baseline.Nolink.search_with_links t (B.range lo (lo + 10)))
  in
  let txn_search db t _ =
    let txn = Txn.begin_txn db.Db.txns in
    let lo = Xoshiro.int rng 19_000 in
    ignore (Gist.search t txn (B.range lo (lo + 10)));
    Txn.commit db.Db.txns txn
  in
  let next_key = ref 1_000_000 in
  let insert db t _ =
    incr next_key;
    with_retry db (fun txn -> Gist.insert t txn ~key:(B.key !next_key) ~rid:(rid !next_key))
  in
  let db_on, t_on = make true in
  let db_off, t_off = make false in
  (* Measure the cache-on hit rate over the read-heavy phase only. *)
  let snap0 = Metrics.snapshot () in
  let search_on = time_ops (search t_on) in
  let txn_search_on = time_ops (txn_search db_on t_on) in
  let snap1 = Metrics.snapshot () in
  let search_off = time_ops (search t_off) in
  let txn_search_off = time_ops (txn_search db_off t_off) in
  let insert_on = time_ops (insert db_on t_on) in
  let insert_off = time_ops (insert db_off t_off) in
  let d name = Metrics.counter_value snap1 name - Metrics.counter_value snap0 name in
  let hits = d "bp.node_cache.hit" and misses = d "bp.node_cache.miss" in
  let hit_rate = 100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  let row name off on =
    [ name; Report.f0 off; Report.f0 on; Report.f2 (off /. on) ]
  in
  Report.table
    ~header:[ "workload"; "cache off (ns/op)"; "cache on (ns/op)"; "speedup" ]
    [
      row "search (raw traversal, width 10)" search_off search_on;
      row "search (full txn)" txn_search_off txn_search_on;
      row "insert" insert_off insert_on;
    ];
  Report.kv "cache-on read-phase hits" (Report.i hits);
  Report.kv "cache-on read-phase misses" (Report.i misses);
  Report.kv "cache-on read-phase hit rate %" (Report.f2 hit_rate);
  check_tree_or_warn t_on "E13 cache-on tree";
  check_tree_or_warn t_off "E13 cache-off tree";
  print_endline
    "Expected shape: raw search >=3x faster with the cache on (per-visit decode\n\
     dominates a static-tree descent); the txn-level gap is smaller because\n\
     txn begin/commit and locking are cache-independent; hit rate well above\n\
     90% once the tree is warm."

(* ------------------------------------------------------------------ *)
(* E14: domain scaling after de-serializing the kernel's hot paths     *)
(* ------------------------------------------------------------------ *)

let e14 ~duration_s ~domain_list =
  Report.section
    "E14  Claim C1/C2: throughput vs domains with the sharded kernel, link vs coarse";
  (* The default --domains sweep stops at 4; C1's evidence row needs the
     8-domain point, so extend the default (an explicit --domains wins). *)
  let domain_list = if domain_list = [ 1; 2; 4 ] then [ 1; 2; 4; 8 ] else domain_list in
  print_endline
    "I/O-bound configuration (200 us simulated disk access, 160-frame pool\n\
     over a 20k-key tree): domains scale by overlapping I/O waits, which the\n\
     link protocol permits and a tree-global latch forbids. Reads are uniform\n\
     range scans; a write transaction is a delete+reinsert pair at two\n\
     uniform cold keys, so write-side I/O lands inside the baseline's\n\
     exclusive-latch window. Each link-protocol cell also reports the deltas\n\
     of the kernel's hot-path counters (latch.wait, lock.wait,\n\
     wal.append_retry, pred.shard_*) so any residual serialization is\n\
     visible. Raw curves land in BENCH_4.json.";
  let io_delay_ns = 200_000 and pool_capacity = 160 in
  let cell ~variant ~read_pct ~domains =
    let config = { small_tree_config with Db.io_delay_ns; pool_capacity } in
    let db, t = make_btree ~config () in
    Workload.Btree.preload db t ~n:20_000;
    let coarse = Gist_baseline.Coarse_lock.wrap t in
    let body ~worker ~rng ~txn =
      let ops = Workload.Btree.scattered ~worker ~space:20_000 ~read_pct ~scan_width:10 rng in
      match variant with
      | `Link -> List.iter (Workload.Btree.apply t txn) ops
      | `Coarse ->
        List.iter
          (function
            | Workload.Btree.Search q ->
              ignore (Gist_baseline.Coarse_lock.search coarse txn q)
            | Workload.Btree.Insert (k, rid) ->
              Gist_baseline.Coarse_lock.insert coarse txn ~key:k ~rid
            | Workload.Btree.Delete (k, rid) ->
              ignore (Gist_baseline.Coarse_lock.delete coarse txn ~key:k ~rid))
          ops
    in
    let snap0 = Metrics.snapshot () in
    let stats =
      Driver.run_txn_ops ~db ~domains ~duration_s ~seed:((domains * 31) + read_pct) body
    in
    let snap1 = Metrics.snapshot () in
    check_tree_or_warn t "E14";
    let d name = Metrics.counter_value snap1 name - Metrics.counter_value snap0 name in
    (stats.Driver.throughput, d)
  in
  let mixes = [ ("read-heavy", 90); ("mixed", 50); ("insert-heavy", 10) ] in
  let results =
    List.map
      (fun (label, read_pct) ->
        Printf.printf "\n%s (%d%% reads, %d%% inserts/deletes)\n" label read_pct
          (100 - read_pct);
        let rows =
          List.map
            (fun domains ->
              let link_tp, d_link = cell ~variant:`Link ~read_pct ~domains in
              let coarse_tp, d_coarse = cell ~variant:`Coarse ~read_pct ~domains in
              (domains, link_tp, coarse_tp, d_link, d_coarse))
            domain_list
        in
        let base_link = match rows with (_, tp, _, _, _) :: _ -> tp | [] -> 1.0 in
        Report.table
          ~header:[ "domains"; "link ops/s"; "coarse ops/s"; "link/coarse"; "link vs 1-dom" ]
          (List.map
             (fun (domains, link, coarse, _, _) ->
               [
                 Report.i domains;
                 Report.f0 link;
                 Report.f0 coarse;
                 Report.f2 (link /. coarse);
                 Report.f2 (link /. base_link);
               ])
             rows);
        print_endline "link-protocol kernel counter deltas per cell:";
        Report.table
          ~header:
            [
              "domains"; "latch.wait"; "lock.wait"; "wal.append_retry"; "pred.shard_lock";
              "pred.shard_cont"; "held_across_io"; "coarse held_across_io";
            ]
          (List.map
             (fun (domains, _, _, d, dc) ->
               [
                 Report.i domains;
                 Report.i (d "latch.wait");
                 Report.i (d "lock.wait");
                 Report.i (d "wal.append_retry");
                 Report.i (d "pred.shard_lock");
                 Report.i (d "pred.shard_contention");
                 Report.i (d "latches_held_across_io");
                 Report.i (dc "latches_held_across_io");
               ])
             rows);
        (label, read_pct, rows))
      mixes
  in
  (* Acceptance summary, mirrored into BENCH_4.json. The held-across-io
     invariant applies to the link protocol; the coarse baseline violates
     it by construction (that is the C1 contrast). *)
  let link_held_io =
    List.fold_left
      (fun acc (_, _, rows) ->
        List.fold_left (fun acc (_, _, _, d, _) -> acc + d "latches_held_across_io") acc rows)
      0 results
  in
  let scaling_at lbl rows =
    match (rows, List.rev rows) with
    | (d0, tp0, _, _, _) :: _, (dn, tpn, cn, _, _) :: _ when d0 <> dn ->
      Printf.printf
        "%s: link %.0f ops/s at %d domains -> %.0f at %d (%.2fx); link/coarse at %d: %.2fx\n"
        lbl tp0 d0 tpn dn (tpn /. tp0) dn (tpn /. cn)
    | _ -> ()
  in
  print_newline ();
  List.iter (fun (lbl, _, rows) -> scaling_at lbl rows) results;
  Report.kv "link-protocol latches_held_across_io (all cells)" (Report.i link_held_io);
  (* One machine-parseable line so BENCH_4.json regenerates from captured
     output (same convention as Report.metrics_json_line). *)
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"e14\": [";
  List.iteri
    (fun i (lbl, read_pct, rows) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"workload\": %S, \"read_pct\": %d, \"cells\": [" lbl read_pct;
      List.iteri
        (fun j (domains, link, coarse, d, dc) ->
          if j > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf
            "{\"domains\": %d, \"link_ops_s\": %.0f, \"coarse_ops_s\": %.0f, \
             \"latch_wait\": %d, \"lock_wait\": %d, \"wal_append_retry\": %d, \
             \"pred_shard_lock\": %d, \"pred_shard_contention\": %d, \
             \"link_held_across_io\": %d, \"coarse_held_across_io\": %d}"
            domains link coarse (d "latch.wait") (d "lock.wait") (d "wal.append_retry")
            (d "pred.shard_lock")
            (d "pred.shard_contention")
            (d "latches_held_across_io")
            (dc "latches_held_across_io"))
        rows;
      Buffer.add_string buf "]}")
    results;
  Buffer.add_string buf "]}";
  print_endline (Buffer.contents buf);
  print_endline
    "Expected shape: on the I/O-bound mixes the link protocol scales with\n\
     domains (>=3x at 8 domains on read-heavy) while coarse stays flat\n\
     (>=2x link/coarse at 8 domains); wal.append_retry stays tiny relative\n\
     to ops (the reservation CAS rarely loses); pred.shard_contention ~ 0\n\
     at 64 shards; link-protocol latches_held_across_io identically 0."

(* ------------------------------------------------------------------ *)
(* E15: read-mostly scaling with optimistic latch-free reads (OLC)     *)
(* ------------------------------------------------------------------ *)

let e15 ~duration_s ~domain_list =
  Report.section "E15  OLC: read-mostly scaling, latch-free vs S-latched search";
  (* The read-side claim needs the 16-domain point (E14 stops at 8):
     extend the default sweep; an explicit --domains wins. *)
  let domain_list = if domain_list = [ 1; 2; 4 ] then [ 1; 2; 4; 8; 16 ] else domain_list in
  print_endline
    "Same I/O-bound configuration as E14 (200 us simulated disk access,\n\
     160-frame pool over a 20k-key tree), read-mostly mixes. Both variants\n\
     run the full link protocol; the only difference is the search path's\n\
     internal-node visits — latch-free under the frame version word (olc)\n\
     versus per-node S latches (s-latch, olc_retries = 0, so every one of\n\
     its visits counts as an olc.fallback). Each olc cell reports the\n\
     olc.read_attempt/restart/fallback deltas and both variants report\n\
     latch.wait (the contention evidence): with OLC on, readers should not\n\
     appear in latch queues at all on internal nodes. Raw curves land in\n\
     BENCH_5.json.";
  let io_delay_ns = 200_000 and pool_capacity = 160 in
  let cell ~olc ~read_pct ~domains =
    let olc_retries = if olc then Db.default_config.Db.olc_retries else 0 in
    let config = { small_tree_config with Db.io_delay_ns; pool_capacity; olc_retries } in
    let db, t = make_btree ~config () in
    Workload.Btree.preload db t ~n:20_000;
    let body ~worker ~rng ~txn =
      List.iter
        (Workload.Btree.apply t txn)
        (Workload.Btree.scattered ~worker ~space:20_000 ~read_pct ~scan_width:10 rng)
    in
    let snap0 = Metrics.snapshot () in
    let stats =
      Driver.run_txn_ops ~db ~domains ~duration_s ~seed:((domains * 17) + read_pct) body
    in
    let snap1 = Metrics.snapshot () in
    check_tree_or_warn t "E15";
    let d name = Metrics.counter_value snap1 name - Metrics.counter_value snap0 name in
    (stats.Driver.throughput, d)
  in
  let mixes = [ ("read-only", 100); ("read-mostly", 95) ] in
  let results =
    List.map
      (fun (label, read_pct) ->
        Printf.printf "\n%s (%d%% reads, %d%% delete+reinsert pairs)\n" label read_pct
          (100 - read_pct);
        let rows =
          List.map
            (fun domains ->
              let olc_tp, d_olc = cell ~olc:true ~read_pct ~domains in
              let sl_tp, d_sl = cell ~olc:false ~read_pct ~domains in
              (domains, olc_tp, sl_tp, d_olc, d_sl))
            domain_list
        in
        let base = match rows with (_, tp, _, _, _) :: _ -> tp | [] -> 1.0 in
        Report.table
          ~header:[ "domains"; "olc ops/s"; "s-latch ops/s"; "olc/s-latch"; "olc vs 1-dom" ]
          (List.map
             (fun (domains, olc, sl, _, _) ->
               [
                 Report.i domains;
                 Report.f0 olc;
                 Report.f0 sl;
                 Report.f2 (olc /. sl);
                 Report.f2 (olc /. base);
               ])
             rows);
        print_endline "olc-cell counter deltas (and s-latch latch.wait for contrast):";
        Report.table
          ~header:
            [
              "domains"; "read_attempt"; "restart"; "fallback"; "fallback %";
              "latch.wait olc"; "latch.wait s-latch"; "held_across_io";
            ]
          (List.map
             (fun (domains, _, _, d, dsl) ->
               let attempts = d "olc.read_attempt" in
               [
                 Report.i domains;
                 Report.i attempts;
                 Report.i (d "olc.restart");
                 Report.i (d "olc.fallback");
                 Report.f2
                   (100.0 *. float_of_int (d "olc.fallback") /. float_of_int (max 1 attempts));
                 Report.i (d "latch.wait");
                 Report.i (dsl "latch.wait");
                 Report.i (d "latches_held_across_io");
               ])
             rows);
        (label, read_pct, rows))
      mixes
  in
  print_newline ();
  List.iter
    (fun (lbl, _, rows) ->
      match (rows, List.rev rows) with
      | (d0, tp0, _, _, _) :: _, (dn, tpn, sln, _, _) :: _ when d0 <> dn ->
        Printf.printf "%s: olc %.0f ops/s at %d domains -> %.0f at %d (%.2fx); olc/s-latch at %d: %.2fx\n"
          lbl tp0 d0 tpn dn (tpn /. tp0) dn (tpn /. sln)
      | _ -> ())
    results;
  (* One machine-parseable line so BENCH_5.json regenerates from captured
     output (same convention as E14/BENCH_4.json). *)
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"e15\": [";
  List.iteri
    (fun i (lbl, read_pct, rows) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"workload\": %S, \"read_pct\": %d, \"cells\": [" lbl read_pct;
      List.iteri
        (fun j (domains, olc, sl, d, dsl) ->
          if j > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf
            "{\"domains\": %d, \"olc_ops_s\": %.0f, \"slatch_ops_s\": %.0f, \
             \"olc_read_attempt\": %d, \"olc_restart\": %d, \"olc_fallback\": %d, \
             \"latch_wait_olc\": %d, \"latch_wait_slatch\": %d, \"held_across_io\": %d}"
            domains olc sl (d "olc.read_attempt") (d "olc.restart") (d "olc.fallback")
            (d "latch.wait") (dsl "latch.wait")
            (d "latches_held_across_io"))
        rows;
      Buffer.add_string buf "]}")
    results;
  Buffer.add_string buf "]}";
  print_endline (Buffer.contents buf);
  print_endline
    "Expected shape: read-mostly throughput scales with domains at least as\n\
     well as E14's link baseline (the same I/O overlap) and pulls ahead of\n\
     the s-latch variant as domains grow; olc.fallback well under 1% of\n\
     read attempts; olc-cell latch.wait ~ 0 on the read side;\n\
     latches_held_across_io identically 0.";
  (* CI smoke floor: E15_FLOOR_OPS asserts the largest-domain olc cell of
     the first mix (conservatively low; flags a collapsed read path). *)
  match Sys.getenv_opt "E15_FLOOR_OPS" with
  | None -> ()
  | Some floor_s -> (
    match (float_of_string_opt floor_s, results) with
    | Some floor, (_, _, rows) :: _ when rows <> [] ->
      let _, olc_tp, _, _, _ = List.nth rows (List.length rows - 1) in
      if olc_tp >= floor then Printf.printf "E15 floor check: PASS (%.0f >= %.0f ops/s)\n" olc_tp floor
      else begin
        Printf.printf "E15 floor check: FAIL (%.0f < %.0f ops/s)\n" olc_tp floor;
        exit 1
      end
    | _ -> ())

(* ------------------------------------------------------------------ *)
(* E16: group commit — commit throughput across durability modes       *)
(* ------------------------------------------------------------------ *)

let e16 ~duration_s ~domain_list =
  Report.section "E16  Group commit: leader/follower flush batching, pipelined durability";
  (* The commit-side claim needs the 8-domain point: extend the default
     sweep; an explicit --domains wins. *)
  let domain_list = if domain_list = [ 1; 2; 4 ] then [ 1; 2; 4; 8 ] else domain_list in
  print_endline
    "Commit-bound workload: one-update transactions against a preloaded tree\n\
     with a 1 ms simulated log-device flush (a cloud-block-store fsync), so each\n\
     commit's cost is its durability. sync pays one device flush per commit;\n\
     group runs leader/follower in the committing domains: the first waiter\n\
     with no flush in flight flushes everything published in one device write\n\
     and wakes the followers, whose successors batch behind that flush; async\n\
     returns before the flush and a trailer domain makes it durable behind the\n\
     commit (an async commit may roll back after a crash, atomically;\n\
     PROTOCOL.md §8). Per cell: commit throughput, commit\n\
     latency p50/p99, physical flushes, and the mean group size.\n\
     Raw curves land in BENCH_6.json.";
  let wal_flush_delay_ns = 1_000_000 in
  let mode_names = [ "sync"; "group"; "async" ] in
  let cell ~mode ~domains =
    let commit_mode =
      match Gist_wal.Group_commit.mode_of_string mode with Some m -> m | None -> assert false
    in
    let config = { small_tree_config with Db.commit_mode; wal_flush_delay_ns } in
    let db, t = make_btree ~config () in
    Workload.Btree.preload db t ~n:2_000;
    let body ~worker ~rng ~txn =
      Workload.Btree.apply t txn
        (Workload.Btree.mixed ~worker ~space:2_000 ~read_pct:0 ~scan_width:1 ~theta:0.0 rng)
    in
    (* Histograms cannot be delta'd across snapshots — reset the registry
       so the cell's p50/p99 reflect this cell alone. *)
    Metrics.reset ();
    let snap0 = Metrics.snapshot () in
    let stats =
      Driver.run_txn_ops ~db ~domains ~duration_s
        ~seed:((domains * 13) + String.length mode)
        body
    in
    let snap1 = Metrics.snapshot () in
    Db.close db;
    check_tree_or_warn t "E16";
    let d name = Metrics.counter_value snap1 name - Metrics.counter_value snap0 name in
    let pct p =
      match Metrics.find snap1 "wal.commit_latency_ns" with
      | Some (Metrics.Histogram h) -> Gist_util.Stats.Histogram.percentile h p
      | _ -> 0.0
    in
    (stats.Driver.throughput, pct 0.50, pct 0.99, d)
  in
  let rows =
    List.map
      (fun domains ->
        let per_mode = List.map (fun mode -> (mode, cell ~mode ~domains)) mode_names in
        (domains, per_mode))
      domain_list
  in
  let get mode per_mode = List.assoc mode per_mode in
  let group_size d =
    let flushes = d "wal.group_flush" in
    if flushes = 0 then 0.0 else float_of_int (d "wal.group_commit") /. float_of_int flushes
  in
  Report.table
    ~header:
      [
        "domains"; "sync txn/s"; "group txn/s"; "async txn/s"; "group/sync"; "async/sync";
        "grp size"; "flushes sync"; "flushes group";
      ]
    (List.map
       (fun (domains, per_mode) ->
         let s_tp, _, _, ds = get "sync" per_mode in
         let g_tp, _, _, dg = get "group" per_mode in
         let a_tp, _, _, _ = get "async" per_mode in
         [
           Report.i domains;
           Report.f0 s_tp;
           Report.f0 g_tp;
           Report.f0 a_tp;
           Report.f2 (g_tp /. s_tp);
           Report.f2 (a_tp /. s_tp);
           Report.f2 (group_size dg);
           Report.i (ds "wal.flush");
           Report.i (dg "wal.flush");
         ])
       rows);
  print_endline "commit latency (wal.commit_latency_ns), microseconds:";
  Report.table
    ~header:
      [
        "domains"; "sync p50"; "sync p99"; "group p50"; "group p99"; "async p50"; "async p99";
        "held_across_io";
      ]
    (List.map
       (fun (domains, per_mode) ->
         let _, sp50, sp99, ds = get "sync" per_mode in
         let _, gp50, gp99, dg = get "group" per_mode in
         let _, ap50, ap99, da = get "async" per_mode in
         let held =
           ds "latches_held_across_io" + dg "latches_held_across_io"
           + da "latches_held_across_io"
         in
         [
           Report.i domains;
           Report.f0 (sp50 /. 1e3);
           Report.f0 (sp99 /. 1e3);
           Report.f0 (gp50 /. 1e3);
           Report.f0 (gp99 /. 1e3);
           Report.f0 (ap50 /. 1e3);
           Report.f0 (ap99 /. 1e3);
           Report.i held;
         ])
       rows);
  (match (rows, List.rev rows) with
  | (_, pm0) :: _, (dn, pmn) :: _ ->
    let s1, _, _, _ = get "sync" pm0 in
    let sn, _, _, _ = get "sync" pmn in
    let gn, _, _, dg = get "group" pmn in
    let an, _, _, _ = get "async" pmn in
    Printf.printf
      "sync %.0f -> %.0f txn/s across the sweep; at %d domains group commit is %.1fx sync \
       (async %.1fx) with a mean group of %.1f commits per device write\n"
      s1 sn dn (gn /. sn) (an /. sn) (group_size dg)
  | _ -> ());
  (* One machine-parseable line so BENCH_6.json regenerates from captured
     output (same convention as E14/E15). *)
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"e16\": [";
  List.iteri
    (fun i (domains, per_mode) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"domains\": %d, \"cells\": [" domains;
      List.iteri
        (fun j (mode, (tp, p50, p99, d)) ->
          if j > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf
            "{\"mode\": %S, \"txn_s\": %.0f, \"commit_p50_ns\": %.0f, \"commit_p99_ns\": \
             %.0f, \"flushes\": %d, \"flush_absorbed\": %d, \"group_flush\": %d, \
             \"group_commit\": %d, \"group_size_mean\": %.2f, \"force_elided\": %d, \
             \"held_across_io\": %d}"
            mode tp p50 p99 (d "wal.flush") (d "wal.flush_absorbed") (d "wal.group_flush")
            (d "wal.group_commit") (group_size d) (d "wal.force_elided")
            (d "latches_held_across_io"))
        per_mode;
      Buffer.add_string buf "]}")
    rows;
  Buffer.add_string buf "]}";
  print_endline (Buffer.contents buf);
  print_endline
    "Expected shape: sync stays pinned near 1/flush_delay commits per second\n\
     per domain-independent device; group is at or above sync at 1 domain\n\
     and climbs with domains as batches form behind the flush in flight\n\
     (mean group > 1 from 2 domains); async decouples commit latency from\n\
     the device entirely (p50 well under the flush delay);\n\
     latches_held_across_io identically 0.";
  (* CI smoke floor: E16_FLOOR_OPS asserts the largest-domain group-mode
     cell (conservatively low; flags a collapsed commit path). *)
  match Sys.getenv_opt "E16_FLOOR_OPS" with
  | None -> ()
  | Some floor_s -> (
    match (float_of_string_opt floor_s, List.rev rows) with
    | Some floor, (_, pm) :: _ ->
      let g_tp, _, _, _ = get "group" pm in
      if g_tp >= floor then
        Printf.printf "E16 floor check: PASS (%.0f >= %.0f txn/s)\n" g_tp floor
      else begin
        Printf.printf "E16 floor check: FAIL (%.0f < %.0f txn/s)\n" g_tp floor;
        exit 1
      end
    | _ -> ())

(* ------------------------------------------------------------------ *)
(* E17: larger-than-memory buffer management                           *)
(* ------------------------------------------------------------------ *)

let e17 ~duration_s =
  Report.section
    "E17  Larger-than-memory: 2Q eviction, background writer + fuzzy checkpoints, prefetch";
  print_endline
    "A 20k-key tree whose page footprint exceeds the pool at every ratio\n\
     below 100%. Each cell runs one workload through one pool variant with\n\
     a 10 us simulated page I/O, so misses — and above all foreground\n\
     write-backs — are what throughput measures. Variants: lru (LRU\n\
     eviction, no writer), 2q (scan-resistant 2Q, no writer), 2q+bg (2Q\n\
     plus the background writer/checkpointer domain and range-scan\n\
     prefetch). Workloads: uniform (50% point reads / 50% writes, uniform\n\
     keys), zipf (same mix, theta=0.99), scan (the zipf mix with a wide\n\
     cold range scan — a tenth of the key space — every 32 transactions:\n\
     the sequential flood 2Q is built to shrug off). Raw curves land in\n\
     BENCH_7.json.";
  let module Bp = Gist_storage.Buffer_pool in
  let preload_n = 20_000 in
  let io_delay_ns = 10_000 in
  (* Measure the data footprint once with an ample pool; every cell derives
     its capacity from the ratio against this page count. *)
  let footprint =
    let db, t = make_btree () in
    Workload.Btree.preload db t ~n:preload_n;
    check_tree_or_warn t "E17";
    (* The allocation frontier, not [Disk.page_count]: with an ample pool
       nothing has been written back yet, so the disk undercounts. *)
    let p = db.Db.alloc_next in
    Db.close db;
    p
  in
  Printf.printf "data footprint: %d pages of %d bytes\n" footprint
    small_tree_config.Db.page_size;
  let variants = [ ("lru", Bp.Lru, false); ("2q", Bp.Two_q, false); ("2q+bg", Bp.Two_q, true) ]
  and workloads = [ "uniform"; "zipf"; "scan" ]
  and ratios = [ 1; 5; 25; 100 ] in
  let cell ~ratio ~wl ~policy ~bg =
    let pool_capacity = max 16 (footprint * ratio / 100) in
    let config =
      {
        small_tree_config with
        Db.pool_capacity;
        io_delay_ns;
        eviction_policy = policy;
        bg_writer = bg;
        checkpoint_interval_us = 5_000;
        prefetch_depth = (if bg then 4 else 0);
      }
    in
    let db, t = make_btree ~config () in
    Workload.Btree.preload db t ~n:preload_n;
    Metrics.reset ();
    let snap0 = Metrics.snapshot () in
    let zipf_op ~worker rng =
      Workload.Btree.mixed ~worker ~space:preload_n ~read_pct:50 ~scan_width:1 ~theta:0.99 rng
    in
    let body ~worker ~rng ~txn =
      match wl with
      | "uniform" ->
        Workload.Btree.apply t txn
          (Workload.Btree.mixed ~worker ~space:preload_n ~read_pct:50 ~scan_width:1 ~theta:0.0
             rng)
      | "zipf" -> Workload.Btree.apply t txn (zipf_op ~worker rng)
      | _ ->
        if Xoshiro.int rng 32 = 0 then begin
          (* A wide cold sweep (a tenth of the key space at a uniform
             position) through the Zipf-hot mix: large enough to flood
             probation, small enough that the point ops still dominate
             the cell's time. *)
          let lo = Xoshiro.int rng preload_n in
          Workload.Btree.apply t txn (Workload.Btree.Search (B.range lo (lo + (preload_n / 10))))
        end
        else Workload.Btree.apply t txn (zipf_op ~worker rng)
    in
    let stats =
      Driver.run_txn_ops ~db ~domains:1 ~duration_s
        ~seed:((ratio * 31) + String.length wl + if bg then 7 else 0)
        body
    in
    let snap1 = Metrics.snapshot () in
    Db.close db;
    check_tree_or_warn t "E17";
    let d name = Metrics.counter_value snap1 name - Metrics.counter_value snap0 name in
    let hit_pct =
      let h = d "bp.hit" and m = d "bp.miss" in
      if h + m = 0 then 100.0 else 100.0 *. float_of_int h /. float_of_int (h + m)
    in
    (stats.Driver.throughput, hit_pct, d)
  in
  let sweep =
    List.map
      (fun wl ->
        let rows =
          List.map
            (fun ratio ->
              let cells =
                List.map
                  (fun (name, policy, bg) -> (name, cell ~ratio ~wl ~policy ~bg))
                  variants
              in
              (ratio, cells))
            ratios
        in
        (wl, rows))
      workloads
  in
  List.iter
    (fun (wl, rows) ->
      Printf.printf "workload %s:\n" wl;
      Report.table
        ~header:
          [
            "pool %"; "lru ops/s"; "2q ops/s"; "2q+bg ops/s"; "2q+bg hit%"; "fg wb"; "bg wb";
            "pf issued"; "pf hit"; "scan saved"; "ckpt"; "held io";
          ]
        (List.map
           (fun (ratio, cells) ->
             let l_tp, _, _ = List.assoc "lru" cells in
             let q_tp, _, _ = List.assoc "2q" cells in
             let b_tp, b_hit, bd = List.assoc "2q+bg" cells in
             let _, _, qd = List.assoc "2q" cells in
             [
               Report.i ratio;
               Report.f0 l_tp;
               Report.f0 q_tp;
               Report.f0 b_tp;
               Report.f2 b_hit;
               Report.i (bd "bp.fg_writeback");
               Report.i (bd "bp.bg_writeback");
               Report.i (bd "bp.prefetch.issued");
               Report.i (bd "bp.prefetch.hit");
               Report.i (qd "bp.scan_resist_saved");
               Report.i (bd "ckpt.fuzzy");
               Report.i (bd "latches_held_across_io" + qd "latches_held_across_io");
             ])
           rows))
    sweep;
  (* The two headline invariants, checked across the whole sweep. *)
  let fg_violations =
    List.concat_map
      (fun (wl, rows) ->
        List.filter_map
          (fun (ratio, cells) ->
            let _, _, bd = List.assoc "2q+bg" cells in
            if bd "bp.fg_writeback" > 0 then Some (wl, ratio, bd "bp.fg_writeback") else None)
          rows)
      sweep
  in
  (match fg_violations with
  | [] -> print_endline "fg-writeback invariant: PASS (bp.fg_writeback = 0 in every 2q+bg cell)"
  | vs ->
    List.iter
      (fun (wl, ratio, n) ->
        Printf.printf "fg-writeback invariant: FAIL (%s @ %d%%: %d foreground write-backs)\n" wl
          ratio n)
      vs);
  let held =
    List.concat_map
      (fun (_, rows) ->
        List.concat_map
          (fun (_, cells) -> List.map (fun (_, (_, _, d)) -> d "latches_held_across_io") cells)
          rows)
      sweep
    |> List.fold_left ( + ) 0
  in
  Printf.printf "latches_held_across_io across all %d cells: %d\n"
    (List.length workloads * List.length ratios * List.length variants)
    held;
  (* Restart time vs checkpoint cadence: same insert workload, then crash
     and time [Recovery.restart]. Fuzzy checkpoints bound the redo span, so
     restart cost must fall as the cadence tightens. *)
  print_endline
    "restart vs checkpoint cadence (2Q + bg writer, fixed-duration insert workload):";
  let restart_cell interval_us =
    let config =
      {
        small_tree_config with
        (* A pool small enough to keep write-back pressure on: the redo
           span is bounded by the oldest dirty page's rec_lsn, so a pool
           that never evicts would pin it to the start of the log no
           matter how often the checkpointer fires. *)
        Db.pool_capacity = 128;
        io_delay_ns = 2_000;
        eviction_policy = Bp.Two_q;
        bg_writer = true;
        checkpoint_interval_us = (if interval_us = 0 then 1_000_000_000 else interval_us);
      }
    in
    let db = Db.create ~config () in
    let t = Gist.create db B.ext ~empty_bp:B.Empty () in
    Metrics.reset ();
    let ckpt0 = Metrics.counter_value (Metrics.snapshot ()) "ckpt.fuzzy" in
    let seq = ref 0 in
    let t0 = Clock.now_ns () in
    while Clock.elapsed_s t0 < 0.4 do
      let txn = Txn.begin_txn db.Db.txns in
      for _ = 1 to 100 do
        incr seq;
        Gist.insert t txn ~key:(B.key !seq) ~rid:(rid !seq)
      done;
      Txn.commit db.Db.txns txn
    done;
    let ckpts = Metrics.counter_value (Metrics.snapshot ()) "ckpt.fuzzy" - ckpt0 in
    let root = Gist.root t in
    let db' = Db.crash db in
    Metrics.reset ();
    let r0 = Clock.now_ns () in
    Recovery.restart db' B.ext;
    let restart_ms = Clock.elapsed_s r0 *. 1e3 in
    let redo_span =
      match Metrics.find (Metrics.snapshot ()) "recovery.redo_span" with
      | Some (Metrics.Summary s) -> Gist_util.Stats.Summary.max s
      | _ -> 0.0
    in
    let t' = Gist.open_existing db' B.ext ~root () in
    let txn = Txn.begin_txn db'.Db.txns in
    let survived = List.length (Gist.search t' txn (B.range 0 (2 * !seq))) in
    Txn.commit db'.Db.txns txn;
    if survived <> !seq then
      Printf.printf "WARNING E17: %d of %d committed keys survived the crash\n" survived !seq;
    check_tree_or_warn t' "E17";
    Db.close db';
    (!seq, ckpts, restart_ms, redo_span)
  in
  let cadences = [ 0; 100_000; 10_000; 1_000 ] in
  let restart_rows = List.map (fun us -> (us, restart_cell us)) cadences in
  Report.table
    ~header:[ "ckpt interval us"; "keys"; "fuzzy ckpts"; "restart ms"; "redo span (records)" ]
    (List.map
       (fun (us, (keys, ckpts, ms, span)) ->
         [
           (if us = 0 then "off" else string_of_int us);
           Report.i keys;
           Report.i ckpts;
           Report.f2 ms;
           Report.f0 span;
         ])
       restart_rows);
  (* One machine-parseable line so BENCH_7.json regenerates from captured
     output (same convention as E14/E15/E16). *)
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"e17\": {\"footprint_pages\": %d, \"sweep\": [" footprint;
  List.iteri
    (fun i (wl, rows) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"workload\": %S, \"ratios\": [" wl;
      List.iteri
        (fun j (ratio, cells) ->
          if j > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "{\"pool_pct\": %d, \"cells\": [" ratio;
          List.iteri
            (fun k (name, (tp, hit, d)) ->
              if k > 0 then Buffer.add_char buf ',';
              Printf.bprintf buf
                "{\"variant\": %S, \"ops_s\": %.0f, \"hit_pct\": %.1f, \"fg_writeback\": %d, \
                 \"bg_writeback\": %d, \"prefetch_issued\": %d, \"prefetch_hit\": %d, \
                 \"scan_resist_saved\": %d, \"ckpt_fuzzy\": %d, \"held_across_io\": %d}"
                name tp hit (d "bp.fg_writeback") (d "bp.bg_writeback") (d "bp.prefetch.issued")
                (d "bp.prefetch.hit") (d "bp.scan_resist_saved") (d "ckpt.fuzzy")
                (d "latches_held_across_io"))
            cells;
          Buffer.add_string buf "]}")
        rows;
      Buffer.add_string buf "]}")
    sweep;
  Buffer.add_string buf "], \"restart\": [";
  List.iteri
    (fun i (us, (keys, ckpts, ms, span)) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"interval_us\": %d, \"keys\": %d, \"fuzzy_ckpts\": %d, \"restart_ms\": %.1f, \
         \"redo_span\": %.0f}"
        us keys ckpts ms span)
    restart_rows;
  Buffer.add_string buf "]}}";
  print_endline (Buffer.contents buf);
  print_endline
    "Expected shape: bp.fg_writeback is identically 0 in every 2q+bg cell —\n\
     all write-back I/O leaves through the writer domain; 2Q matches or beats\n\
     LRU under the scan workload (bp.scan_resist_saved counts the protected\n\
     frames it refused to evict); prefetch turns scan misses into hits where\n\
     the pool is under pressure; restart time and redo span fall monotonically\n\
     as the fuzzy-checkpoint cadence tightens; latches_held_across_io is 0\n\
     everywhere. On a single-CPU host the writer domain timeshares with the\n\
     foreground, so 2q+bg ops/s can trail the no-writer variants in CPU-bound\n\
     cells — what it buys is the clean foreground path, not raw throughput.";
  (* CI smoke floor: E17_FLOOR_OPS asserts the most I/O-constrained cell —
     uniform workload, 1% pool, 2q+bg (conservatively low; flags a
     collapsed eviction or writer path). *)
  match Sys.getenv_opt "E17_FLOOR_OPS" with
  | None -> ()
  | Some floor_s -> (
    match (float_of_string_opt floor_s, sweep) with
    | Some floor, (_, (_, cells) :: _) :: _ ->
      let tp, _, _ = List.assoc "2q+bg" cells in
      if tp >= floor then Printf.printf "E17 floor check: PASS (%.0f >= %.0f ops/s)\n" tp floor
      else begin
        Printf.printf "E17 floor check: FAIL (%.0f < %.0f ops/s)\n" tp floor;
        exit 1
      end
    | _ -> ())

(* ------------------------------------------------------------------ *)
(* E18: MVCC snapshot reads — scan-vs-writer interference              *)
(* ------------------------------------------------------------------ *)

let e18 ~duration_s ~domain_list =
  Report.section "E18  MVCC snapshot reads: lock-free scans vs locked scans under writers";
  (* The interference claim wants the 8-domain writer point; extend the
     default sweep, an explicit --domains wins. *)
  let domain_list = if domain_list = [ 1; 2; 4 ] then [ 1; 2; 4; 8 ] else domain_list in
  print_endline
    "In-memory configuration (4096-frame pool over a 20k-key tree).\n\
     Phase A, reader isolation: 4 reader domains scan a quiesced tree\n\
     (10% of keys carry committed delete markers, so visibility filtering\n\
     does real work) — locked scans (Read_committed Gist.search) versus\n\
     snapshot scans (Db.begin_ro + Gist.snapshot_search). The snapshot row\n\
     must show zero lock.* and zero pred.* deltas: page latches are its\n\
     only synchronization.\n\
     Phase B, writer interference: for each writer count, committed write\n\
     ops/s with 4 null readers (the same snapshot-scan loop against a\n\
     private tree — the CPU-fair no-interference baseline), with 4 locked\n\
     readers, and with 4 snapshot readers racing on the writers' tree.\n\
     Snapshot readers must not move writer throughput relative to the\n\
     null baseline, and their scan p99 must stay flat as writers grow.\n\
     Raw curves land in BENCH_8.json.";
  let module H = Gist_util.Stats.Histogram in
  let space = 20_000 in
  let setup () =
    let db, t = make_btree () in
    Workload.Btree.preload db t ~n:space;
    with_retry db (fun txn ->
        for i = 0 to (space / 10) - 1 do
          let k = 10 * i in
          ignore (Gist.delete t txn ~key:(B.key k) ~rid:(Workload.Btree.rid_of_key ~worker:0 k))
        done);
    (db, t)
  in
  let one_scan db t rng kind =
    let lo = Xoshiro.int rng (space - 200) in
    let q = B.range lo (lo + 200) in
    match kind with
    | `Snapshot ->
      let ro = Db.begin_ro db in
      let n = List.length (Gist.snapshot_search t ro q) in
      Db.end_ro db ro;
      n
    | `Locked ->
      with_retry db (fun txn ->
          List.length (Gist.search ~isolation:`Read_committed t txn q))
  in
  (* --- phase A: reader isolation on a quiesced tree ------------------ *)
  let isolation_cell kind =
    let db, t = setup () in
    let snap0 = Metrics.snapshot () in
    let stats =
      Driver.run ~domains:4 ~duration_s
        ~seed:(match kind with `Snapshot -> 18_001 | `Locked -> 18_002)
        (fun ~worker:_ ~rng -> ignore (one_scan db t rng kind : int))
    in
    let snap1 = Metrics.snapshot () in
    check_tree_or_warn t "E18";
    let d name = Metrics.counter_value snap1 name - Metrics.counter_value snap0 name in
    (stats, d)
  in
  let locked_stats, d_locked = isolation_cell `Locked in
  let snap_stats, d_snap = isolation_cell `Snapshot in
  let counters =
    [
      "lock.acquire"; "lock.wait"; "pred.register"; "pred.attach";
      "mvcc.snapshot_scan"; "mvcc.version_skipped"; "latches_held_across_io";
    ]
  in
  print_endline "\nPhase A: 4 reader domains, quiesced tree";
  Report.table
    ~header:([ "reader"; "scans/s"; "scan p99 ms" ] @ counters)
    (List.map
       (fun (label, stats, d) ->
         [
           label;
           Report.f0 stats.Driver.throughput;
           Report.f2 (1e3 *. H.percentile stats.Driver.latency 0.99);
         ]
         @ List.map (fun c -> Report.i (d c)) counters)
       [ ("locked", locked_stats, d_locked); ("snapshot", snap_stats, d_snap) ]);
  let iso_zero =
    List.for_all
      (fun c -> d_snap c = 0)
      [ "lock.acquire"; "lock.wait"; "pred.register"; "pred.attach" ]
  in
  Printf.printf "snapshot cells lock.*/pred.* all zero: %s\n" (if iso_zero then "yes" else "NO");
  (* --- phase B: writers + racing readers, against a CPU-fair control - *)
  (* On a machine with fewer cores than domains, "writers alone" is not a
     fair baseline: any racing reader costs the writers wall-clock CPU
     share regardless of synchronization. The control that isolates
     {e interference} from scheduling is the null reader — the identical
     snapshot-scan loop against a {e private} tree in a private
     environment, so it burns the same CPU but shares nothing with the
     writers. Snapshot readers on the writers' own tree must then match
     the null baseline; locked readers show the contrast. *)
  let interference_cell ~readers ~kind ~writers =
    let db, t = setup () in
    let reader_db, reader_t, reader_kind =
      match kind with
      | `Null ->
        let db2, t2 = setup () in
        (db2, t2, `Snapshot)
      | (`Locked | `Snapshot) as k -> (db, t, k)
    in
    let stop = Atomic.make false in
    let snap0 = Metrics.snapshot () in
    let reader_doms =
      List.init readers (fun r ->
          Domain.spawn (fun () ->
              let rng = Xoshiro.create (18_100 + (writers * 13) + r) in
              let h = H.create () in
              let scans = ref 0 in
              while not (Atomic.get stop) do
                let t0 = Clock.now_ns () in
                ignore (one_scan reader_db reader_t rng reader_kind : int);
                H.add h (float_of_int (Clock.now_ns () - t0) /. 1e9);
                incr scans
              done;
              (h, !scans)))
    in
    let stats =
      Driver.run_txn_ops ~db ~domains:writers ~duration_s ~seed:(writers * 31)
        (fun ~worker ~rng ~txn ->
          List.iter
            (Workload.Btree.apply t txn)
            (Workload.Btree.scattered ~worker ~space ~read_pct:0 ~scan_width:10 rng))
    in
    Atomic.set stop true;
    let reader_results = List.map Domain.join reader_doms in
    let snap1 = Metrics.snapshot () in
    check_tree_or_warn t "E18";
    let scan_h = List.fold_left (fun acc (h, _) -> H.merge acc h) (H.create ()) reader_results in
    let scans = List.fold_left (fun acc (_, n) -> acc + n) 0 reader_results in
    let d name = Metrics.counter_value snap1 name - Metrics.counter_value snap0 name in
    (stats.Driver.throughput, float_of_int scans /. stats.Driver.elapsed_s, scan_h, d)
  in
  let sweep =
    List.map
      (fun writers ->
        let alone_tp, _, _, _ = interference_cell ~readers:0 ~kind:`Null ~writers in
        let null_tp, _, _, d_null = interference_cell ~readers:4 ~kind:`Null ~writers in
        let lk_tp, lk_scans, lk_h, d_lk = interference_cell ~readers:4 ~kind:`Locked ~writers in
        let sn_tp, sn_scans, sn_h, d_sn =
          interference_cell ~readers:4 ~kind:`Snapshot ~writers
        in
        (writers, alone_tp, null_tp, lk_tp, sn_tp, lk_scans, sn_scans, lk_h, sn_h,
         (d_null, d_lk, d_sn)))
      domain_list
  in
  print_endline
    "\nPhase B: writer ops/s with 4 racing readers (null = same scan loop\n\
     on a private tree: the CPU-fair no-interference baseline)";
  Report.table
    ~header:
      [
        "writers"; "alone ops/s"; "+null ops/s"; "+locked ops/s"; "+snapshot ops/s";
        "snap/null"; "locked scans/s"; "snap scans/s"; "locked p99 ms"; "snap p99 ms";
        "held_across_io";
      ]
    (List.map
       (fun (w, alone, null, lk, sn, lks, sns, lkh, snh, (d_null, d_lk, d_sn)) ->
         [
           Report.i w;
           Report.f0 alone;
           Report.f0 null;
           Report.f0 lk;
           Report.f0 sn;
           Report.f2 (sn /. null);
           Report.f0 lks;
           Report.f0 sns;
           Report.f2 (1e3 *. H.percentile lkh 0.99);
           Report.f2 (1e3 *. H.percentile snh 0.99);
           Report.i
             (d_null "latches_held_across_io" + d_lk "latches_held_across_io"
             + d_sn "latches_held_across_io");
         ])
       sweep);
  (* One machine-parseable line so BENCH_8.json regenerates from captured
     output (same convention as E14..E17). *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"e18\": {\"isolation\": [";
  List.iteri
    (fun i (label, stats, d) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"reader\": %S, \"scans_s\": %.0f, \"scan_p99_ms\": %.3f, \"lock_acquire\": %d, \
         \"lock_wait\": %d, \"pred_register\": %d, \"pred_attach\": %d, \
         \"mvcc_snapshot_scan\": %d, \"mvcc_version_skipped\": %d, \"held_across_io\": %d}"
        label stats.Driver.throughput
        (1e3 *. H.percentile stats.Driver.latency 0.99)
        (d "lock.acquire") (d "lock.wait") (d "pred.register") (d "pred.attach")
        (d "mvcc.snapshot_scan") (d "mvcc.version_skipped")
        (d "latches_held_across_io"))
    [ ("locked", locked_stats, d_locked); ("snapshot", snap_stats, d_snap) ];
  Buffer.add_string buf "], \"interference\": [";
  List.iteri
    (fun i (w, alone, null, lk, sn, lks, sns, lkh, snh, (d_null, d_lk, d_sn)) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"writers\": %d, \"alone_ops_s\": %.0f, \"null_ops_s\": %.0f, \
         \"locked_ops_s\": %.0f, \"snapshot_ops_s\": %.0f, \"snap_over_null\": %.3f, \
         \"locked_scans_s\": %.0f, \"snapshot_scans_s\": %.0f, \
         \"locked_scan_p99_ms\": %.3f, \"snapshot_scan_p99_ms\": %.3f, \"held_across_io\": %d}"
        w alone null lk sn (sn /. null) lks sns
        (1e3 *. H.percentile lkh 0.99)
        (1e3 *. H.percentile snh 0.99)
        (d_null "latches_held_across_io" + d_lk "latches_held_across_io"
        + d_sn "latches_held_across_io"))
    sweep;
  Buffer.add_string buf "]}}";
  print_endline (Buffer.contents buf);
  print_endline
    "Expected shape: the snapshot isolation row is all zeros on lock.* and\n\
     pred.*; writer ops/s with 4 snapshot readers matches the null-reader\n\
     baseline within noise — snap/null ~ 1.0 (the locked-reader column\n\
     shows the contrast); snapshot scan p99 stays flat as writers grow;\n\
     latches_held_across_io identically 0.";
  (* CI smoke floor: E18_FLOOR_OPS asserts the snapshot cell of phase A
     (conservatively low; flags a collapsed snapshot-read path). *)
  match Sys.getenv_opt "E18_FLOOR_OPS" with
  | None -> ()
  | Some floor_s -> (
    match float_of_string_opt floor_s with
    | Some floor ->
      let tp = snap_stats.Driver.throughput in
      if tp >= floor then Printf.printf "E18 floor check: PASS (%.0f >= %.0f scans/s)\n" tp floor
      else begin
        Printf.printf "E18 floor check: FAIL (%.0f < %.0f scans/s)\n" tp floor;
        exit 1
      end
    | None -> ())

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let run_experiment ~duration_s ~domain_list = function
  | "E1" | "e1" -> e1 ~duration_s
  | "E2" | "e2" -> e2 ~duration_s ~domain_list
  | "E3" | "e3" -> e3 ~duration_s ~domain_list
  | "E4" | "e4" -> e4 ()
  | "E5" | "e5" -> e5 ()
  | "E5b" | "e5b" -> e5b ~duration_s ~domain_list
  | "E6" | "e6" -> e6 ()
  | "E6b" | "e6b" -> e6b ()
  | "E7" | "e7" -> e7 ()
  | "E8" | "e8" -> e8 ~duration_s ~domain_list
  | "E9" | "e9" -> e9 ()
  | "E10" | "e10" -> e10 ()
  | "E11" | "e11" -> e11 ()
  | "E12" | "e12" -> e12 ()
  | "E13" | "e13" -> e13 ~duration_s
  | "E14" | "e14" -> e14 ~duration_s ~domain_list
  | "E15" | "e15" -> e15 ~duration_s ~domain_list
  | "E16" | "e16" -> e16 ~duration_s ~domain_list
  | "E17" | "e17" -> e17 ~duration_s
  | "E18" | "e18" -> e18 ~duration_s ~domain_list
  | "F5" | "f5" -> f5 ()
  | "all" ->
    e1 ~duration_s;
    e2 ~duration_s ~domain_list;
    e3 ~duration_s ~domain_list;
    e4 ();
    e5 ();
    e5b ~duration_s ~domain_list;
    e6 ();
    e6b ();
    e7 ();
    e8 ~duration_s ~domain_list;
    e9 ();
    e10 ();
    e11 ();
    e12 ();
    e13 ~duration_s;
    e14 ~duration_s ~domain_list;
    e15 ~duration_s ~domain_list;
    e16 ~duration_s ~domain_list;
    e17 ~duration_s;
    e18 ~duration_s ~domain_list;
    f5 ()
  | other -> Printf.eprintf "unknown experiment %S (try E1..E18, F5, all)\n" other

open Cmdliner

let experiment =
  Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc:"E1..E18, F5 or all")

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
