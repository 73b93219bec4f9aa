(* Group-commit subsystem: lifecycle (waiting submits flush for
   themselves; only Async runs a trailer domain), leader/follower
   batching, followers released by a crash during a leader's flush,
   waiter wakeup under multi-domain load, the Sync/Group equivalence
   property (same visibility after crash + restart), the Async
   pipelined-durability crash contract, the abort force-elision, and
   scaled-down crash-fuzz sweeps in the two batched commit modes. *)

open Gist_core
module B = Gist_ams.Btree_ext
module Rid = Gist_storage.Rid
module Txn_id = Gist_util.Txn_id
module Txn = Gist_txn.Txn_manager
module Log_manager = Gist_wal.Log_manager
module Log_record = Gist_wal.Log_record
module Group_commit = Gist_wal.Group_commit
module Crash_fuzz = Gist_fault.Crash_fuzz
module Metrics = Gist_obs.Metrics
module ISet = Set.Make (Int)

let rid i = Rid.make ~page:1000 ~slot:i

let counter snap name = Metrics.counter_value snap name

let hist_count snap name =
  match Metrics.find snap name with
  | Some (Metrics.Histogram h) -> Gist_util.Stats.Histogram.count h
  | _ -> 0

let config mode = { Db.default_config with Db.commit_mode = mode; max_entries = 8 }

let scan db bt =
  let txn = Txn.begin_txn db.Db.txns in
  let got =
    Gist.search bt txn (B.range 0 max_int)
    |> List.map (fun (_, r) -> r.Rid.slot)
    |> ISet.of_list
  in
  Txn.commit db.Db.txns txn;
  got

(* --- lifecycle ----------------------------------------------------- *)

let append log = Log_manager.append log ~txn:Txn_id.none ~prev:0L Log_record.Begin

let test_lifecycle () =
  let log = Log_manager.create () in
  let g = Group_commit.create log in
  Alcotest.(check bool) "created with no trailer" false (Group_commit.running g);
  (* A waiting submit needs no other domain: the caller leads its own
     flush. *)
  let lsn = append log in
  Group_commit.submit g lsn;
  Alcotest.(check bool) "submit waited for durability" true
    (Log_manager.durable_lsn log >= lsn);
  Group_commit.start g;
  Group_commit.start g;
  Alcotest.(check bool) "start is idempotent and leaves the trailer running" true
    (Group_commit.running g);
  let lsn2 = append log in
  Group_commit.submit ~wait:false g lsn2;
  Group_commit.stop g;
  Group_commit.stop g;
  Alcotest.(check bool) "stop is idempotent" false (Group_commit.running g);
  Alcotest.(check bool) "the trailer made the no-wait request durable" true
    (Log_manager.durable_lsn log >= lsn2);
  (* With no trailer, a no-wait request stays volatile. *)
  let lsn3 = append log in
  Group_commit.submit ~wait:false g lsn3;
  Alcotest.(check bool) "untrailed no-wait request stays volatile" true
    (Log_manager.durable_lsn log < lsn3);
  (* And restartable after stop. *)
  Group_commit.start g;
  let lsn4 = append log in
  Group_commit.submit ~wait:false g lsn4;
  Group_commit.stop g;
  Alcotest.(check bool) "restarted trailer serves requests" true
    (Log_manager.durable_lsn log >= lsn4)

(* [stop] drains: no-wait requests enqueued before it must be durable
   once it returns. *)
let test_stop_drains () =
  let log = Log_manager.create () in
  let g = Group_commit.create log in
  Group_commit.start g;
  (* A slow device so the drain has something pending to prove. *)
  Log_manager.set_flush_delay_ns log 2_000_000;
  let last = ref 0L in
  for _ = 1 to 5 do
    last := append log;
    Group_commit.submit ~wait:false g !last
  done;
  Group_commit.stop g;
  Alcotest.(check bool) "everything enqueued before stop is durable" true
    (Log_manager.durable_lsn log >= !last)

(* --- leader/follower batching ---------------------------------------- *)

(* Four committing domains against a slow device: while one leads a
   flush, the others queue behind it and the next leader's single device
   write covers them all, so a flush carries more than one request on
   average. No domain but the committers' is involved. *)
let test_batching_under_load () =
  let log = Log_manager.create () in
  Log_manager.set_flush_delay_ns log 2_000_000 (* 2 ms *);
  let g = Group_commit.create log in
  let n_domains = 4 and n_txns = 20 in
  let snap0 = Metrics.snapshot () in
  let worker () =
    for _ = 1 to n_txns do
      Group_commit.submit g (append log)
    done
  in
  Array.iter Domain.join (Array.init n_domains (fun _ -> Domain.spawn worker));
  let snap1 = Metrics.snapshot () in
  Alcotest.(check bool) "no domain spawned" false (Group_commit.running g);
  let flushes = counter snap1 "wal.group_flush" - counter snap0 "wal.group_flush" in
  let commits = counter snap1 "wal.group_commit" - counter snap0 "wal.group_commit" in
  Alcotest.(check int) "every request submitted" (n_domains * n_txns) commits;
  Alcotest.(check bool)
    (Printf.sprintf "mean group size above 1 (%d requests, %d flushes)" commits flushes)
    true
    (flushes >= 1 && commits > flushes)

(* [Db.crash] landing while a leader sits in its device write must release
   every follower: [halt] waits for the flush in flight, then nobody
   leads again. *)
let test_crash_during_leader_flush () =
  let db =
    Db.create ~config:{ (config Group_commit.Group) with Db.wal_flush_delay_ns = 50_000_000 } ()
  in
  let g = match db.Db.group with Some g -> g | None -> Alcotest.fail "no group commit" in
  Alcotest.(check bool) "Group spawns no domain" false (Group_commit.running g);
  let n = 4 in
  let submitted = Atomic.make 0 and released = Atomic.make 0 in
  let snap0 = Metrics.snapshot () in
  let worker () =
    let lsn = append db.Db.log in
    Atomic.incr submitted;
    Group_commit.submit g lsn;
    Atomic.incr released
  in
  let doms = Array.init n (fun _ -> Domain.spawn worker) in
  while Atomic.get submitted < n do
    Domain.cpu_relax ()
  done;
  (* Well inside the 50 ms device write the first leader started. *)
  Unix.sleepf 0.01;
  let db' = Db.crash db in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get released < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Alcotest.(check int) "every follower released" n (Atomic.get released);
  Array.iter Domain.join doms;
  let snap1 = Metrics.snapshot () in
  Alcotest.(check int) "the flush in flight completed; none started after" 1
    (counter snap1 "wal.group_flush" - counter snap0 "wal.group_flush");
  Db.close db'

(* --- waiter wakeup under multi-domain load ---------------------------- *)

(* N committer domains x M waiting submits each: every submit must return
   with its LSN durable (a lost wakeup hangs the test; a spurious one
   returns early and trips the durability check). *)
let test_waiter_wakeup_stress () =
  let log = Log_manager.create () in
  Log_manager.set_flush_delay_ns log 50_000 (* 50 us: windows overlap submits *);
  let g = Group_commit.create log in
  let n_domains = 4 and n_txns = 50 in
  let snap0 = Metrics.snapshot () in
  let failures = Atomic.make 0 in
  let worker () =
    for _ = 1 to n_txns do
      let lsn = Log_manager.append log ~txn:Txn_id.none ~prev:0L Log_record.Commit in
      Group_commit.submit g lsn;
      if Log_manager.durable_lsn log < lsn then Atomic.incr failures
    done
  in
  let doms = Array.init n_domains (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join doms;
  let snap1 = Metrics.snapshot () in
  Alcotest.(check int) "every waiter woke with its LSN durable" 0 (Atomic.get failures);
  let commits = counter snap1 "wal.group_commit" - counter snap0 "wal.group_commit" in
  let flushes = counter snap1 "wal.group_flush" - counter snap0 "wal.group_flush" in
  Alcotest.(check int) "every submit was counted" (n_domains * n_txns) commits;
  Alcotest.(check bool)
    (Printf.sprintf "windows coalesced (%d flushes for %d commits)" flushes commits)
    true
    (flushes >= 1 && flushes <= commits)

(* --- Sync == Group visibility after crash + restart (qcheck) ---------- *)

(* A history is a list of transactions, each inserting a fresh batch of
   keys and then committing or aborting. Whatever the durability route,
   after a crash at history end + restart, exactly the committed keys are
   visible — and Sync and Group agree key for key. (Group waits for its
   window flush, so its durability contract is Sync's.) *)
let run_history ~mode txns =
  let db = Db.create ~config:(config mode) () in
  let bt = Gist.create db B.ext ~empty_bp:B.Empty () in
  let root = Gist.root bt in
  let next = ref 0 in
  let committed = ref ISet.empty in
  List.iter
    (fun (n_keys, commit) ->
      let txn = Txn.begin_txn db.Db.txns in
      let keys =
        List.init (1 + (n_keys mod 4)) (fun _ ->
            incr next;
            !next)
      in
      List.iter (fun k -> Gist.insert bt txn ~key:(B.key k) ~rid:(rid k)) keys;
      if commit then begin
        Txn.commit db.Db.txns txn;
        committed := ISet.union !committed (ISet.of_list keys)
      end
      else Txn.abort db.Db.txns txn)
    txns;
  let db' = Db.crash db in
  Recovery.restart_multi db' [ Ext.Packed B.ext ];
  let bt' = Gist.open_existing db' B.ext ~root () in
  let got = scan db' bt' in
  Db.close db';
  (got, !committed)

let prop_sync_group_equivalent =
  QCheck.Test.make ~name:"Sync and Group commit: same visibility after crash+restart"
    ~count:12
    QCheck.(list_of_size (Gen.int_range 1 6) (pair small_nat bool))
    (fun txns ->
      let got_s, want_s = run_history ~mode:Group_commit.Sync txns in
      let got_g, want_g = run_history ~mode:Group_commit.Group txns in
      ISet.equal got_s want_s && ISet.equal got_g want_g && ISet.equal got_s got_g)

(* --- Async: pipelined durability's crash contract --------------------- *)

let test_async_commit_may_roll_back () =
  let db = Db.create ~config:(config Group_commit.Async) () in
  let bt = Gist.create db B.ext ~empty_bp:B.Empty () in
  let root = Gist.root bt in
  (* Phase 1: a durably committed baseline. *)
  let txn = Txn.begin_txn db.Db.txns in
  Gist.insert bt txn ~key:(B.key 1) ~rid:(rid 1);
  Txn.commit db.Db.txns txn;
  Log_manager.force_all db.Db.log;
  (* Phase 2: halt the writer so nothing can flush, then async-commit a
     3-key transaction. Commit returns, locks are gone — but durability
     never arrives before the power does. *)
  (match db.Db.group with Some g -> Group_commit.halt g | None -> Alcotest.fail "no writer");
  let txn2 = Txn.begin_txn db.Db.txns in
  List.iter (fun k -> Gist.insert bt txn2 ~key:(B.key k) ~rid:(rid k)) [ 2; 3; 4 ];
  Txn.commit db.Db.txns txn2;
  Alcotest.(check bool) "async commit returned without durability" true
    (Log_manager.durable_lsn db.Db.log < Txn.last_lsn txn2);
  let db' = Db.crash db in
  Recovery.restart_multi db' [ Ext.Packed B.ext ];
  let bt' = Gist.open_existing db' B.ext ~root () in
  let got = scan db' bt' in
  (* The async-committed suffix rolled back atomically; the flushed
     prefix survived. *)
  Alcotest.(check bool)
    (Printf.sprintf "all-or-nothing: got {%s}"
       (ISet.elements got |> List.map string_of_int |> String.concat ","))
    true
    (ISet.equal got (ISet.of_list [ 1 ]) || ISet.equal got (ISet.of_list [ 1; 2; 3; 4 ]));
  Alcotest.(check bool) "the un-flushed commit was lost" true
    (ISet.equal got (ISet.of_list [ 1 ]));
  Db.close db'

let test_async_flushed_commit_survives () =
  let db = Db.create ~config:(config Group_commit.Async) () in
  let bt = Gist.create db B.ext ~empty_bp:B.Empty () in
  let root = Gist.root bt in
  let txn = Txn.begin_txn db.Db.txns in
  Gist.insert bt txn ~key:(B.key 7) ~rid:(rid 7);
  Txn.commit db.Db.txns txn;
  (* One flush window later the commit is durable — crash can no longer
     take it. [stop] drains the window deterministically. *)
  (match db.Db.group with Some g -> Group_commit.stop g | None -> Alcotest.fail "no writer");
  let db' = Db.crash db in
  Recovery.restart_multi db' [ Ext.Packed B.ext ];
  let bt' = Gist.open_existing db' B.ext ~root () in
  Alcotest.(check bool) "flushed async commit survives" true
    (ISet.equal (scan db' bt') (ISet.of_list [ 7 ]));
  Db.close db'

(* --- abort takes no durability barrier -------------------------------- *)

let test_abort_elides_force () =
  let db = Db.create () in
  let bt = Gist.create db B.ext ~empty_bp:B.Empty () in
  let snap0 = Metrics.snapshot () in
  let forces0 = Log_manager.forces db.Db.log in
  let txn = Txn.begin_txn db.Db.txns in
  Gist.insert bt txn ~key:(B.key 1) ~rid:(rid 1);
  Txn.abort db.Db.txns txn;
  let snap1 = Metrics.snapshot () in
  Alcotest.(check int) "abort forced nothing" forces0 (Log_manager.forces db.Db.log);
  Alcotest.(check int) "the saved barrier was counted" 1
    (counter snap1 "wal.force_elided" - counter snap0 "wal.force_elided");
  (* The un-forced rollback is still correct after a crash. *)
  let root = Gist.root bt in
  let db' = Db.crash db in
  Recovery.restart_multi db' [ Ext.Packed B.ext ];
  let bt' = Gist.open_existing db' B.ext ~root () in
  Alcotest.(check bool) "aborted insert stays invisible" true
    (ISet.is_empty (scan db' bt'))

(* --- wal.force_wait_ns ------------------------------------------------ *)

let test_force_wait_histogram () =
  let log = Log_manager.create () in
  Log_manager.set_flush_delay_ns log 1_000_000 (* 1 ms *);
  let snap0 = Metrics.snapshot () in
  let lsn = Log_manager.append log ~txn:Txn_id.none ~prev:0L Log_record.Begin in
  Log_manager.force log lsn;
  let snap1 = Metrics.snapshot () in
  Alcotest.(check int) "one stall recorded" 1
    (hist_count snap1 "wal.force_wait_ns" - hist_count snap0 "wal.force_wait_ns");
  (* Already durable: the fast path records no stall. *)
  Log_manager.force log lsn;
  let snap2 = Metrics.snapshot () in
  Alcotest.(check int) "noop force records nothing" 0
    (hist_count snap2 "wal.force_wait_ns" - hist_count snap1 "wal.force_wait_ns")

(* --- crash-fuzz in the new commit modes ------------------------------- *)

let test_fuzz_group_mode () =
  List.iter
    (fun s ->
      List.iter (fun v -> Alcotest.failf "oracle violation: %s" v) s.Crash_fuzz.violations)
    (Crash_fuzz.run_sweep ~commit_mode:Group_commit.Group ~seed:20260808 ~points:20 ())

let test_fuzz_async_mode () =
  List.iter
    (fun s ->
      List.iter (fun v -> Alcotest.failf "oracle violation: %s" v) s.Crash_fuzz.violations)
    (Crash_fuzz.run_sweep ~commit_mode:Group_commit.Async ~seed:20260809 ~points:20 ())

let suite =
  [
    Alcotest.test_case "writer lifecycle: start/stop/restart, inline fallback" `Quick
      test_lifecycle;
    Alcotest.test_case "stop drains the pending window" `Quick test_stop_drains;
    Alcotest.test_case "leader/follower batching under load" `Quick test_batching_under_load;
    Alcotest.test_case "waiter wakeup: 4 domains x 50 txns" `Quick test_waiter_wakeup_stress;
    QCheck_alcotest.to_alcotest prop_sync_group_equivalent;
    Alcotest.test_case "async commit may roll back after crash (atomically)" `Quick
      test_async_commit_may_roll_back;
    Alcotest.test_case "async commit survives once its window flushed" `Quick
      test_async_flushed_commit_survives;
    Alcotest.test_case "abort takes no durability barrier" `Quick test_abort_elides_force;
    Alcotest.test_case "wal.force_wait_ns records stalls, not noops" `Quick
      test_force_wait_histogram;
    Alcotest.test_case "crash-fuzz sweep, commit_mode=group" `Quick test_fuzz_group_mode;
    Alcotest.test_case "crash-fuzz sweep, commit_mode=async" `Quick test_fuzz_async_mode;
    Alcotest.test_case "crash during a leader flush releases followers" `Quick
      test_crash_during_leader_flush;
  ]
