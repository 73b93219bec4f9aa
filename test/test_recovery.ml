(* Crash injection and ARIES restart tests (experiment E6, Table 1).

   The failure model: [Db.crash] discards the buffer pool, lock tables and
   transaction tables, and truncates the log to its durable prefix. Tests
   steer the durable prefix with explicit [Log_manager.force] calls to
   position the "crash point" anywhere — including inside a split NTA —
   then restart and verify that exactly the committed data survives and
   every tree invariant holds. *)

open Gist_core
module B = Gist_ams.Btree_ext
module Rid = Gist_storage.Rid
module Txn = Gist_txn.Txn_manager
module Log = Gist_wal.Log_manager

let rid i = Rid.make ~page:1000 ~slot:i

let config =
  { Db.default_config with Db.max_entries = 8; pool_capacity = 64; page_size = 1024 }

let make () =
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  (db, t)

let crash_restart db t =
  let root = Gist.root t in
  let db' = Db.crash db in
  Recovery.restart db' B.ext;
  let t' = Gist.open_existing db' B.ext ~root () in
  (db', t')

let keys_of t db =
  let txn = Txn.begin_txn db.Db.txns in
  let r =
    Gist.search t txn (B.range min_int max_int)
    |> List.map (fun (k, _) -> B.key_value k)
    |> List.sort compare
  in
  Txn.commit db.Db.txns txn;
  r

let check_tree t =
  let report = Tree_check.check t in
  Alcotest.(check bool) (Format.asprintf "%a" Tree_check.pp report) true (Tree_check.ok report)

let test_committed_survive () =
  let db, t = make () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 100 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  (* Nothing flushed: recovery must rebuild everything from the log. *)
  let db', t' = crash_restart db t in
  Alcotest.(check (list int)) "all committed keys" (List.init 100 (fun i -> i + 1))
    (keys_of t' db');
  check_tree t'

let test_committed_survive_with_flush () =
  let db, t = make () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 100 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  Gist_storage.Buffer_pool.flush_all db.Db.pool;
  let db', t' = crash_restart db t in
  Alcotest.(check (list int)) "all keys after flushed crash" (List.init 100 (fun i -> i + 1))
    (keys_of t' db');
  check_tree t'

let test_uncommitted_rolled_back () =
  let db, t = make () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 50 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  let loser = Txn.begin_txn db.Db.txns in
  for i = 51 to 120 do
    Gist.insert t loser ~key:(B.key i) ~rid:(rid i)
  done;
  (* Make the loser's work durable so restart has something to undo. *)
  Log.force_all db.Db.log;
  Gist_storage.Buffer_pool.flush_all db.Db.pool;
  let db', t' = crash_restart db t in
  Alcotest.(check (list int)) "losers rolled back" (List.init 50 (fun i -> i + 1))
    (keys_of t' db');
  check_tree t'

let test_uncommitted_delete_rolled_back () =
  let db, t = make () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 30 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  let loser = Txn.begin_txn db.Db.txns in
  for i = 1 to 15 do
    ignore (Gist.delete t loser ~key:(B.key i) ~rid:(rid i))
  done;
  Log.force_all db.Db.log;
  let db', t' = crash_restart db t in
  Alcotest.(check (list int)) "deletes undone" (List.init 30 (fun i -> i + 1)) (keys_of t' db');
  check_tree t'

let test_crash_mid_nta () =
  (* Position the durable watermark inside a split NTA: the Split record is
     durable but the parent-entry install and closing CLR are not. Restart
     must roll the half-split back (page-oriented undo) and then remove the
     loser's entries (logical undo). *)
  let db, t = make () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 7 do
    Gist.insert t txn ~key:(B.key (i * 10)) ~rid:(rid (i * 10))
  done;
  Txn.commit db.Db.txns txn;
  let split_lsn = ref Gist_wal.Lsn.nil in
  Gist.set_hook t (fun ev ->
      if ev = "split:done" && Gist_wal.Lsn.equal !split_lsn Gist_wal.Lsn.nil then
        split_lsn := Log.last_lsn db.Db.log);
  let loser = Txn.begin_txn db.Db.txns in
  for i = 1 to 5 do
    Gist.insert t loser ~key:(B.key i) ~rid:(rid i)
  done;
  Alcotest.(check bool) "a split happened" true
    (not (Gist_wal.Lsn.equal !split_lsn Gist_wal.Lsn.nil));
  (* Durable prefix ends two records before the NTA closed. *)
  Log.force db.Db.log (Int64.sub !split_lsn 2L);
  let db', t' = crash_restart db t in
  Alcotest.(check (list int)) "committed keys intact" [ 10; 20; 30; 40; 50; 60; 70 ]
    (keys_of t' db');
  check_tree t'

let test_double_crash () =
  let db, t = make () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 60 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  let loser = Txn.begin_txn db.Db.txns in
  for i = 61 to 90 do
    Gist.insert t loser ~key:(B.key i) ~rid:(rid i)
  done;
  Log.force_all db.Db.log;
  let db1, t1 = crash_restart db t in
  (* Crash again immediately — restart's own CLRs must replay correctly. *)
  let db2, t2 = crash_restart db1 t1 in
  Alcotest.(check (list int)) "stable across double crash" (List.init 60 (fun i -> i + 1))
    (keys_of t2 db2);
  check_tree t2

let test_checkpointed_recovery () =
  let db, t = make () in
  for batch = 0 to 4 do
    let txn = Txn.begin_txn db.Db.txns in
    for i = 1 to 40 do
      Gist.insert t txn ~key:(B.key ((batch * 40) + i)) ~rid:(rid ((batch * 40) + i))
    done;
    Txn.commit db.Db.txns txn;
    Db.checkpoint db;
    if batch = 2 then Gist_storage.Buffer_pool.flush_all db.Db.pool
  done;
  let db', t' = crash_restart db t in
  Alcotest.(check int) "200 keys after checkpointed recovery" 200
    (List.length (keys_of t' db'));
  check_tree t'

let test_randomized_crash_sweep () =
  (* E6 core: random workloads, random crash points, always consistent. *)
  let failures = ref [] in
  for seed = 1 to 12 do
    let rng = Gist_util.Xoshiro.create seed in
    let db, t = make () in
    let committed = Hashtbl.create 64 in
    for txn_no = 0 to 3 do
      let txn = Txn.begin_txn db.Db.txns in
      for _ = 1 to 30 do
        let k = Gist_util.Xoshiro.int rng 500 in
        if Gist_util.Xoshiro.int rng 4 > 0 then begin
          if not (Hashtbl.mem committed k) then begin
            Gist.insert t txn ~key:(B.key k) ~rid:(rid k);
            Hashtbl.replace committed k ()
          end
        end
        else if Hashtbl.mem committed k then
          if Gist.delete t txn ~key:(B.key k) ~rid:(rid k) then Hashtbl.remove committed k
      done;
      Txn.commit db.Db.txns txn;
      if txn_no = 1 then Db.checkpoint db;
      if Gist_util.Xoshiro.bool rng then Gist_storage.Buffer_pool.flush_all db.Db.pool
    done;
    (* One in-flight loser. *)
    let loser = Txn.begin_txn db.Db.txns in
    for _ = 1 to 25 do
      let k = 500 + Gist_util.Xoshiro.int rng 200 in
      if Gist.search t loser (B.key k) = [] then Gist.insert t loser ~key:(B.key k) ~rid:(rid k)
    done;
    (* Random crash point at or after the current durable prefix. *)
    let durable = Int64.to_int (Log.durable_lsn db.Db.log) in
    let high = Int64.to_int (Log.last_lsn db.Db.log) in
    let cut = durable + Gist_util.Xoshiro.int rng (high - durable + 1) in
    Log.force db.Db.log (Int64.of_int cut);
    let db', t' = crash_restart db t in
    let expected = Hashtbl.fold (fun k () acc -> k :: acc) committed [] |> List.sort compare in
    let got = keys_of t' db' in
    if got <> expected then failures := Printf.sprintf "seed %d: wrong key set" seed :: !failures;
    let report = Tree_check.check t' in
    if not (Tree_check.ok report) then
      failures := Format.asprintf "seed %d: %a" seed Tree_check.pp report :: !failures
  done;
  Alcotest.(check (list string)) "no failures across crash sweep" [] !failures

let test_truncated_log_recovery () =
  (* checkpoint + flush + truncate, keep working, crash: restart must not
     need the reclaimed prefix. *)
  let db, t = make () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 120 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  Gist_storage.Buffer_pool.flush_all db.Db.pool;
  Db.checkpoint db;
  let reclaimed = Db.truncate_log db in
  Alcotest.(check bool) "something reclaimed" true (reclaimed > 100);
  (* Post-truncation traffic, including a loser. *)
  let txn = Txn.begin_txn db.Db.txns in
  for i = 121 to 160 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  let loser = Txn.begin_txn db.Db.txns in
  for i = 161 to 180 do
    Gist.insert t loser ~key:(B.key i) ~rid:(rid i)
  done;
  Log.force_all db.Db.log;
  let db', t' = crash_restart db t in
  Alcotest.(check (list int)) "committed set exact" (List.init 160 (fun i -> i + 1))
    (keys_of t' db');
  check_tree t'

let test_truncation_blocked_by_active_txn () =
  (* An active transaction's backchain pins the log even past a checkpoint. *)
  let db, t = make () in
  let long_runner = Txn.begin_txn db.Db.txns in
  Gist.insert t long_runner ~key:(B.key 1) ~rid:(rid 1);
  let txn = Txn.begin_txn db.Db.txns in
  for i = 10 to 80 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  Gist_storage.Buffer_pool.flush_all db.Db.pool;
  Db.checkpoint db;
  let reclaimed = Db.truncate_log db in
  (* Only the handful of records preceding the long-runner's Begin may go;
     its backchain pins everything after. *)
  Alcotest.(check bool)
    (Printf.sprintf "old active txn pins the log (reclaimed %d)" reclaimed)
    true (reclaimed < 10);
  (* After it ends, reclamation proceeds (next checkpoint). *)
  Txn.abort db.Db.txns long_runner;
  Gist_storage.Buffer_pool.flush_all db.Db.pool;
  Db.checkpoint db;
  Alcotest.(check bool) "reclaims after the pin is gone" true (Db.truncate_log db > 50);
  let db', t' = crash_restart db t in
  Alcotest.(check (list int)) "loser rolled back, committed intact"
    (List.init 71 (fun i -> i + 10))
    (keys_of t' db');
  check_tree t'

let test_redo_idempotent () =
  (* Restart with no intervening work must be a fixpoint. *)
  let db, t = make () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 80 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  let db1, t1 = crash_restart db t in
  let keys1 = keys_of t1 db1 in
  let db2, t2 = crash_restart db1 t1 in
  Alcotest.(check (list int)) "fixpoint" keys1 (keys_of t2 db2);
  check_tree t2

(* Satellite: recovery is idempotent. After a crash and one successful
   restart, running restart again — with no crash in between — is a pure
   no-op: the same tree comes back and the only new WAL records are the
   second restart's own checkpoint pair. *)
let test_restart_twice_noop () =
  let db, t = make () in
  let txn = Txn.begin_txn db.Db.txns in
  for i = 1 to 40 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.commit db.Db.txns txn;
  let loser = Txn.begin_txn db.Db.txns in
  for i = 41 to 50 do
    Gist.insert t loser ~key:(B.key i) ~rid:(rid i)
  done;
  Log.force_all db.Db.log;
  let db', t' = crash_restart db t in
  let keys1 = keys_of t' db' in
  let before = Log.last_lsn db'.Db.log in
  Recovery.restart db' B.ext;
  Alcotest.(check int64) "second restart appends only its checkpoint pair" 2L
    (Int64.sub (Log.last_lsn db'.Db.log) before);
  Alcotest.(check (list int)) "contents unchanged by second restart" keys1 (keys_of t' db');
  check_tree t'

(* Lazy Begin: a transaction logs nothing until its first update, so when
   its first logged action is a split, that split's NTA opens at nil (the
   Begin is appended with the NTA's first record). Rolling the loser back
   — by abort, or by restart after a crash — must undo its insert, leave
   the committed split in place, and keep every invariant. *)
let test_split_nta_first_logged () =
  List.iter
    (fun crash ->
      let db, t = make () in
      let txn = Txn.begin_txn db.Db.txns in
      for i = 1 to 8 do
        Gist.insert t txn ~key:(B.key (i * 10)) ~rid:(rid (i * 10))
      done;
      Txn.commit db.Db.txns txn;
      let splits = ref 0 in
      Gist.set_hook t (fun ev -> if ev = "split:root-grow" || ev = "split:done" then incr splits);
      let before = Log.last_lsn db.Db.log in
      let loser = Txn.begin_txn db.Db.txns in
      Gist.insert t loser ~key:(B.key 5) ~rid:(rid 5);
      Alcotest.(check bool) "the insert split the full leaf" true (!splits > 0);
      let mine = ref [] in
      Log.iter_from db.Db.log (Int64.succ before) (fun r ->
          if r.Gist_wal.Log_record.txn = Txn.id loser then
            mine := r.Gist_wal.Log_record.payload :: !mine);
      Alcotest.(check bool) "Begin, then the split NTA's first record" true
        (match List.rev !mine with
        | Gist_wal.Log_record.Begin :: Gist_wal.Log_record.Get_page _ :: _ -> true
        | _ -> false);
      let db, t =
        if crash then begin
          Log.force_all db.Db.log;
          crash_restart db t
        end
        else begin
          Txn.abort db.Db.txns loser;
          (db, t)
        end
      in
      Alcotest.(check (list int)) "committed keys only" (List.init 8 (fun i -> (i + 1) * 10))
        (keys_of t db);
      check_tree t)
    [ false; true ]

(* A savepoint taken before the first update records the nil position:
   rolling back to it undoes everything, and the transaction can go on to
   commit only what it did afterwards. *)
let test_savepoint_before_first_update () =
  let db, t = make () in
  let txn = Txn.begin_txn db.Db.txns in
  Txn.savepoint db.Db.txns txn "start";
  for i = 1 to 20 do
    Gist.insert t txn ~key:(B.key i) ~rid:(rid i)
  done;
  Txn.rollback_to_savepoint db.Db.txns txn "start";
  Alcotest.(check (list int)) "rolled back to empty" [] (keys_of t db);
  Gist.insert t txn ~key:(B.key 99) ~rid:(rid 99);
  Txn.commit db.Db.txns txn;
  let db', t' = crash_restart db t in
  Alcotest.(check (list int)) "only the post-savepoint insert survives" [ 99 ] (keys_of t' db');
  check_tree t'

(* The lazy Begin is appended under the transaction-table shard mutex that
   a checkpoint's capture takes, so a fuzzy checkpoint racing a
   transaction's first update either misses the transaction entirely (its
   Begin then follows [Checkpoint_begin]) or captures it with a last LSN
   at or below all its records. Either way restart finds every loser
   record. Checkpoints run back to back in a second domain while this one
   commits and aborts; once the loser's Begin shows up in the log, the
   checkpointer takes one last checkpoint — restart's anchor — racing the
   rest of that first (and only) update. Were the loser missing from that
   capture with its update already logged, no record past the anchor
   would lead restart to it. *)
let test_checkpoint_races_first_update () =
  for round = 1 to 20 do
    let db, t = make () in
    let loser_tid = Atomic.make None in
    let begun tid from =
      let seen = ref false in
      Log.iter_from db.Db.log from (fun r -> if r.Gist_wal.Log_record.txn = tid then seen := true);
      !seen
    in
    let ckpt =
      Domain.spawn (fun () ->
          let rec loop () =
            Db.checkpoint db;
            match Atomic.get loser_tid with
            | Some (tid, from) when begun tid from -> Db.checkpoint db
            | _ -> loop ()
          in
          loop ())
    in
    let committed = ref [] in
    for i = 1 to 20 do
      let txn = Txn.begin_txn db.Db.txns in
      Gist.insert t txn ~key:(B.key i) ~rid:(rid i);
      if (i + round) mod 4 = 0 then Txn.abort db.Db.txns txn
      else begin
        Txn.commit db.Db.txns txn;
        committed := i :: !committed
      end
    done;
    (* A delete logs one record: no split, no parent update. *)
    let loser = Txn.begin_txn db.Db.txns in
    let victim = List.hd !committed in
    Atomic.set loser_tid (Some (Txn.id loser, Log.last_lsn db.Db.log));
    ignore (Gist.delete t loser ~key:(B.key victim) ~rid:(rid victim));
    Domain.join ckpt;
    Log.force_all db.Db.log;
    let db', t' = crash_restart db t in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d: exactly the committed keys" round)
      (List.sort compare !committed) (keys_of t' db');
    check_tree t'
  done

let suite =
  [
    Alcotest.test_case "committed survive crash (no flush)" `Quick test_committed_survive;
    Alcotest.test_case "committed survive crash (flushed)" `Quick
      test_committed_survive_with_flush;
    Alcotest.test_case "uncommitted inserts rolled back" `Quick test_uncommitted_rolled_back;
    Alcotest.test_case "uncommitted deletes rolled back" `Quick
      test_uncommitted_delete_rolled_back;
    Alcotest.test_case "crash mid split NTA" `Quick test_crash_mid_nta;
    Alcotest.test_case "double crash" `Quick test_double_crash;
    Alcotest.test_case "checkpointed recovery" `Quick test_checkpointed_recovery;
    Alcotest.test_case "randomized crash sweep" `Quick test_randomized_crash_sweep;
    Alcotest.test_case "truncated log recovery" `Quick test_truncated_log_recovery;
    Alcotest.test_case "truncation blocked by active txn" `Quick
      test_truncation_blocked_by_active_txn;
    Alcotest.test_case "redo idempotent" `Quick test_redo_idempotent;
    Alcotest.test_case "restart twice is a no-op" `Quick test_restart_twice_noop;
    Alcotest.test_case "split NTA as the first logged action" `Quick test_split_nta_first_logged;
    Alcotest.test_case "savepoint before the first update" `Quick
      test_savepoint_before_first_update;
    Alcotest.test_case "checkpoint racing a first update" `Quick
      test_checkpoint_races_first_update;
  ]
