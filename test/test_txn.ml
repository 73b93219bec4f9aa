(* Unit tests for the transaction manager: logging discipline (a
   transaction's Begin is written lazily, with its first update, so a
   read-only transaction logs nothing), undo dispatch order, savepoints,
   NTAs, commit-LSN. *)

open Gist_txn
module Log_manager = Gist_wal.Log_manager
module Log_record = Gist_wal.Log_record
module Lsn = Gist_wal.Lsn
module Page_id = Gist_storage.Page_id
module Txn_id = Gist_util.Txn_id
module Metrics = Gist_obs.Metrics

let counter name = Metrics.counter_value (Metrics.snapshot ()) name

let get_page i = Log_record.Get_page { page = Page_id.of_int i }

let payloads log =
  let acc = ref [] in
  Log_manager.iter_from log 1L (fun r -> acc := r.Log_record.payload :: !acc);
  List.rev !acc

let make () =
  let log = Log_manager.create () in
  let locks = Lock_manager.create () in
  let txns = Txn_manager.create ~log ~locks in
  (log, locks, txns)

(* Install an undo handler that records the page of every undone
   Get_page (most recent first) and, like a real handler, logs a CLR so
   undo_next chains hold. *)
let record_undo txns =
  let undone = ref [] in
  Txn_manager.set_undo_handler txns (fun txn record ->
      (match record.Log_record.payload with
      | Log_record.Get_page { page } -> undone := Page_id.to_int page :: !undone
      | _ -> ());
      ignore
        (Txn_manager.log_update txns txn
           (Log_record.Clr { action = Log_record.Act_none; undo_next = record.Log_record.prev })));
  undone

let test_begin_commit_records () =
  let log, _, txns = make () in
  (* An empty transaction appends nothing and forces nothing; the barrier
     it skipped is counted. *)
  let elided0 = counter "wal.force_elided" in
  let t = Txn_manager.begin_txn txns in
  Txn_manager.commit txns t;
  Alcotest.(check int) "empty txn appends no record" 0 (Log_manager.appended log);
  Alcotest.(check int) "empty txn bumps no wal.force" 0 (Log_manager.forces log);
  Alcotest.(check int) "the skipped force is counted" 1 (counter "wal.force_elided" - elided0);
  (* One update: Begin (lazily, just before it), the update, Commit, End;
     commit forces the log through the Commit record. *)
  let t = Txn_manager.begin_txn txns in
  Alcotest.(check int) "begin alone appends nothing" 0 (Log_manager.appended log);
  ignore (Txn_manager.log_update txns t (get_page 1));
  Txn_manager.commit txns t;
  Alcotest.(check bool) "begin/update/commit/end sequence" true
    (payloads log = [ Log_record.Begin; get_page 1; Log_record.Commit; Log_record.End ]);
  Alcotest.(check int) "commit forced once" 1 (Log_manager.forces log);
  Alcotest.(check bool) "commit durable" true (Log_manager.durable_lsn log >= 3L)

let test_own_txn_lock () =
  let _, locks, txns = make () in
  let t = Txn_manager.begin_txn txns in
  let tid = Txn_manager.id t in
  (* Every transaction X-locks its own id (predicate blocking target). *)
  Alcotest.(check bool) "own id locked" false
    (Lock_manager.try_lock locks (Txn_id.of_int 999) (Lock_manager.Txn tid) Lock_manager.S);
  Txn_manager.commit txns t;
  Alcotest.(check bool) "released at end" true
    (Lock_manager.try_lock locks (Txn_id.of_int 999) (Lock_manager.Txn tid) Lock_manager.S)

let test_abort_undoes_in_reverse () =
  let _, _, txns = make () in
  let undone = record_undo txns in
  let t = Txn_manager.begin_txn txns in
  List.iter
    (fun i ->
      ignore (Txn_manager.log_update txns t (Log_record.Get_page { page = Page_id.of_int i })))
    [ 1; 2; 3 ];
  Txn_manager.abort txns t;
  Alcotest.(check (list int)) "reverse order" [ 1; 2; 3 ] !undone
(* undone collects by prepending: 3 then 2 then 1 => list [1;2;3] *)

let test_nta_skipped_by_undo () =
  let _, _, txns = make () in
  let undone = record_undo txns in
  let t = Txn_manager.begin_txn txns in
  ignore (Txn_manager.log_update txns t (Log_record.Get_page { page = Page_id.of_int 1 }));
  (* Structure modification inside an NTA: must NOT be undone. *)
  let nta = Txn_manager.begin_nta txns t in
  ignore (Txn_manager.log_nta txns t (Log_record.Get_page { page = Page_id.of_int 100 }));
  ignore (Txn_manager.log_nta txns t (Log_record.Get_page { page = Page_id.of_int 101 }));
  Txn_manager.end_nta txns t nta;
  ignore (Txn_manager.log_update txns t (Log_record.Get_page { page = Page_id.of_int 2 }));
  Txn_manager.abort txns t;
  Alcotest.(check (list int)) "NTA contents skipped" [ 1; 2 ] !undone

(* Lazy Begin: with nothing logged yet, the pre-NTA position is nil, and
   the closing CLR's undo_next = nil ends the undo there. *)
let test_nta_first_logged () =
  let log, _, txns = make () in
  let undone = record_undo txns in
  let t = Txn_manager.begin_txn txns in
  let nta = Txn_manager.begin_nta txns t in
  Alcotest.(check int64) "pre-NTA position of an unlogged txn" Lsn.nil nta;
  ignore (Txn_manager.log_nta txns t (get_page 100));
  ignore (Txn_manager.log_nta txns t (get_page 101));
  Txn_manager.end_nta txns t nta;
  ignore (Txn_manager.log_update txns t (get_page 1));
  Txn_manager.abort txns t;
  Alcotest.(check (list int)) "only the post-NTA update undone" [ 1 ] !undone;
  Alcotest.(check bool) "the NTA's first record follows a Begin" true
    (match payloads log with Log_record.Begin :: p :: _ -> p = get_page 100 | _ -> false)

let test_savepoint_before_first_update () =
  let _, _, txns = make () in
  let undone = record_undo txns in
  let t = Txn_manager.begin_txn txns in
  Txn_manager.savepoint txns t "start";
  List.iter (fun i -> ignore (Txn_manager.log_update txns t (get_page i))) [ 1; 2; 3 ];
  Txn_manager.rollback_to_savepoint txns t "start";
  Alcotest.(check (list int)) "everything undone" [ 1; 2; 3 ] !undone;
  undone := [];
  Txn_manager.commit txns t;
  Alcotest.(check (list int)) "nothing left to undo" [] !undone

let test_savepoint_partial_undo () =
  let _, _, txns = make () in
  let undone = record_undo txns in
  let t = Txn_manager.begin_txn txns in
  ignore (Txn_manager.log_update txns t (Log_record.Get_page { page = Page_id.of_int 1 }));
  Txn_manager.savepoint txns t "sp";
  ignore (Txn_manager.log_update txns t (Log_record.Get_page { page = Page_id.of_int 2 }));
  ignore (Txn_manager.log_update txns t (Log_record.Get_page { page = Page_id.of_int 3 }));
  Txn_manager.rollback_to_savepoint txns t "sp";
  Alcotest.(check (list int)) "only post-savepoint undone" [ 2; 3 ] !undone;
  (* A later full abort undoes the rest, skipping already-compensated work. *)
  undone := [];
  Txn_manager.abort txns t;
  Alcotest.(check (list int)) "only pre-savepoint remains" [ 1 ] !undone

let test_missing_savepoint () =
  let _, _, txns = make () in
  let t = Txn_manager.begin_txn txns in
  Alcotest.check_raises "unknown savepoint" Not_found (fun () ->
      Txn_manager.rollback_to_savepoint txns t "nope");
  Txn_manager.commit txns t

let test_commit_lsn () =
  let log, _, txns = make () in
  let beyond_log () = Txn_manager.commit_lsn txns > Log_manager.last_lsn log in
  Alcotest.(check bool) "beyond log when idle" true (beyond_log ());
  let t1 = Txn_manager.begin_txn txns in
  let t2 = Txn_manager.begin_txn txns in
  let reader = Txn_manager.begin_txn txns in
  (* Transactions that have logged nothing own no page record: they must
     not pin the bound (at nil, or anywhere else). *)
  Alcotest.(check bool) "unlogged txns ignored" true (beyond_log ());
  ignore (Txn_manager.log_update txns t1 (get_page 1));
  let t1_begin = Int64.pred (Txn_manager.last_lsn t1) in
  ignore (Txn_manager.log_update txns t2 (get_page 2));
  let t2_begin = Int64.pred (Txn_manager.last_lsn t2) in
  Alcotest.(check int64) "oldest logged begin" t1_begin (Txn_manager.commit_lsn txns);
  Txn_manager.commit txns t1;
  Alcotest.(check int64) "advances as txns end" t2_begin (Txn_manager.commit_lsn txns);
  Txn_manager.commit txns t2;
  Alcotest.(check bool) "a live reader still pins nothing" true (beyond_log ());
  Txn_manager.commit txns reader

let test_end_hooks () =
  let _, _, txns = make () in
  let ended = ref [] in
  Txn_manager.add_end_hook txns (fun tid -> ended := Txn_id.to_int tid :: !ended);
  let t1 = Txn_manager.begin_txn txns in
  let t2 = Txn_manager.begin_txn txns in
  Txn_manager.set_undo_handler txns (fun _ _ -> ());
  Txn_manager.commit txns t1;
  Txn_manager.abort txns t2;
  Alcotest.(check (list int)) "hooks on commit and abort"
    [ Txn_id.to_int (Txn_manager.id t2); Txn_id.to_int (Txn_manager.id t1) ]
    !ended

let test_is_committed_is_active () =
  let _, _, txns = make () in
  let t1 = Txn_manager.begin_txn txns in
  let tid1 = Txn_manager.id t1 in
  Alcotest.(check bool) "active" true (Txn_manager.is_active txns tid1);
  Alcotest.(check bool) "not yet committed" false (Txn_manager.is_committed txns tid1);
  ignore (Txn_manager.log_update txns t1 (get_page 1));
  Txn_manager.commit txns t1;
  Alcotest.(check bool) "not active" false (Txn_manager.is_active txns tid1);
  Alcotest.(check bool) "committed" true (Txn_manager.is_committed txns tid1);
  (* A read-only commit takes no commit timestamp: it leaves no
     committed-table entry, and nothing of it is left to see. *)
  let published = Txn_manager.published_cts txns in
  let t2 = Txn_manager.begin_txn txns in
  let tid2 = Txn_manager.id t2 in
  Alcotest.(check bool) "reader active" true (Txn_manager.is_active txns tid2);
  Txn_manager.commit txns t2;
  Alcotest.(check bool) "reader not active" false (Txn_manager.is_active txns tid2);
  Alcotest.(check bool) "no committed-table entry" false (Txn_manager.is_committed txns tid2);
  Alcotest.(check int) "no commit timestamp taken" published (Txn_manager.published_cts txns)

let suite =
  [
    Alcotest.test_case "begin/commit record sequence" `Quick test_begin_commit_records;
    Alcotest.test_case "own txn-id lock" `Quick test_own_txn_lock;
    Alcotest.test_case "abort undoes in reverse" `Quick test_abort_undoes_in_reverse;
    Alcotest.test_case "NTA skipped by undo" `Quick test_nta_skipped_by_undo;
    Alcotest.test_case "savepoint partial undo" `Quick test_savepoint_partial_undo;
    Alcotest.test_case "missing savepoint" `Quick test_missing_savepoint;
    Alcotest.test_case "commit-LSN tracking" `Quick test_commit_lsn;
    Alcotest.test_case "end hooks" `Quick test_end_hooks;
    Alcotest.test_case "is_committed / is_active" `Quick test_is_committed_is_active;
    Alcotest.test_case "NTA as the first logged action" `Quick test_nta_first_logged;
    Alcotest.test_case "savepoint before the first update" `Quick
      test_savepoint_before_first_update;
  ]
