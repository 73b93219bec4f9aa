(* MVCC snapshot reads (PROTOCOL.md §9).

   - a qcheck equivalence property: on a quiesced tree, a snapshot scan
     (and the streaming snapshot cursor) returns exactly what a locked
     search returns, across random op histories and queries;
   - reader isolation: snapshot scans (one-shot and streaming) acquire
     zero locks and attach zero predicates — the lock.*/pred.* counters
     do not move;
   - a scan under a concurrent writer sees exactly the snapshot-time
     state, scan after scan, while a snapshot begun after the churn sees
     the final state;
   - watermark: an open snapshot blocks version GC at vacuum; ending it
     advances the watermark and the same vacuum reclaims
     ([mvcc.gc_reclaimed]);
   - tree size stays bounded under delete churn with short-lived
     snapshots continuously opening and closing (the watermark advances,
     so versions do not pile up);
   - restart: a snapshot begun on the recovered environment sees exactly
     the committed set — losers are gone, commit timestamps re-derived;
   - the mvcc = false knob: begin_ro refuses, the write path is unchanged;
   - a crash-fuzz sweep (FUZZ_POINTS budget, shared with test_fault /
     test_eviction via bin/check.sh) with a racing snapshot-reader domain
     in every fault mode;
   - a transient I/O error at each log append of a split leaves no torn
     node and no stranded latch for snapshot and locked readers. *)

open Gist_core
module B = Gist_ams.Btree_ext
module Rid = Gist_storage.Rid
module Latch = Gist_storage.Latch
module Txn = Gist_txn.Txn_manager
module Lock_manager = Gist_txn.Lock_manager
module Metrics = Gist_obs.Metrics
module Crash_fuzz = Gist_fault.Crash_fuzz
module Fault = Gist_fault.Fault

let rid i = Rid.make ~page:1000 ~slot:i

let small_config =
  { Db.default_config with Db.max_entries = 8; pool_capacity = 64; page_size = 1024 }

let make_tree ?(config = small_config) () =
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  (db, t)

let sorted_keys results = results |> List.map (fun (k, _) -> B.key_value k) |> List.sort compare

let counter name = Metrics.counter_value (Metrics.snapshot ()) name

let check_tree t =
  let report = Tree_check.check t in
  Alcotest.(check bool) (Format.asprintf "%a" Tree_check.pp report) true (Tree_check.ok report)

let rec with_retry db f =
  let txn = Txn.begin_txn db.Db.txns in
  match f txn with
  | v ->
    Txn.commit db.Db.txns txn;
    v
  | exception Lock_manager.Deadlock _ ->
    Txn.abort db.Db.txns txn;
    with_retry db f

let snap_scan db t q =
  let ro = Db.begin_ro db in
  let got = Gist.snapshot_search t ro q in
  Db.end_ro db ro;
  got

let drain next c =
  let rec go acc = match next c with None -> acc | Some hit -> go (hit :: acc) in
  go []

let snap_stream db t q =
  let ro = Db.begin_ro db in
  let got = drain Cursor.snap_next (Cursor.open_snapshot t ro q) in
  Db.end_ro db ro;
  got

(* --- qcheck equivalence: snapshot == locked search, quiesced --------- *)

let test_equivalence_qcheck =
  QCheck.Test.make ~count:40 ~name:"snapshot scan equals locked search"
    QCheck.(
      pair (small_list (pair (int_bound 500) bool)) (small_list (pair (int_bound 500) (int_bound 60))))
    (fun (ops, queries) ->
      let db, t = make_tree () in
      let present = Hashtbl.create 64 in
      List.iter
        (fun (k, ins) ->
          (* One committed transaction per op, so deleted keys become
             committed versions the snapshot must judge, not skip via
             live-txn rules. *)
          if ins then begin
            if not (Hashtbl.mem present k) then begin
              with_retry db (fun txn -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k));
              Hashtbl.replace present k ()
            end
          end
          else if Hashtbl.mem present k then begin
            with_retry db (fun txn -> ignore (Gist.delete t txn ~key:(B.key k) ~rid:(rid k)));
            Hashtbl.remove present k
          end)
        ops;
      let ro = Db.begin_ro db in
      let ok =
        List.for_all
          (fun (lo, w) ->
            let q = B.range lo (lo + w) in
            let locked = with_retry db (fun txn -> sorted_keys (Gist.search t txn q)) in
            let snap = sorted_keys (Gist.snapshot_search t ro q) in
            let streamed = sorted_keys (drain Cursor.snap_next (Cursor.open_snapshot t ro q)) in
            snap = locked && streamed = locked)
          queries
      in
      Db.end_ro db ro;
      ok)

(* --- reader isolation: no locks, no predicates ----------------------- *)

let test_zero_locks_zero_preds () =
  let db, t = make_tree () in
  with_retry db (fun txn ->
      List.iter (fun k -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k)) (List.init 400 Fun.id));
  (* Delete some keys so visibility filtering actually runs. *)
  with_retry db (fun txn ->
      List.iter
        (fun k -> ignore (Gist.delete t txn ~key:(B.key k) ~rid:(rid k)))
        (List.init 100 (fun i -> 4 * i)));
  let locks0 = counter "lock.acquire"
  and reg0 = counter "pred.register"
  and att0 = counter "pred.attach"
  and scans0 = counter "mvcc.snapshot_scan"
  and skipped0 = counter "mvcc.version_skipped" in
  for _ = 1 to 5 do
    List.iter
      (fun scan ->
        let got = scan db t (B.range 0 10_000) in
        Alcotest.(check int) "snapshot sees the 300 live keys" 300 (List.length got))
      [ snap_scan; snap_stream ]
  done;
  Alcotest.(check int) "zero lock acquisitions across 10 snapshot scans" 0
    (counter "lock.acquire" - locks0);
  Alcotest.(check int) "zero predicates registered" 0 (counter "pred.register" - reg0);
  Alcotest.(check int) "zero predicates attached" 0 (counter "pred.attach" - att0);
  Alcotest.(check int) "scans counted" 10 (counter "mvcc.snapshot_scan" - scans0);
  Alcotest.(check bool) "deleted versions were skipped by visibility" true
    (counter "mvcc.version_skipped" > skipped0);
  Alcotest.(check int) "no latches leaked" 0 (Latch.held_by_self ())

(* --- a scan under a concurrent writer sees snapshot-time state ------- *)

let test_scan_under_writer () =
  let db, t = make_tree () in
  let evens = List.init 300 (fun i -> 2 * i) in
  with_retry db (fun txn ->
      List.iter (fun k -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k)) evens);
  let ro = Db.begin_ro db in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        (* Churn odds and delete a growing slice of the evens: the open
           snapshot must keep seeing every even anyway. *)
        let i = ref 0 in
        while not (Atomic.get stop) do
          let odd = 1 + (2 * (!i mod 400)) in
          with_retry db (fun txn -> Gist.insert t txn ~key:(B.key odd) ~rid:(rid odd));
          with_retry db (fun txn -> ignore (Gist.delete t txn ~key:(B.key odd) ~rid:(rid odd)));
          let even = 2 * (!i mod 300) in
          with_retry db (fun txn -> ignore (Gist.delete t txn ~key:(B.key even) ~rid:(rid even)));
          if !i mod 50 = 49 then Gist.vacuum t;
          incr i
        done;
        !i)
  in
  let deadline = Unix.gettimeofday () +. 0.5 in
  let rounds = ref 0 in
  while Unix.gettimeofday () < deadline do
    let got = sorted_keys (Gist.snapshot_search t ro (B.range 0 10_000)) in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d: snapshot still sees exactly the preloaded evens" !rounds)
      evens got;
    incr rounds
  done;
  Atomic.set stop true;
  let writer_rounds = Domain.join writer in
  Db.end_ro db ro;
  Alcotest.(check bool) "reader actually raced a writer" true (!rounds > 0 && writer_rounds > 0);
  (* A snapshot begun now sees the final state: whatever evens survive. *)
  let final_locked = with_retry db (fun txn -> sorted_keys (Gist.search t txn (B.range 0 10_000))) in
  let final_snap = sorted_keys (snap_scan db t (B.range 0 10_000)) in
  Alcotest.(check (list int)) "fresh snapshot sees the post-churn state" final_locked final_snap;
  Alcotest.(check int) "no latches leaked" 0 (Latch.held_by_self ());
  check_tree t

(* --- watermark: open snapshots block version GC, ending them unblocks - *)

let test_watermark_blocks_gc () =
  let db, t = make_tree () in
  let keys = List.init 200 Fun.id in
  with_retry db (fun txn ->
      List.iter (fun k -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k)) keys);
  let ro_old = Db.begin_ro db in
  with_retry db (fun txn ->
      List.iter
        (fun k -> ignore (Gist.delete t txn ~key:(B.key k) ~rid:(rid k)))
        (List.filter (fun k -> k mod 2 = 1) keys));
  let ro_new = Db.begin_ro db in
  let reclaimed0 = counter "mvcc.gc_reclaimed" in
  Gist.vacuum t;
  Alcotest.(check int) "vacuum under an old snapshot reclaims nothing" 0
    (counter "mvcc.gc_reclaimed" - reclaimed0);
  Alcotest.(check int) "physical entries all still present" 200 (Gist.entry_count t);
  Alcotest.(check int) "old snapshot still sees every key" 200
    (List.length (Gist.snapshot_search t ro_old (B.range 0 1_000)));
  Db.end_ro db ro_old;
  (* ro_new began after the deletes committed: the watermark now sits at
     or past their commit timestamp, so vacuum may reclaim. *)
  Gist.vacuum t;
  Alcotest.(check int) "watermark advanced: deleted versions reclaimed" 100
    (counter "mvcc.gc_reclaimed" - reclaimed0);
  Alcotest.(check int) "physical entries dropped" 100 (Gist.entry_count t);
  Alcotest.(check int) "surviving snapshot sees the post-delete state" 100
    (List.length (Gist.snapshot_search t ro_new (B.range 0 1_000)));
  Db.end_ro db ro_new;
  check_tree t

(* --- tree size stays bounded under churn + short snapshots ----------- *)

let test_bounded_size_under_churn () =
  let db, t = make_tree () in
  let live = List.init 100 Fun.id in
  with_retry db (fun txn ->
      List.iter (fun k -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k)) live);
  let worst = ref 0 in
  for round = 0 to 29 do
    (* Each round churns 50 transient keys through insert+delete while a
       short-lived snapshot is (briefly) open, then vacuums. With the
       watermark advancing every round, dead versions must not pile up. *)
    for i = 0 to 49 do
      let k = 1_000 + (round * 50) + i in
      with_retry db (fun txn -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k));
      with_retry db (fun txn -> ignore (Gist.delete t txn ~key:(B.key k) ~rid:(rid k)))
    done;
    let got = snap_scan db t (B.range 0 100_000) in
    Alcotest.(check int)
      (Printf.sprintf "round %d: snapshot sees exactly the stable keys" round)
      (List.length live) (List.length got);
    Gist.vacuum t;
    worst := max !worst (Gist.entry_count t)
  done;
  (* 1500 dead versions churned through; a leaky watermark would retain
     them all. Allow one round of slack over the 100 live entries. *)
  Alcotest.(check bool)
    (Printf.sprintf "entry count stays bounded (worst %d)" !worst)
    true (!worst <= 200);
  check_tree t

(* --- restart: snapshots on the recovered environment ----------------- *)

let test_snapshot_after_restart () =
  let db, t = make_tree () in
  let root = Gist.root t in
  with_retry db (fun txn ->
      List.iter (fun k -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k)) (List.init 60 Fun.id));
  with_retry db (fun txn ->
      List.iter
        (fun k -> ignore (Gist.delete t txn ~key:(B.key k) ~rid:(rid k)))
        (List.init 10 (fun i -> 6 * i)));
  (* A loser in flight at the crash: its versions must be invisible to
     every post-restart snapshot. *)
  let loser = Txn.begin_txn db.Db.txns in
  List.iter (fun k -> Gist.insert t loser ~key:(B.key k) ~rid:(rid k)) (List.init 8 (fun i -> 500 + i));
  ignore (Gist.delete t loser ~key:(B.key 1) ~rid:(rid 1));
  let db' = Db.crash db in
  Recovery.restart db' B.ext;
  let t' = Gist.open_existing db' B.ext ~root () in
  (* begin_ro immediately after restart — before any new commit — is the
     edge case: the timestamp counter was rebuilt by analysis, and the
     snapshot must see exactly the committed set. *)
  let snap = sorted_keys (snap_scan db' t' (B.range 0 10_000)) in
  let expect =
    List.init 60 Fun.id |> List.filter (fun k -> not (k mod 6 = 0 && k < 60))
  in
  Alcotest.(check (list int)) "post-restart snapshot = exactly the committed set" expect snap;
  let locked = with_retry db' (fun txn -> sorted_keys (Gist.search t' txn (B.range 0 10_000))) in
  Alcotest.(check (list int)) "snapshot and locked scan agree after restart" locked snap;
  check_tree t'

(* --- the knob: mvcc = false ------------------------------------------ *)

let test_mvcc_off () =
  let config = { small_config with Db.mvcc = false } in
  let db, t = make_tree ~config () in
  with_retry db (fun txn ->
      List.iter (fun k -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k)) (List.init 50 Fun.id));
  (match Db.begin_ro db with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "begin_ro must refuse when config.mvcc = false");
  Alcotest.(check int) "the locking read path is unaffected" 50
    (List.length (with_retry db (fun txn -> Gist.search t txn (B.range 0 1_000))))

(* --- crash fuzz with racing snapshot readers ------------------------- *)

let fuzz_points () =
  match Sys.getenv_opt "FUZZ_POINTS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 200)
  | None -> 200

let test_crash_fuzz_with_readers () =
  let points = fuzz_points () in
  let summaries = Crash_fuzz.run_sweep ~snapshot_reader:true ~seed:20260808 ~points () in
  List.iter
    (fun s ->
      List.iter
        (fun v -> Alcotest.failf "oracle violation with racing snapshot reader: %s" v)
        s.Crash_fuzz.violations;
      Alcotest.(check bool)
        (Printf.sprintf "%s mode crashed at least once" (Crash_fuzz.mode_name s.Crash_fuzz.mode))
        true
        (s.Crash_fuzz.crashes > 0))
    summaries;
  let total = List.fold_left (fun acc s -> acc + s.Crash_fuzz.points) 0 summaries in
  Alcotest.(check bool) "sweep covered the requested budget" true (total >= points)

(* --- a failed log append inside a split -------------------------------- *)

(* Run [f] in a domain of its own; fail if it has not returned within
   [secs]. [f] reports the step it is on, so a step stuck on a latch the
   failed split stranded names itself instead of hanging the suite. *)
let within ~secs label f =
  let step = Atomic.make "start" and result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (match f (Atomic.set step) with () -> Ok () | exception e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. secs in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  match Atomic.get result with
  | None -> Alcotest.failf "%s: step %S did not return within %.0f s" label (Atomic.get step) secs
  | Some r -> (
    Domain.join d;
    match r with Ok () -> () | Error e -> raise e)

(* A transient I/O error on the n-th log append after a split's hook. The
   ninth key overflows the root leaf, so one insert runs a root grow and
   then a node split. After "split:root-grow", n = 1..5 hits the lazy
   Begin, Get_page, Root_grow, the NTA's closing CLR and the node split's
   Get_page; after "split:node", it hits Get_page, Split,
   Internal_entry_add, Internal_entry_update and the closing CLR. The
   insert raises; a snapshot scan before the abort still sees every
   committed key (no torn node, no stranded latch); after the abort a
   locked search returns exactly the committed keys and the tree passes
   its invariant check. *)
let test_split_append_error () =
  let committed = List.init 8 Fun.id in
  List.iter
    (fun hook_prefix ->
      for n = 1 to 5 do
        let label = Printf.sprintf "%s, append #%d" hook_prefix n in
        within ~secs:30. label (fun step ->
            let db, t = make_tree () in
            with_retry db (fun txn ->
                List.iter (fun k -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k)) committed);
            let armed = ref None in
            Gist.set_hook t (fun ev ->
                if !armed = None && String.starts_with ~prefix:hook_prefix ev then
                  armed :=
                    Some
                      (Fault.arm ~disk:db.Db.disk ~log:db.Db.log
                         [ { Fault.site = Fault.Wal_append; at = n; act = Fault.Io_error_once } ]));
            step "insert";
            let txn = Txn.begin_txn db.Db.txns in
            let raised =
              match Gist.insert t txn ~key:(B.key 8) ~rid:(rid 8) with
              | () -> false
              | exception Fault.Io_error -> true
            in
            Gist.set_hook t ignore;
            Option.iter Fault.disarm !armed;
            Alcotest.(check bool) (label ^ ": the split ran") true (!armed <> None);
            Alcotest.(check bool) (label ^ ": the insert raised Io_error") true raised;
            step "snapshot scan";
            Alcotest.(check (list int))
              (label ^ ": snapshot scan sees every committed key")
              committed
              (sorted_keys (snap_scan db t (B.range 0 1_000)));
            step "abort";
            Txn.abort db.Db.txns txn;
            step "locked search";
            Alcotest.(check (list int))
              (label ^ ": locked search after abort")
              committed
              (with_retry db (fun txn -> sorted_keys (Gist.search t txn (B.range 0 1_000))));
            step "tree check";
            check_tree t)
      done)
    [ "split:root-grow"; "split:node" ]

let suite =
  [
    QCheck_alcotest.to_alcotest test_equivalence_qcheck;
    Alcotest.test_case "snapshot scans take zero locks, zero predicates" `Quick
      test_zero_locks_zero_preds;
    Alcotest.test_case "scan under a writer sees snapshot-time state" `Quick test_scan_under_writer;
    Alcotest.test_case "open snapshot blocks GC; ending it unblocks" `Quick
      test_watermark_blocks_gc;
    Alcotest.test_case "tree size bounded under churn + snapshots" `Quick
      test_bounded_size_under_churn;
    Alcotest.test_case "post-restart snapshots see the committed set" `Quick
      test_snapshot_after_restart;
    Alcotest.test_case "mvcc = false refuses begin_ro" `Quick test_mvcc_off;
    Alcotest.test_case "crash-fuzz sweep with snapshot readers (FUZZ_POINTS)" `Quick
      test_crash_fuzz_with_readers;
    Alcotest.test_case "a failed append inside a split tears nothing" `Quick
      test_split_append_error;
  ]
