(* Optimistic lock coupling on the read path (PROTOCOL.md §7).

   - version-word lifecycle unit tests on the latch itself;
   - a qcheck property: all five read entry points (RR search, RC search,
     snapshot search, cursor, snapshot cursor) return exactly the
     sequential model's keys, across random op histories and queries, at
     the default retry budget and at olc_retries = 0 (always S-latched);
   - a concurrent mixer: writer domains churn odd keys through
     insert/split/delete while a reader searches stable even keys
     latch-free and must see exactly them;
   - a forced-restart test: a writer domain flips the root's version word
     under locked and snapshot readers, which must restart
     (olc.restart > 0) and still return correct results;
   - olc_retries = 0 forces the fallback path;
   - a crash-fuzz re-run (clean mode), whose workload and post-restart
     scans traverse latch-free.

   The mixer and flipper searches run at Read_committed: degree-2 keeps
   the reader's record locks instant-duration so the churn domains never
   deadlock against it. *)

open Gist_core
module B = Gist_ams.Btree_ext
module Rid = Gist_storage.Rid
module Latch = Gist_storage.Latch
module Buffer_pool = Gist_storage.Buffer_pool
module Txn = Gist_txn.Txn_manager
module Lock_manager = Gist_txn.Lock_manager
module Metrics = Gist_obs.Metrics
module Crash_fuzz = Gist_fault.Crash_fuzz

let rid i = Rid.make ~page:1000 ~slot:i

let small_config =
  { Db.default_config with Db.max_entries = 8; pool_capacity = 64; page_size = 1024 }

let make_tree ?(config = small_config) () =
  let db = Db.create ~config () in
  let t = Gist.create db B.ext ~empty_bp:B.Empty () in
  (db, t)

let sorted_keys results =
  results |> List.map (fun (k, _) -> B.key_value k) |> List.sort compare

let counter name = Metrics.counter_value (Metrics.snapshot ()) name

let check_tree t =
  let report = Tree_check.check t in
  Alcotest.(check bool) (Format.asprintf "%a" Tree_check.pp report) true (Tree_check.ok report)

(* Deadlock-retry for transactions racing the mixer. *)
let rec with_retry db f =
  let txn = Txn.begin_txn db.Db.txns in
  match f txn with
  | v ->
    Txn.commit db.Db.txns txn;
    v
  | exception Lock_manager.Deadlock _ ->
    Txn.abort db.Db.txns txn;
    with_retry db f

(* --- version-word lifecycle ------------------------------------------ *)

let test_latch_version_word () =
  let l = Latch.create () in
  Alcotest.(check int) "fresh latch version is 0" 0 (Latch.version l);
  (match Latch.optimistic l with
  | Some 0 -> ()
  | v -> Alcotest.failf "optimistic on a fresh latch: %s"
           (match v with Some n -> string_of_int n | None -> "None"));
  Latch.acquire l Latch.S;
  Alcotest.(check int) "S acquire leaves the word alone" 0 (Latch.version l);
  Latch.release l Latch.S;
  let v0 = match Latch.optimistic l with Some v -> v | None -> Alcotest.fail "unheld yet odd" in
  Latch.acquire l Latch.X;
  Alcotest.(check int) "X acquire bumps to odd" 1 (Latch.version l);
  Alcotest.(check bool) "word is odd: no optimistic entry" true (Latch.optimistic l = None);
  Alcotest.(check bool) "stale snapshot fails validation" false (Latch.validate l v0);
  Latch.release l Latch.X;
  Alcotest.(check int) "X release bumps back to even" 2 (Latch.version l);
  Alcotest.(check bool) "snapshot from before the writer stays dead" false (Latch.validate l v0);
  Alcotest.(check bool) "try_acquire X bumps too" true (Latch.try_acquire l Latch.X);
  Alcotest.(check int) "odd while held" 3 (Latch.version l);
  Latch.release l Latch.X;
  let v1 = match Latch.optimistic l with Some v -> v | None -> Alcotest.fail "unheld yet odd" in
  Alcotest.(check bool) "a fresh snapshot validates while nothing moves" true
    (Latch.validate l v1)

(* --- qcheck: every read entry point equals the sequential model ------ *)

let drain next c =
  let rec go acc = match next c with None -> acc | Some hit -> go (hit :: acc) in
  go []

(* The keys each of the five read entry points returns for [q]. *)
let read_entry_points db t q =
  let rr, rc, cursor =
    with_retry db (fun txn ->
        let c = Cursor.open_ t txn q in
        let cursor = drain Cursor.next c in
        Cursor.close c;
        (Gist.search t txn q, Gist.search ~isolation:`Read_committed t txn q, cursor))
  in
  let ro = Db.begin_ro db in
  let snapshot = Gist.snapshot_search t ro q in
  let snap_cursor = drain Cursor.snap_next (Cursor.open_snapshot t ro q) in
  Db.end_ro db ro;
  List.map sorted_keys [ rr; rc; snapshot; cursor; snap_cursor ]

let test_model_qcheck =
  QCheck.Test.make ~count:40 ~name:"read entry points equal the sequential model"
    QCheck.(
      pair (small_list (pair (int_bound 500) bool)) (small_list (pair (int_bound 500) (int_bound 60))))
    (fun (ops, queries) ->
      List.for_all
        (fun olc_retries ->
          let db, t = make_tree ~config:{ small_config with Db.olc_retries } () in
          let txn = Txn.begin_txn db.Db.txns in
          let present = Hashtbl.create 64 in
          List.iter
            (fun (k, ins) ->
              if ins then begin
                if not (Hashtbl.mem present k) then begin
                  Gist.insert t txn ~key:(B.key k) ~rid:(rid k);
                  Hashtbl.replace present k ()
                end
              end
              else if Hashtbl.mem present k then begin
                ignore (Gist.delete t txn ~key:(B.key k) ~rid:(rid k));
                Hashtbl.remove present k
              end)
            ops;
          Txn.commit db.Db.txns txn;
          List.for_all
            (fun (lo, w) ->
              let expect =
                Hashtbl.fold (fun k () acc -> if k >= lo && k <= lo + w then k :: acc else acc)
                  present []
                |> List.sort compare
              in
              List.for_all (( = ) expect) (read_entry_points db t (B.range lo (lo + w))))
            queries)
        [ small_config.Db.olc_retries; 0 ])

(* --- concurrent mixer: stable evens must read exactly ---------------- *)

let test_concurrent_mixer () =
  let db, t = make_tree () in
  let evens = List.init 300 (fun i -> 2 * i) in
  with_retry db (fun txn ->
      List.iter (fun k -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k)) evens);
  let stop = Atomic.make false in
  let mixers =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            (* Churn a private slice of odd keys: every insert/delete pair
               forces splits and GC around the evens the reader scans. *)
            let base = 1 + (2 * d * 1000) in
            let i = ref 0 in
            while not (Atomic.get stop) do
              let k = base + (2 * (!i mod 400)) in
              with_retry db (fun txn -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k));
              with_retry db (fun txn ->
                  ignore (Gist.delete t txn ~key:(B.key k) ~rid:(rid k)));
              incr i
            done))
  in
  let attempts0 = counter "olc.read_attempt" in
  let deadline = Unix.gettimeofday () +. 0.5 in
  let rounds = ref 0 in
  while Unix.gettimeofday () < deadline do
    let lo = 2 * (!rounds mod 250) in
    let expect = List.filter (fun k -> k >= lo && k <= lo + 100) evens in
    let got =
      with_retry db (fun txn ->
          Gist.search ~isolation:`Read_committed t txn (B.range lo (lo + 100)))
    in
    let got_evens = List.filter (fun k -> k mod 2 = 0) (sorted_keys got) in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d: stable even keys in [%d,%d]" !rounds lo (lo + 100))
      expect got_evens;
    incr rounds
  done;
  Atomic.set stop true;
  List.iter Domain.join mixers;
  Alcotest.(check bool) "reader actually ran" true (!rounds > 0);
  Alcotest.(check bool) "optimistic visits actually happened" true
    (counter "olc.read_attempt" > attempts0);
  Alcotest.(check int) "no latches leaked" 0 (Latch.held_by_self ());
  (* Quiesced: every odd key was deleted again, so exactly the evens
     remain. *)
  let txn = Txn.begin_txn db.Db.txns in
  let final = sorted_keys (Gist.search t txn (B.range 0 10_000)) in
  Txn.commit db.Db.txns txn;
  Alcotest.(check (list int)) "post-mixer tree holds exactly the evens" evens final;
  check_tree t

(* --- forced restarts: a writer flips the version word mid-read ------- *)

let test_forced_restarts () =
  let db, t = make_tree () in
  let keys = List.init 400 (fun i -> i) in
  with_retry db (fun txn ->
      List.iter (fun k -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k)) keys);
  let root = Gist.root t in
  let stop = Atomic.make false in
  let flipper =
    Domain.spawn (fun () ->
        (* X-latch the root frame in a tight loop, holding each grant for
           a few microseconds: optimistic readers see the word odd (or
           changed) and must restart. No data is modified, so results
           stay full-range correct. *)
        while not (Atomic.get stop) do
          Buffer_pool.with_page db.Db.pool root Latch.X (fun _ ->
              let t0 = Gist_util.Clock.now_ns () in
              while Gist_util.Clock.now_ns () - t0 < 5_000 do
                Domain.cpu_relax ()
              done)
        done)
  in
  let restarts0 = counter "olc.restart" in
  let deadline = Unix.gettimeofday () +. 0.5 in
  let n = ref 0 in
  while Unix.gettimeofday () < deadline do
    let q = B.range 0 1_000 in
    let got = with_retry db (fun txn -> Gist.search ~isolation:`Read_committed t txn q) in
    let ro = Db.begin_ro db in
    let snap = Gist.snapshot_search t ro q in
    let streamed = drain Cursor.snap_next (Cursor.open_snapshot t ro q) in
    Db.end_ro db ro;
    List.iter
      (fun (what, hits) ->
        Alcotest.(check int)
          (Printf.sprintf "%s %d sees every key through the flipping" what !n)
          (List.length keys) (List.length hits))
      [ ("search", got); ("snapshot search", snap); ("snapshot cursor", streamed) ];
    incr n
  done;
  Atomic.set stop true;
  Domain.join flipper;
  Alcotest.(check bool) "version flips forced restarts" true (counter "olc.restart" > restarts0);
  Alcotest.(check int) "no latches leaked" 0 (Latch.held_by_self ())

(* --- retry budget ---------------------------------------------------- *)

let test_zero_retries_falls_back () =
  let config = { small_config with Db.olc_retries = 0 } in
  let db, t = make_tree ~config () in
  let txn = Txn.begin_txn db.Db.txns in
  List.iter (fun k -> Gist.insert t txn ~key:(B.key k) ~rid:(rid k)) (List.init 200 Fun.id);
  let fallbacks0 = counter "olc.fallback" in
  let attempts0 = counter "olc.read_attempt" in
  Alcotest.(check int) "exhausted budget still answers correctly" 200
    (List.length (Gist.search t txn (B.range 0 1_000)));
  Txn.commit db.Db.txns txn;
  Alcotest.(check bool) "every internal visit fell back" true
    (counter "olc.fallback" > fallbacks0);
  Alcotest.(check int) "no optimistic attempt was made" attempts0 (counter "olc.read_attempt")

(* --- crash fuzz through the optimistic read path --------------------- *)

let test_crash_fuzz_with_olc () =
  (* A clean-mode slice of the sweep: crash/recover cycles whose workload
     and post-restart oracle scans both traverse latch-free. *)
  let s = Crash_fuzz.run_mode ~seed:20260808 ~points:25 Crash_fuzz.Clean in
  List.iter (fun v -> Alcotest.failf "oracle violation under OLC: %s" v) s.Crash_fuzz.violations;
  Alcotest.(check bool) "the sweep crashed at least once" true (s.Crash_fuzz.crashes > 0)

let force_restarts = Sys.getenv_opt "OLC_FORCE_RESTARTS" <> None

let suite =
  [
    Alcotest.test_case "latch version-word lifecycle" `Quick test_latch_version_word;
    QCheck_alcotest.to_alcotest test_model_qcheck;
    Alcotest.test_case "concurrent mixer: OLC reads stay exact" `Quick test_concurrent_mixer;
    Alcotest.test_case "writer flips versions: reader restarts" `Quick test_forced_restarts;
    Alcotest.test_case "olc_retries = 0 forces the fallback path" `Quick
      test_zero_retries_falls_back;
    Alcotest.test_case "crash-fuzz (clean mode) on the optimistic read path" `Quick
      test_crash_fuzz_with_olc;
  ]
  @
  (* bin/check.sh --force-restarts: re-run the adversarial pair a few more
     times to shake out interleavings the single pass may miss. *)
  if force_restarts then
    List.init 3 (fun i ->
        Alcotest.test_case
          (Printf.sprintf "forced-restart stress %d (OLC_FORCE_RESTARTS)" i)
          `Slow test_forced_restarts)
  else []
