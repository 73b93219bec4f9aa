open Gist_core
module B = Gist_ams.Btree_ext
module R = Gist_ams.Rtree_ext
module Rid = Gist_storage.Rid
module Disk = Gist_storage.Disk
module Buffer_pool = Gist_storage.Buffer_pool
module Log_manager = Gist_wal.Log_manager
module Group_commit = Gist_wal.Group_commit
module Txn = Gist_txn.Txn_manager
module Xoshiro = Gist_util.Xoshiro
module Metrics = Gist_obs.Metrics
module ISet = Set.Make (Int)

type mode = Clean | Torn | Ragged | Double

let mode_name = function
  | Clean -> "clean"
  | Torn -> "torn"
  | Ragged -> "ragged"
  | Double -> "double"

type summary = {
  mode : mode;
  points : int;
  crashes : int;
  events : int;
  violations : string list;
}

(* Torn-write modes need full-page writes: without a logged image there is
   no repair source for a page the tear destroyed. Clean and ragged modes
   run without, covering the plain-WAL path. *)
let config ?(commit_mode = Group_commit.Sync) ?(bg_writer = false) mode =
  {
    Db.default_config with
    Db.max_entries = 8;
    pool_capacity = 32;
    page_size = 1024;
    full_page_writes = (match mode with Torn | Double -> true | Clean | Ragged -> false);
    commit_mode;
    (* With the background writer: aggressive fuzzy checkpoints (so crash
       points land between/inside them) and scan prefetch, putting the
       flusher domain's own I/O inside the fault-injection stream. *)
    bg_writer;
    checkpoint_interval_us = (if bg_writer then 200 else 0);
    prefetch_depth = (if bg_writer then 2 else 0);
  }

let rid i = Rid.make ~page:1000 ~slot:i

let rect_of i =
  let x = Float.of_int (i mod 37) *. 2.0 and y = Float.of_int (i / 37 mod 37) *. 2.0 in
  R.rect x y (x +. 1.5) (y +. 1.5)

(* ------------------------------------------------------------------ *)
(* Shadow model                                                        *)
(* ------------------------------------------------------------------ *)

type wtree = T_btree | T_rtree

type wop = Add of int | Del of int

type shadow = {
  mutable cb : ISet.t;  (* committed btree keys *)
  mutable cr : ISet.t;  (* committed rtree ids *)
  mutable history : (wtree * wop) list list;
      (* committed op batches in commit order — the async-mode oracle
         accepts the state after any prefix of this history, because
         pipelined durability only ever loses a suffix of commit order
         (durability is one watermark; commit LSNs are monotone) *)
  mutable in_doubt : (wtree * wop) list option;
      (* a commit was in flight at the crash: the recovered state must
         reflect either none or all of these ops, jointly on both trees *)
}

let apply_ops (b, r) ops =
  List.fold_left
    (fun (b, r) op ->
      match op with
      | T_btree, Add k -> (ISet.add k b, r)
      | T_btree, Del k -> (ISet.remove k b, r)
      | T_rtree, Add k -> (b, ISet.add k r)
      | T_rtree, Del k -> (b, ISet.remove k r))
    (b, r) ops

let pp_set s = ISet.elements s |> List.map string_of_int |> String.concat ","

let rids_of hits = List.map (fun (_, r) -> r.Rid.slot) hits |> ISet.of_list

let all_b = B.range 0 max_int

let all_r = R.rect (-1e9) (-1e9) 1e9 1e9

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

(* A seeded, single-domain workload over a B-tree and an R-tree sharing
   one database: six transactions of mixed inserts/deletes/searches (one
   in five aborts), environment operations (flushes, checkpoints, vacuum,
   log truncation) between them, and a trailing loser left in flight.
   Deterministic given the seed and config, so the profiling pass and
   every crash-point replay see the identical event stream (a racing
   snapshot reader, when enabled, adds nondeterministic events on top —
   the oracle is interleaving-agnostic, so this only moves where in the
   stream the planned fault lands).

   After every commit the workload opens a snapshot and scans both trees
   through the MVCC read path: with a single writer domain the result must
   equal the committed sets exactly ([snap_bad] receives any mismatch).
   [pub], when given, atomically publishes [(history, in_doubt)] for a
   racing reader's prefix oracle — set to [(h, Some ops)] before the
   commit call and [(h ++ ops, None)] after, so a batch is visible in the
   publication no later than its commit timestamp is published. *)
let run_workload ?(snap_bad = fun (_ : string) -> ()) ?pub db bt rt rng shadow =
  let next = ref 0 in
  let fresh_id () =
    incr next;
    !next
  in
  for txn_no = 1 to 6 do
    (* One unconditional flush so every seed has disk-write events for
       torn-write points to land on. *)
    if txn_no = 4 then Buffer_pool.flush_all db.Db.pool;
    (match Xoshiro.int rng 6 with
    | 0 -> Buffer_pool.flush_all db.Db.pool
    | 1 -> Db.checkpoint db
    | 2 -> Gist.vacuum bt
    | 3 -> Gist.vacuum rt
    | 4 -> ignore (Db.truncate_log db : int)
    | _ -> ());
    let txn = Txn.begin_txn db.Db.txns in
    let pending = ref [] in
    (* Committed keys still live from this transaction's point of view. *)
    let live tree committed =
      List.fold_left
        (fun acc op ->
          match op with tr, Del k when tr = tree -> ISet.remove k acc | _ -> acc)
        committed !pending
    in
    let pick_from rng s =
      let arr = Array.of_list (ISet.elements s) in
      arr.(Xoshiro.int rng (Array.length arr))
    in
    let n_ops = 10 + Xoshiro.int rng 8 in
    for _ = 1 to n_ops do
      match Xoshiro.int rng 8 with
      | 0 | 1 | 2 ->
        let k = fresh_id () in
        Gist.insert bt txn ~key:(B.key k) ~rid:(rid k);
        pending := (T_btree, Add k) :: !pending
      | 3 | 4 ->
        let i = fresh_id () in
        Gist.insert rt txn ~key:(rect_of i) ~rid:(rid i);
        pending := (T_rtree, Add i) :: !pending
      | 5 ->
        let s = live T_btree shadow.cb in
        if not (ISet.is_empty s) then begin
          let k = pick_from rng s in
          ignore (Gist.delete bt txn ~key:(B.key k) ~rid:(rid k) : bool);
          pending := (T_btree, Del k) :: !pending
        end
      | 6 ->
        let s = live T_rtree shadow.cr in
        if not (ISet.is_empty s) then begin
          let i = pick_from rng s in
          ignore (Gist.delete rt txn ~key:(rect_of i) ~rid:(rid i) : bool);
          pending := (T_rtree, Del i) :: !pending
        end
      | _ ->
        ignore
          (Gist.search ~isolation:`Read_committed bt txn (B.range 0 (!next + 1))
            : (B.t * Rid.t) list)
    done;
    if Xoshiro.int rng 5 = 0 then Txn.abort db.Db.txns txn
    else begin
      let ops = List.rev !pending in
      (* From here until commit returns, the transaction is in doubt: a
         crash may land before or after the durability point, and either
         outcome — all of [ops] or none — is legal, jointly across both
         trees. *)
      shadow.in_doubt <- Some ops;
      (match pub with Some p -> Atomic.set p (shadow.history, Some ops) | None -> ());
      Txn.commit db.Db.txns txn;
      let b, r = apply_ops (shadow.cb, shadow.cr) ops in
      shadow.cb <- b;
      shadow.cr <- r;
      shadow.history <- shadow.history @ [ ops ];
      shadow.in_doubt <- None;
      (match pub with Some p -> Atomic.set p (shadow.history, None) | None -> ());
      let ro = Db.begin_ro db in
      let sb = rids_of (Gist.snapshot_search bt ro all_b)
      and sr = rids_of (Gist.snapshot_search rt ro all_r) in
      Db.end_ro db ro;
      if not (ISet.equal sb shadow.cb && ISet.equal sr shadow.cr) then
        snap_bad
          (Printf.sprintf
             "post-commit snapshot: btree got {%s} want {%s}, rtree got {%s} want {%s}"
             (pp_set sb) (pp_set shadow.cb) (pp_set sr) (pp_set shadow.cr))
    end
  done;
  (* A loser in flight at the crash point: restart must roll it back. *)
  let loser = Txn.begin_txn db.Db.txns in
  for _ = 1 to 6 do
    let k = fresh_id () in
    Gist.insert bt loser ~key:(B.key k) ~rid:(rid k)
  done;
  let i = fresh_id () in
  Gist.insert rt loser ~key:(rect_of i) ~rid:(rid i)

(* A racing snapshot reader: loop begin_ro → scan both trees lock-free →
   end_ro until stopped, checking each scan against the writer's published
   commit history. The publication is read {e after} the scan and grows
   monotonically, so whatever prefix of commit order the snapshot captured
   is guaranteed to be present in it; acceptance is therefore "the state
   after some prefix of [history]", with the single in-doubt batch
   accepted on top of the full history only (it was submitted after every
   batch in it). A half-visible batch — some of a transaction's ops
   without the rest — matches no prefix and is flagged. On [Fault.Crash]
   the reader just exits: the power-off flag is sticky across domains, so
   the workload domain still observes the planned crash. *)
let reader_loop db bt rt pub stop =
  let bad = ref [] in
  (try
     while not (Atomic.get stop) do
       let ro = Db.begin_ro db in
       let got_b = rids_of (Gist.snapshot_search bt ro all_b)
       and got_r = rids_of (Gist.snapshot_search rt ro all_r) in
       Db.end_ro db ro;
       let history, in_doubt = Atomic.get pub in
       let matches (b, r) = ISet.equal got_b b && ISet.equal got_r r in
       let rec prefixes state = function
         | [] -> (
           matches state
           || match in_doubt with Some ops -> matches (apply_ops state ops) | None -> false)
         | batch :: rest -> matches state || prefixes (apply_ops state batch) rest
       in
       if not (prefixes (ISet.empty, ISet.empty) history) then
         bad :=
           Printf.sprintf
             "racing snapshot matches no prefix of the commit history: btree {%s} rtree {%s}"
             (pp_set got_b) (pp_set got_r)
           :: !bad
     done
   with
  | Fault.Crash -> ()
  | e -> bad := Printf.sprintf "racing snapshot reader raised %s" (Printexc.to_string e) :: !bad);
  !bad

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let scan_b db t =
  let txn = Txn.begin_txn db.Db.txns in
  let got = rids_of (Gist.search t txn all_b) in
  Txn.commit db.Db.txns txn;
  got

let scan_r db t =
  let txn = Txn.begin_txn db.Db.txns in
  let got = rids_of (Gist.search t txn all_r) in
  Txn.commit db.Db.txns txn;
  got

(* Run the full post-recovery oracle; returns violation strings. With
   [async] (pipelined durability), a commit that returned may still be
   lost in the crash — but only together with every later commit, so the
   acceptance set widens from "the final committed state (± the in-doubt
   batch)" to "the state after any prefix of the commit history (the
   in-doubt batch accepted on top of the full history only)". *)
let oracle ~label ?(async = false) db bt rt shadow =
  let bad = ref [] in
  let add fmt = Printf.ksprintf (fun s -> bad := Printf.sprintf "%s: %s" label s :: !bad) fmt in
  (* 1. Structural invariants of both trees. *)
  let repb = Tree_check.check bt and repr = Tree_check.check rt in
  if not (Tree_check.ok repb) then
    add "btree invariants: %s" (String.concat "; " repb.Tree_check.violations);
  if not (Tree_check.ok repr) then
    add "rtree invariants: %s" (String.concat "; " repr.Tree_check.violations);
  (* 2. Exactly the committed effects are visible — with an in-flight
     commit accepted all-or-nothing, jointly across both trees. Logical
     deletion can never leave an entry half-visible: the scans go through
     [Gist.search], which skips marked-deleted entries. Recovery redo may
     legitimately probe never-flushed pages; the post-recovery scans must
     not ([disk.read_unallocated] delta stays 0). *)
  let ru0 = Disk.reads_unallocated db.Db.disk in
  let got_b = scan_b db bt and got_r = scan_r db rt in
  let ru1 = Disk.reads_unallocated db.Db.disk in
  if ru1 - ru0 <> 0 then
    add "post-recovery scan read %d unallocated pages (allocator replay broken?)" (ru1 - ru0);
  let base = (shadow.cb, shadow.cr) in
  let matches (b, r) = ISet.equal got_b b && ISet.equal got_r r in
  let with_in_doubt state =
    match shadow.in_doubt with None -> false | Some ops -> matches (apply_ops state ops)
  in
  let consistent =
    if async then begin
      (* Every prefix of the commit history, oldest first; the in-doubt
         batch can only sit on top of the full history (it was submitted
         after every durable-or-not commit before it). *)
      let rec prefixes state = function
        | [] -> matches state || with_in_doubt state
        | batch :: rest -> matches state || prefixes (apply_ops state batch) rest
      in
      prefixes (ISet.empty, ISet.empty) shadow.history
    end
    else matches base || with_in_doubt base
  in
  if not consistent then begin
    let b, r = base in
    add "recovered state matches %s: btree got {%s} want {%s}%s, rtree got {%s} want {%s}"
      (if async then "no prefix of the commit history" else "neither commit boundary")
      (pp_set got_b) (pp_set b)
      (match shadow.in_doubt with Some _ -> " (or +in-doubt)" | None -> "")
      (pp_set got_r) (pp_set r)
  end;
  (* 2b. MVCC after restart: a snapshot begun now sees exactly what the
     locked scans just saw. Analysis re-derived commit timestamps by
     replaying Commit records in LSN order, losers' versions were erased
     or unmarked by undo, and pre-checkpoint commits read as historical —
     so committed-version visibility must coincide with the
     exactly-committed set, never a half-visible version pair. *)
  let ro = Db.begin_ro db in
  let snap_b = rids_of (Gist.snapshot_search bt ro all_b)
  and snap_r = rids_of (Gist.snapshot_search rt ro all_r) in
  Db.end_ro db ro;
  if not (ISet.equal snap_b got_b && ISet.equal snap_r got_r) then
    add "post-restart snapshot scan disagrees with locked scan: btree {%s} vs {%s}, rtree {%s} vs {%s}"
      (pp_set snap_b) (pp_set got_b) (pp_set snap_r) (pp_set got_r);
  (* 3. Garbage collection after recovery must not change the logical
     contents. *)
  Gist.vacuum bt;
  Gist.vacuum rt;
  if not (ISet.equal (scan_b db bt) got_b && ISet.equal (scan_r db rt) got_r) then
    add "vacuum after recovery changed the visible contents";
  if not (Tree_check.ok (Tree_check.check bt) && Tree_check.ok (Tree_check.check rt)) then
    add "tree invariants broken by post-recovery vacuum";
  !bad

(* Recovery must be idempotent: running restart again, without a crash in
   between, appends nothing but checkpoint records — its own end-of-restart
   pair, plus any pairs the background checkpointer domain slips in while
   the probe runs — and changes nothing visible. *)
let check_idempotent ~label db bt rt got_b got_r bad =
  let add fmt =
    Printf.ksprintf (fun s -> bad := Printf.sprintf "%s: %s" label s :: !bad) fmt
  in
  let before = Log_manager.last_lsn db.Db.log in
  Recovery.restart_multi db [ Ext.Packed B.ext; Ext.Packed R.ext ];
  let non_ckpt = ref 0 in
  Log_manager.iter_from db.Db.log (Int64.add before 1L) (fun r ->
      match r.Gist_wal.Log_record.payload with
      | Gist_wal.Log_record.Checkpoint_begin | Gist_wal.Log_record.Checkpoint_end _ -> ()
      | _ -> incr non_ckpt);
  if !non_ckpt <> 0 then
    add "second restart appended %d non-checkpoint records (want 0: redo/undo must be no-ops)"
      !non_ckpt;
  if not (ISet.equal (scan_b db bt) got_b && ISet.equal (scan_r db rt) got_r) then
    add "second restart changed the visible contents"

(* ------------------------------------------------------------------ *)
(* One crash point                                                     *)
(* ------------------------------------------------------------------ *)

let recover db = Recovery.restart_multi db [ Ext.Packed B.ext; Ext.Packed R.ext ]

(* Deterministic second-crash plan for double-crash mode: hit restart
   itself on an early disk read (redo faulting pages in) or WAL append
   (undo writing CLRs), varying with the point index. *)
let recovery_plan i =
  if i mod 2 = 0 then Fault.crash_after Fault.Disk_read (1 + (i / 2 mod 7))
  else Fault.crash_after Fault.Wal_append (1 + (i / 2 mod 4))

type point_result = { crashed : bool; violations : string list }

let run_point ?(commit_mode = Group_commit.Sync) ?(bg_writer = false) ?(snapshot_reader = false)
    ~mode ~seed ~index plan =
  let label =
    Printf.sprintf "%s/%s%s%s seed=%d point=%d [%s]" (mode_name mode)
      (Group_commit.mode_to_string commit_mode)
      (if bg_writer then "+bg" else "")
      (if snapshot_reader then "+snap" else "")
      seed index
      (String.concat ","
         (List.map (fun { Fault.site; at; _ } -> Printf.sprintf "%s#%d" (Fault.site_name site) at) plan))
  in
  let latched0 = Metrics.counter_value (Metrics.snapshot ()) "latches_held_across_io" in
  let fg_wb0 = Metrics.counter_value (Metrics.snapshot ()) "bp.fg_writeback" in
  let db = Db.create ~config:(config ~commit_mode ~bg_writer mode) () in
  let bt = Gist.create db B.ext ~empty_bp:B.Empty () in
  let rt = Gist.create db R.ext ~empty_bp:R.Empty () in
  let broot = Gist.root bt and rroot = Gist.root rt in
  let shadow = { cb = ISet.empty; cr = ISet.empty; history = []; in_doubt = None } in
  let rng = Xoshiro.create seed in
  let inline_bad = ref [] in
  let snap_bad s = inline_bad := Printf.sprintf "%s: %s" label s :: !inline_bad in
  let pub = Atomic.make (([] : (wtree * wop) list list), (None : (wtree * wop) list option)) in
  let stop = Atomic.make false in
  let ctl = Fault.arm ~disk:db.Db.disk ~log:db.Db.log plan in
  let reader =
    if snapshot_reader then Some (Domain.spawn (fun () -> reader_loop db bt rt pub stop))
    else None
  in
  let crashed =
    match run_workload ~snap_bad ~pub db bt rt rng shadow with
    | () -> false
    | exception Fault.Crash -> true
  in
  (* Stop and join the racing reader before volatile state is torn down:
     after the join no other domain touches the pool or the snapshot
     registry. *)
  Atomic.set stop true;
  let reader_bad =
    match reader with
    | None -> []
    | Some d -> List.map (fun s -> Printf.sprintf "%s: %s" label s) (Domain.join d)
  in
  (* Claim C1 at scale: while the background writer is alive, the
     foreground path never writes back a dirty page. Measured over the
     workload phase only (recovery and the post-crash oracle run with a
     fresh writer of their own); waived when an injected fault killed the
     writer mid-run — the foreground then legitimately evicts for itself. *)
  let fg_wb1 = Metrics.counter_value (Metrics.snapshot ()) "bp.fg_writeback" in
  let bg_handle = db.Db.bg in
  (* Power loss (at the injected point, or at workload end if the point
     was never reached): all volatile state goes. *)
  let db' = Fault.materialize_crash ctl db in
  let bg_crashed =
    match bg_handle with Some bg -> Gist_storage.Bg_writer.crashed bg | None -> false
  in
  let had_tail = Log_manager.has_torn_tail db'.Db.log in
  let db', double_bad =
    match mode with
    | Double -> (
      let ctl2 = Fault.arm ~disk:db'.Db.disk ~log:db'.Db.log (recovery_plan index) in
      match recover db' with
      | () ->
        Fault.disarm ctl2;
        (db', [])
      | exception Fault.Crash ->
        (* Crash in the middle of restart: recovery itself must be
           restartable from scratch. *)
        let db2 = Fault.materialize_crash ctl2 db' in
        (match recover db2 with
        | () -> (db2, [])
        | exception e ->
          (db2, [ Printf.sprintf "%s: restart-after-restart-crash raised %s" label (Printexc.to_string e) ])))
    | Clean | Torn | Ragged -> (
      match recover db' with
      | () -> (db', [])
      | exception e ->
        (db', [ Printf.sprintf "%s: restart raised %s" label (Printexc.to_string e) ]))
  in
  let bad = ref (double_bad @ List.rev !inline_bad @ reader_bad) in
  if double_bad = [] then begin
    if had_tail && Log_manager.has_torn_tail db'.Db.log then
      bad := [ Printf.sprintf "%s: restart left the torn log tail in place" label ];
    let bt' = Gist.open_existing db' B.ext ~root:broot () in
    let rt' = Gist.open_existing db' R.ext ~root:rroot () in
    bad := oracle ~label ~async:(commit_mode = Group_commit.Async) db' bt' rt' shadow @ !bad;
    if !bad = [] then begin
      let got_b = scan_b db' bt' and got_r = scan_r db' rt' in
      check_idempotent ~label db' bt' rt' got_b got_r bad
    end
  end;
  (* The recovered environment spawned a fresh Async trailer domain (and
     a background writer with [bg_writer]) — a sweep leaks hundreds of
     domains without this. *)
  Db.close db';
  let latched1 = Metrics.counter_value (Metrics.snapshot ()) "latches_held_across_io" in
  if latched1 - latched0 <> 0 then
    bad :=
      Printf.sprintf "%s: latches_held_across_io grew by %d during a fault run" label
        (latched1 - latched0)
      :: !bad;
  if bg_writer && (not bg_crashed) && fg_wb1 - fg_wb0 <> 0 then
    bad :=
      Printf.sprintf
        "%s: bp.fg_writeback grew by %d with a live background writer (want 0)" label
        (fg_wb1 - fg_wb0)
      :: !bad;
  { crashed; violations = List.rev !bad }

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

(* Count the workload's event stream with a never-firing plan, so crash
   points can be spread evenly across it. *)
let profile ?commit_mode ?bg_writer ~mode ~seed () =
  let db = Db.create ~config:(config ?commit_mode ?bg_writer mode) () in
  let bt = Gist.create db B.ext ~empty_bp:B.Empty () in
  let rt = Gist.create db R.ext ~empty_bp:R.Empty () in
  let shadow = { cb = ISet.empty; cr = ISet.empty; history = []; in_doubt = None } in
  let rng = Xoshiro.create seed in
  let ctl = Fault.arm ~disk:db.Db.disk ~log:db.Db.log [] in
  run_workload db bt rt rng shadow;
  Fault.disarm ctl;
  Db.close db;
  ( Fault.events_seen ctl Fault.Disk_read,
    Fault.events_seen ctl Fault.Disk_write,
    Fault.events_seen ctl Fault.Wal_append,
    Fault.events_seen ctl Fault.Wal_flush )

let plan_for ~mode ~counts:(reads, writes, appends, flushes) ~page_size ~index ~points =
  let spread total i = 1 + (i * total / max 1 points) mod max 1 total in
  match mode with
  | Clean | Double ->
    (* Flush-request points cover the window between a commit record's
       append and its durability — the group-commit crash surface. *)
    let total = reads + writes + appends + flushes in
    let g = spread total index in
    if g <= reads then Fault.crash_after Fault.Disk_read g
    else if g <= reads + writes then Fault.crash_after Fault.Disk_write (g - reads)
    else if g <= reads + writes + appends then
      Fault.crash_after Fault.Wal_append (g - reads - writes)
    else Fault.crash_after Fault.Wal_flush (g - reads - writes - appends)
  | Torn ->
    let keep = 8 + (index * 97 mod (page_size - 8)) in
    Fault.torn_write_at (spread writes index) ~keep
  | Ragged ->
    let keep = 1 + (index * 7 mod 48) in
    Fault.ragged_append_at (spread appends index) ~keep

let run_mode ?commit_mode ?bg_writer ?snapshot_reader ~seed ~points mode =
  let counts = profile ?commit_mode ?bg_writer ~mode ~seed () in
  let reads, writes, appends, flushes = counts in
  let page_size = (config mode).Db.page_size in
  let crashes = ref 0 and violations = ref [] in
  for i = 0 to points - 1 do
    let plan = plan_for ~mode ~counts ~page_size ~index:i ~points in
    let r = run_point ?commit_mode ?bg_writer ?snapshot_reader ~mode ~seed ~index:i plan in
    if r.crashed then incr crashes;
    violations := !violations @ r.violations
  done;
  {
    mode;
    points;
    crashes = !crashes;
    events = reads + writes + appends + flushes;
    violations = !violations;
  }

(* 2:1:1:1 split across clean / torn / ragged / double-crash modes. *)
let run_sweep ?commit_mode ?bg_writer ?snapshot_reader ~seed ~points () =
  let clean = max 1 (2 * points / 5) in
  let torn = max 1 (points / 5) in
  let ragged = max 1 (points / 5) in
  let double = max 1 (points - clean - torn - ragged) in
  [
    run_mode ?commit_mode ?bg_writer ?snapshot_reader ~seed ~points:clean Clean;
    run_mode ?commit_mode ?bg_writer ?snapshot_reader ~seed:(seed + 1) ~points:torn Torn;
    run_mode ?commit_mode ?bg_writer ?snapshot_reader ~seed:(seed + 2) ~points:ragged Ragged;
    run_mode ?commit_mode ?bg_writer ?snapshot_reader ~seed:(seed + 3) ~points:double Double;
  ]

let pp_summary ppf s =
  Format.fprintf ppf "%-7s points=%d crashes=%d events=%d violations=%d" (mode_name s.mode)
    s.points s.crashes s.events (List.length s.violations)
