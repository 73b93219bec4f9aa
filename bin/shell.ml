(* gist_shell — an interactive (or piped) shell over the transactional
   B-tree GiST, exposing the paper's machinery end to end: transactions,
   savepoints, logical deletion, vacuum, checkpoints, crash + ARIES
   restart, and the invariant checker.

   Run:   dune exec bin/shell.exe
   Pipe:  printf 'insert 1\ninsert 2\nsearch 0 10\nquit\n' | dune exec bin/shell.exe
*)

open Gist_core
module B = Gist_ams.Btree_ext
module Rid = Gist_storage.Rid
module Txn = Gist_txn.Txn_manager
module Log = Gist_wal.Log_manager
module Buffer_pool = Gist_storage.Buffer_pool
module Metrics = Gist_obs.Metrics
module Trace = Gist_obs.Trace
module Fault = Gist_fault.Fault
module Crash_fuzz = Gist_fault.Crash_fuzz

type session = {
  mutable db : Db.t;
  mutable tree : B.t Gist.t;
  mutable txn : Txn.txn option; (* explicit transaction, if one is open *)
  mutable autocommit_count : int;
  mutable fault : Fault.t option; (* armed fault-injection plan, if any *)
}

let help () =
  print_string
    {|commands:
  insert <k>          insert key k (RID derived from k)
  delete <k>          logically delete key k
  search <lo> <hi>    range scan [lo, hi]
  count               number of live keys
  begin               open an explicit transaction
  commit / abort      end the explicit transaction
  savepoint <name>    set a savepoint in the open transaction
  rollback <name>     partial rollback to a savepoint
  vacuum              garbage-collect marks, retire empty nodes
  checkpoint          fuzzy checkpoint (bounds restart cost)
  flush               flush all dirty pages (background writer)
  crash               lose volatile state + unforced log tail, then restart
  fault arm <site> <n>  power loss at the n-th event of site (read|write|append)
  fault torn <n> [keep]   torn page write at the n-th disk write, then power loss
  fault ragged <n> [keep] power loss mid-append: n-th append leaves a ragged tail
  fault ioerr <site> <n>  transient I/O error at the n-th event of site
  fault delay <site> <n> <ms>  latency spike at the n-th event of site
  fault status        events counted / points fired since arming
  fault disarm        remove the armed plan
  fault fuzz [points] [seed]  crash-fuzz sweep on fresh DBs (default 40 points)
  stats               pool/log/lock/tree statistics + metrics registry
  stats json          the metrics registry as one JSON object
  trace on|off        enable/disable kernel event tracing
  trace dump [n]      print the trace ring (last n events)
  trace clear         drop all buffered trace events
  check               run the tree invariant checker
  help                this text
  quit                exit
|}

let with_txn s f =
  match s.txn with
  | Some txn -> f txn
  | None ->
    (* Autocommit: wrap the single operation. *)
    let txn = Txn.begin_txn s.db.Db.txns in
    (match f txn with
    | () -> Txn.commit s.db.Db.txns txn
    | exception Fault.Crash ->
      (* Power is gone: there is nobody left to run the abort. The
         transaction becomes a loser for restart to undo. *)
      raise Fault.Crash
    | exception e ->
      Txn.abort s.db.Db.txns txn;
      raise e);
    s.autocommit_count <- s.autocommit_count + 1

let cmd_stats s =
  let db = s.db in
  Printf.printf "tree   : height %d, %d leaves, %d physical entries\n" (Gist.height s.tree)
    (Gist.leaf_count s.tree) (Gist.entry_count s.tree);
  Printf.printf "pool   : %d hits, %d misses, %d evictions, %d I/Os under latches\n"
    (Buffer_pool.hits db.Db.pool) (Buffer_pool.misses db.Db.pool)
    (Buffer_pool.evictions db.Db.pool)
    (Buffer_pool.io_while_latched db.Db.pool);
  Printf.printf "log    : %d records (%d bytes), durable to %Ld, %d forces\n"
    (Log.appended db.Db.log) (Log.bytes_written db.Db.log) (Log.durable_lsn db.Db.log)
    (Log.forces db.Db.log);
  Printf.printf "locks  : %d waits, %d deadlocks\n"
    (Gist_txn.Lock_manager.blocked_count db.Db.locks)
    (Gist_txn.Lock_manager.deadlock_count db.Db.locks);
  Printf.printf "preds  : %d live predicates, %d attachments\n"
    (Gist_pred.Predicate_manager.total_predicates (Gist.predicate_manager s.tree))
    (Gist_pred.Predicate_manager.total_attachments (Gist.predicate_manager s.tree));
  print_endline "metrics:";
  print_string (Metrics.render_text (Metrics.snapshot ()))

let cmd_trace_dump n =
  let entries = Trace.dump ?last:n () in
  List.iter (fun e -> Format.printf "%a@." Trace.pp_entry e) entries;
  Printf.printf "(%d events%s)\n" (List.length entries)
    (if Trace.enabled () then "" else "; tracing is off — 'trace on' to record")

(* Lose volatile state, run ARIES restart, re-open the tree. [db'] is the
   post-crash environment ([Db.crash] or [Fault.materialize_crash]). *)
let restart_session s db' =
  (match s.txn with
  | Some _ ->
    s.txn <- None;
    print_endline "(open transaction lost in the crash — it will be a loser)"
  | None -> ());
  let root = Gist.root s.tree in
  let t0 = Gist_util.Clock.now_ns () in
  Recovery.restart db' B.ext;
  s.db <- db';
  s.tree <- Gist.open_existing db' B.ext ~root ();
  Printf.printf "crashed and restarted in %.2f ms\n" (Gist_util.Clock.elapsed_s t0 *. 1000.0)

(* A fault point raised [Fault.Crash] out of a hook: materialize the power
   loss (keeping any ragged WAL tail the plan produced) and recover. *)
let crash_and_recover s =
  let db' =
    match s.fault with
    | Some ctl ->
      s.fault <- None;
      List.iter
        (fun (site, seq) -> Printf.printf "fault: %s event #%d fired — power loss\n" site seq)
        (Fault.fired ctl);
      Fault.materialize_crash ctl s.db
    | None -> Db.crash s.db
  in
  restart_session s db'

let site_of_string = function
  | "read" -> Some Fault.Disk_read
  | "write" -> Some Fault.Disk_write
  | "append" -> Some Fault.Wal_append
  | _ -> None

let arm_plan s plan desc =
  (match s.fault with
  | Some old ->
    Fault.disarm old;
    print_endline "(previous plan disarmed)"
  | None -> ());
  s.fault <- Some (Fault.arm ~disk:s.db.Db.disk ~log:s.db.Db.log plan);
  Printf.printf "armed: %s\n" desc

let with_site site k =
  match site_of_string site with
  | Some st -> k st
  | None -> Printf.printf "unknown site %S (read|write|append)\n" site

let cmd_fault_fuzz ~points ~seed =
  Printf.printf "crash-fuzz sweep: %d points, seed %d (fresh DBs; the session is untouched)\n"
    points seed;
  let summaries = Crash_fuzz.run_sweep ~seed ~points () in
  List.iter (fun sum -> Format.printf "%a@." Crash_fuzz.pp_summary sum) summaries;
  let bad = List.exists (fun sum -> sum.Crash_fuzz.violations <> []) summaries in
  print_endline (if bad then "ORACLE VIOLATIONS FOUND" else "all crash points recovered cleanly")

let dispatch s line =
  match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
  | [] -> ()
  | [ "help" ] -> help ()
  | [ "insert"; k ] ->
    let k = int_of_string k in
    with_txn s (fun txn -> Gist.insert s.tree txn ~key:(B.key k) ~rid:(Rid.make ~page:1 ~slot:k));
    Printf.printf "inserted %d\n" k
  | [ "delete"; k ] ->
    let k = int_of_string k in
    let found = ref false in
    with_txn s (fun txn ->
        found := Gist.delete s.tree txn ~key:(B.key k) ~rid:(Rid.make ~page:1 ~slot:k));
    Printf.printf "%s\n" (if !found then "deleted (logically)" else "not found")
  | [ "search"; lo; hi ] ->
    let lo = int_of_string lo and hi = int_of_string hi in
    let out = ref [] in
    with_txn s (fun txn ->
        out :=
          Gist.search s.tree txn (B.range lo hi)
          |> List.map (fun (k, _) -> B.key_value k)
          |> List.sort compare);
    Printf.printf "[%s] (%d keys)\n"
      (String.concat " " (List.map string_of_int !out))
      (List.length !out)
  | [ "count" ] ->
    let n = ref 0 in
    with_txn s (fun txn ->
        n := List.length (Gist.search s.tree txn (B.range min_int max_int)));
    Printf.printf "%d live keys\n" !n
  | [ "begin" ] -> (
    match s.txn with
    | Some _ -> print_endline "a transaction is already open"
    | None ->
      s.txn <- Some (Txn.begin_txn s.db.Db.txns);
      print_endline "transaction open")
  | [ "commit" ] -> (
    match s.txn with
    | None -> print_endline "no open transaction"
    | Some txn ->
      Txn.commit s.db.Db.txns txn;
      s.txn <- None;
      print_endline "committed")
  | [ "abort" ] -> (
    match s.txn with
    | None -> print_endline "no open transaction"
    | Some txn ->
      Txn.abort s.db.Db.txns txn;
      s.txn <- None;
      print_endline "aborted (rolled back via the log)")
  | [ "savepoint"; name ] -> (
    match s.txn with
    | None -> print_endline "savepoints need an open transaction"
    | Some txn ->
      Txn.savepoint s.db.Db.txns txn name;
      Printf.printf "savepoint %s set\n" name)
  | [ "rollback"; name ] -> (
    match s.txn with
    | None -> print_endline "no open transaction"
    | Some txn -> (
      match Txn.rollback_to_savepoint s.db.Db.txns txn name with
      | () -> Printf.printf "rolled back to %s\n" name
      | exception Not_found -> Printf.printf "unknown savepoint %s\n" name))
  | [ "vacuum" ] ->
    let before = Gist.entry_count s.tree in
    Gist.vacuum s.tree;
    Printf.printf "vacuum: %d -> %d physical entries, %d leaves\n" before
      (Gist.entry_count s.tree) (Gist.leaf_count s.tree)
  | [ "checkpoint" ] ->
    Db.checkpoint s.db;
    Printf.printf "checkpoint at LSN %Ld\n" (Log.anchor s.db.Db.log)
  | [ "flush" ] ->
    Buffer_pool.flush_all s.db.Db.pool;
    print_endline "all dirty pages flushed"
  | [ "crash" ] ->
    (match s.fault with
    | Some ctl ->
      Fault.disarm ctl;
      s.fault <- None;
      print_endline "(armed fault plan disarmed by the crash)"
    | None -> ());
    restart_session s (Db.crash s.db)
  | [ "fault"; "arm"; site; n ] ->
    with_site site (fun st ->
        let n = int_of_string n in
        arm_plan s (Fault.crash_after st n)
          (Printf.sprintf "power loss at %s event #%d" (Fault.site_name st) n))
  | [ "fault"; "torn"; n ] ->
    let n = int_of_string n in
    let keep = s.db.Db.config.Db.page_size / 2 in
    arm_plan s (Fault.torn_write_at n ~keep)
      (Printf.sprintf "torn write at disk.write event #%d (keep %d bytes), then power loss" n keep)
  | [ "fault"; "torn"; n; keep ] ->
    let n = int_of_string n and keep = int_of_string keep in
    arm_plan s (Fault.torn_write_at n ~keep)
      (Printf.sprintf "torn write at disk.write event #%d (keep %d bytes), then power loss" n keep)
  | [ "fault"; "ragged"; n ] ->
    let n = int_of_string n in
    arm_plan s (Fault.ragged_append_at n ~keep:9)
      (Printf.sprintf "power loss mid-append at wal.append event #%d (9-byte ragged tail)" n)
  | [ "fault"; "ragged"; n; keep ] ->
    let n = int_of_string n and keep = int_of_string keep in
    arm_plan s (Fault.ragged_append_at n ~keep)
      (Printf.sprintf "power loss mid-append at wal.append event #%d (%d-byte ragged tail)" n keep)
  | [ "fault"; "ioerr"; site; n ] ->
    with_site site (fun st ->
        let n = int_of_string n in
        arm_plan s [ { Fault.site = st; at = n; act = Fault.Io_error_once } ]
          (Printf.sprintf "transient I/O error at %s event #%d" (Fault.site_name st) n))
  | [ "fault"; "delay"; site; n; ms ] ->
    with_site site (fun st ->
        let n = int_of_string n and ms = int_of_string ms in
        arm_plan s [ { Fault.site = st; at = n; act = Fault.Delay_ns (ms * 1_000_000) } ]
          (Printf.sprintf "%dms latency spike at %s event #%d" ms (Fault.site_name st) n))
  | [ "fault"; "status" ] -> (
    match s.fault with
    | None -> print_endline "no fault plan armed"
    | Some ctl ->
      Printf.printf "events since arming: %d disk reads, %d disk writes, %d WAL appends\n"
        (Fault.events_seen ctl Fault.Disk_read)
        (Fault.events_seen ctl Fault.Disk_write)
        (Fault.events_seen ctl Fault.Wal_append);
      (match Fault.fired ctl with
      | [] -> print_endline "no point has fired yet"
      | fired ->
        List.iter (fun (site, seq) -> Printf.printf "fired: %s event #%d\n" site seq) fired))
  | [ "fault"; "disarm" ] -> (
    match s.fault with
    | None -> print_endline "no fault plan armed"
    | Some ctl ->
      Fault.disarm ctl;
      s.fault <- None;
      print_endline "disarmed")
  | [ "fault"; "fuzz" ] -> cmd_fault_fuzz ~points:40 ~seed:1
  | [ "fault"; "fuzz"; points ] -> cmd_fault_fuzz ~points:(int_of_string points) ~seed:1
  | [ "fault"; "fuzz"; points; seed ] ->
    cmd_fault_fuzz ~points:(int_of_string points) ~seed:(int_of_string seed)
  | [ "stats" ] -> cmd_stats s
  | [ "stats"; "json" ] -> print_endline (Metrics.render_json (Metrics.snapshot ()))
  | [ "trace"; "on" ] ->
    Trace.enable ();
    print_endline "tracing on"
  | [ "trace"; "off" ] ->
    Trace.disable ();
    print_endline "tracing off"
  | [ "trace"; "dump" ] -> cmd_trace_dump None
  | [ "trace"; "dump"; n ] -> cmd_trace_dump (Some (int_of_string n))
  | [ "trace"; "clear" ] ->
    Trace.clear ();
    print_endline "trace buffer cleared"
  | [ "check" ] ->
    let report = Tree_check.check s.tree in
    Format.printf "%a@." Tree_check.pp report
  | [ "quit" ] | [ "exit" ] -> raise Exit
  | words -> Printf.printf "unknown command %S (try 'help')\n" (String.concat " " words)

let () =
  (* Full-page writes on, so a 'fault torn' crash is repairable from a
     logged page image rather than zeroing the mangled page. *)
  let db = Db.create ~config:{ Db.default_config with Db.full_page_writes = true } () in
  let tree = Gist.create db B.ext ~empty_bp:B.Empty () in
  let s = { db; tree; txn = None; autocommit_count = 0; fault = None } in
  let interactive = Unix.isatty Unix.stdin in
  if interactive then begin
    print_endline "gist_shell — a transactional, recoverable B-tree GiST (type 'help')";
    print_string "> "
  end;
  (try
     while true do
       match In_channel.input_line stdin with
       | None -> raise Exit
       | Some line ->
         (try dispatch s line with
         | Exit -> raise Exit
         | Fault.Crash -> crash_and_recover s
         | Fault.Io_error ->
           print_endline "I/O error (injected, transient): the operation failed; retry it"
         | Gist_txn.Lock_manager.Deadlock _ -> print_endline "deadlock: operation aborted"
         | Failure m | Invalid_argument m -> Printf.printf "error: %s\n" m);
         if interactive then print_string "> "
     done
   with Exit -> ());
  (match s.txn with Some txn -> Txn.abort s.db.Db.txns txn | None -> ());
  if interactive then print_endline "bye"
