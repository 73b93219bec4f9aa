open Gist_util
module Lsn = Gist_wal.Lsn
module Log_record = Gist_wal.Log_record
module Log_manager = Gist_wal.Log_manager
module Group_commit = Gist_wal.Group_commit
module Metrics = Gist_obs.Metrics
module Trace = Gist_obs.Trace

let m_begins = Metrics.counter ~unit_:"ops" ~help:"transactions started" "txn.begin"

let m_commits = Metrics.counter ~unit_:"ops" ~help:"transactions committed" "txn.commit"

let m_aborts = Metrics.counter ~unit_:"ops" ~help:"transactions rolled back" "txn.abort"

let m_ntas =
  Metrics.counter ~unit_:"ops" ~help:"nested top actions opened (splits, node deletes)" "txn.nta"

let m_force_elided =
  Metrics.counter ~unit_:"ops"
    ~help:"durability barriers dropped because the caller did not need one (rollback: an \
           un-forced abort is re-derived by restart; a read-only commit logged nothing to \
           make durable)"
    "wal.force_elided"

let h_commit_latency =
  Metrics.histogram ~unit_:"ns"
    ~help:"commit call latency: log the Commit record, obtain durability per the commit \
           mode, release locks" "wal.commit_latency_ns"

type txn = {
  tid : Txn_id.t;
  mutable last : Lsn.t;
  mutable begin_lsn : Lsn.t;
  mutable status : Log_record.status;
  mutable savepoints : (string * Lsn.t) list;
}

type snapshot = { snap_id : int; snap_ts : int }

let snapshot_ts s = s.snap_ts

(* The live and committed tables are sharded by transaction id, the same
   way the lock manager and buffer pool shard their tables — a global
   transaction-table mutex would otherwise sit on every begin/commit. *)
let n_shards = 64

type 'a shard = { sm : Mutex.t; stbl : (Txn_id.t, 'a) Hashtbl.t }

type t = {
  log : Log_manager.t;
  lock_mgr : Lock_manager.t;
  table : txn shard array;
  committed : int shard array;
      (* tid -> commit timestamp. Only grows during a run; restart builds a
         fresh one in log order, and tids older than the analysis window are
         simply absent — absent-from-both-tables reads as "committed at
         timestamp 0" (visible to every snapshot). *)
  next_id : int Atomic.t;
  next_cts : int Atomic.t;  (* next commit timestamp to reserve *)
  published_cts : int Atomic.t;
      (* highest commit timestamp whose tid->cts mapping is guaranteed
         visible in [committed]. Committers advance it strictly in
         timestamp order (reserve, insert, then spin until cts-1 is
         published), so a snapshot taken at [published_cts] can resolve
         every commit at or below its timestamp — no torn snapshots. *)
  snap_mutex : Mutex.t;
  snaps : (int, int) Hashtbl.t;  (* snapshot id -> snapshot timestamp *)
  mutable next_snap_id : int;
  mutable undo_handler : (txn -> Log_record.t -> unit) option;
  mutable end_hooks : (Txn_id.t -> unit) list;
  mutable commit_mode : Group_commit.mode;
  mutable group : Group_commit.t option;
}

let mk_shards () =
  Array.init n_shards (fun _ -> { sm = Mutex.create (); stbl = Hashtbl.create 8 })

let shard shards tid = shards.(Txn_id.to_int tid land (n_shards - 1))

let create ~log ~locks =
  {
    log;
    lock_mgr = locks;
    table = mk_shards ();
    committed = mk_shards ();
    next_id = Atomic.make 1;
    next_cts = Atomic.make 1;
    published_cts = Atomic.make 0;
    snap_mutex = Mutex.create ();
    snaps = Hashtbl.create 8;
    next_snap_id = 1;
    undo_handler = None;
    end_hooks = [];
    commit_mode = Group_commit.Sync;
    group = None;
  }

let set_undo_handler t f = t.undo_handler <- Some f

let set_durability t ~mode ~group =
  t.commit_mode <- mode;
  t.group <- group

let commit_mode t = t.commit_mode

let add_end_hook t f = t.end_hooks <- t.end_hooks @ [ f ]

let locks t = t.lock_mgr

let log t = t.log

let id txn = txn.tid

let last_lsn txn = txn.last

let find t tid =
  let sh = shard t.table tid in
  Mutex.lock sh.sm;
  let r = Hashtbl.find_opt sh.stbl tid in
  Mutex.unlock sh.sm;
  r

(* A transaction enters the live table (and X-locks its own id, §10.3)
   at begin, but writes nothing to the log until its first update: a
   read-only transaction leaves no trace in the log at all. *)
let begin_txn t =
  Metrics.incr m_begins;
  let tid = Txn_id.of_int (Atomic.fetch_and_add t.next_id 1) in
  let txn = { tid; last = Lsn.nil; begin_lsn = Lsn.nil; status = Log_record.Active; savepoints = [] } in
  let sh = shard t.table tid in
  Mutex.lock sh.sm;
  Hashtbl.replace sh.stbl tid txn;
  Mutex.unlock sh.sm;
  Lock_manager.lock t.lock_mgr tid (Lock_manager.Txn tid) Lock_manager.X;
  txn

(* Whether [txn] has appended anything. Restart-restored transactions
   always have (their [last] comes from the log). *)
let logged txn = not (Lsn.equal txn.last Lsn.nil)

(* The lazy Begin is appended under the transaction's table-shard mutex,
   with [begin_lsn] and [last] set before it is released. A checkpoint's
   [active_txns] capture takes the same mutex, so it sees either no
   record of this transaction (and its Begin lands after the capture, so
   after [Checkpoint_begin]) or a [last] at or below every record the
   transaction will append — the capture-order argument of
   [Db.checkpoint] holds unchanged. [Mutex.protect]: an injected crash
   raised by the append must not leave the shard locked. *)
let log_begin t txn =
  Mutex.protect (shard t.table txn.tid).sm (fun () ->
      let lsn = Log_manager.append t.log ~txn:txn.tid ~prev:Lsn.nil Log_record.Begin in
      txn.begin_lsn <- lsn;
      txn.last <- lsn)

let log_update t txn ?(ext = "") payload =
  if not (logged txn) then log_begin t txn;
  let lsn = Log_manager.append t.log ~txn:txn.tid ~prev:txn.last ~ext payload in
  txn.last <- lsn;
  lsn

let log_nta = log_update

let begin_nta _t txn =
  Metrics.incr m_ntas;
  if Trace.enabled () then Trace.emit (Trace.Nta_begin { txn = txn.tid });
  txn.last

let end_nta t txn pre_nta_lsn =
  ignore
    (log_update t txn
       (Log_record.Clr { action = Log_record.Act_none; undo_next = pre_nta_lsn }));
  if Trace.enabled () then Trace.emit (Trace.Nta_commit { txn = txn.tid })

let run_end_hooks t tid = List.iter (fun f -> f tid) t.end_hooks

let drop t txn =
  let sh = shard t.table txn.tid in
  Mutex.lock sh.sm;
  Hashtbl.remove sh.stbl txn.tid;
  Mutex.unlock sh.sm

(* Durability per commit mode. [Sync] is the classic path: this committer
   pays the physical flush itself. [Group] runs leader/follower in this
   domain: follow the flush in flight, or lead the next one — same
   contract, one device write per batch. [Async] hands the LSN to the
   trailer and returns: locks and predicates release immediately and
   durability trails (an async-committed transaction may roll back —
   atomically — after a crash; PROTOCOL.md §8). With no group commit
   wired (plain [create]) every mode forces inline. *)
let commit_durability t lsn =
  match (t.commit_mode, t.group) with
  | Group_commit.Sync, _ | _, None -> Log_manager.force t.log lsn
  | Group_commit.Group, Some g -> Group_commit.submit ~wait:true g lsn
  | Group_commit.Async, Some g -> Group_commit.submit ~wait:false g lsn

(* Durability independent of the configured route: a waiting group-commit
   submit if one is wired, an inline force otherwise. *)
let forced_durability t lsn =
  match t.group with
  | Some g -> Group_commit.submit ~wait:true g lsn
  | None -> Log_manager.force t.log lsn

(* Assign [tid] the next commit timestamp and publish it in timestamp
   order: reserve, insert the mapping, then advance [published_cts] once
   every earlier timestamp is published. The in-order advance is what makes
   a snapshot at [published_cts] closed under commit order — it can never
   observe timestamp n+1's effects while n's mapping is still in flight.
   Idempotent: restart analysis may mark the same commit twice. *)
let assign_cts t tid =
  let sh = shard t.committed tid in
  Mutex.lock sh.sm;
  if Hashtbl.mem sh.stbl tid then Mutex.unlock sh.sm
  else begin
    let cts = Atomic.fetch_and_add t.next_cts 1 in
    Hashtbl.replace sh.stbl tid cts;
    Mutex.unlock sh.sm;
    while not (Atomic.compare_and_set t.published_cts (cts - 1) cts) do
      Domain.cpu_relax ()
    done
  end

let commit ?(durability = `Mode) t txn =
  Metrics.incr m_commits;
  Metrics.time_ns h_commit_latency (fun () ->
      (* A transaction that logged nothing only read: it has no Commit
         record to force and nothing a snapshot could see, so it takes
         neither a durability wait nor a commit timestamp (PROTOCOL.md
         §8). It still ends like any other: end hooks, live table,
         locks. *)
      let logged = logged txn in
      if logged then begin
        let commit_rec = log_update t txn Log_record.Commit in
        match durability with
        | `Mode -> commit_durability t commit_rec
        | `Force -> forced_durability t commit_rec
      end
      else Metrics.incr m_force_elided;
      txn.status <- Log_record.Committed;
      if logged then assign_cts t txn.tid;
      run_end_hooks t txn.tid;
      if logged then ignore (log_update t txn Log_record.End);
      drop t txn;
      Lock_manager.release_all t.lock_mgr txn.tid)

(* Walk the backchain from [txn.last] down to (exclusive) [stop_at],
   invoking the undo handler on each undoable record and honoring CLR
   undo_next jumps so that an undo is never undone. *)
let undo_chain t txn ~stop_at =
  let handler =
    match t.undo_handler with
    | Some h -> h
    | None -> invalid_arg "Txn_manager: no undo handler installed"
  in
  let rec loop lsn =
    if Lsn.( <= ) lsn stop_at || Lsn.equal lsn Lsn.nil then ()
    else
      match Log_manager.read t.log lsn with
      | None ->
        (* Record lost in a crash before being forced: nothing it changed
           can have reached disk either (WAL rule), so skip past it. *)
        loop Lsn.nil
      | Some record -> (
        match record.Log_record.payload with
        | Log_record.Clr { undo_next; _ } -> loop undo_next
        | Log_record.Begin | Log_record.Commit | Log_record.Abort | Log_record.End
        | Log_record.Checkpoint_begin | Log_record.Checkpoint_end _ ->
          loop record.Log_record.prev
        | payload ->
          if Log_record.is_redo_only payload then loop record.Log_record.prev
          else begin
            handler txn record;
            loop record.Log_record.prev
          end)
  in
  loop txn.last

let abort t txn =
  Metrics.incr m_aborts;
  txn.status <- Log_record.Aborting;
  (* A transaction that logged nothing has nothing to undo and ends
     without an Abort/End pair. *)
  let logged = logged txn in
  if logged then ignore (log_update t txn Log_record.Abort);
  undo_chain t txn ~stop_at:Lsn.nil;
  run_end_hooks t txn.tid;
  if logged then ignore (log_update t txn Log_record.End);
  (* No durability barrier: if the un-forced Abort/CLR tail is lost in a
     crash, restart re-derives the very same rollback from the prefix —
     forcing here bought nothing but a device write on the abort path. A
     later commit's flush will carry these records out. *)
  Metrics.incr m_force_elided;
  drop t txn;
  Lock_manager.release_all t.lock_mgr txn.tid

let savepoint _t txn name = txn.savepoints <- (name, txn.last) :: txn.savepoints

let rollback_to_savepoint t txn name =
  let lsn = List.assoc name txn.savepoints in
  undo_chain t txn ~stop_at:lsn;
  (* Later savepoints are gone; the named one stays reusable. *)
  let rec trim = function
    | [] -> []
    | (n, _) :: _ as l when n = name -> l
    | _ :: rest -> trim rest
  in
  txn.savepoints <- trim txn.savepoints

let is_committed t tid =
  let sh = shard t.committed tid in
  Mutex.lock sh.sm;
  let r = Hashtbl.mem sh.stbl tid in
  Mutex.unlock sh.sm;
  r

let is_active t tid =
  let sh = shard t.table tid in
  Mutex.lock sh.sm;
  let r = Hashtbl.mem sh.stbl tid in
  Mutex.unlock sh.sm;
  r

let commit_ts_of t tid =
  let sh = shard t.committed tid in
  Mutex.lock sh.sm;
  let r = Hashtbl.find_opt sh.stbl tid in
  Mutex.unlock sh.sm;
  r

let published_cts t = Atomic.get t.published_cts

(* Snapshot-visibility core: did [tid] commit with a timestamp at or below
   [ts]? The committed table is consulted first — a committing transaction
   inserts its mapping before [drop] removes it from the live table, so
   checking in this order never sees a committed transaction as merely
   live. A tid in neither table is a commit from before the current
   analysis window (restart rebuilt the tables and its Commit record
   predates the scan): timestamp 0, visible to every snapshot.

   The None branch must not trust a single [is_active] look: between the
   first [commit_ts_of] and the [is_active] check the transaction can
   commit (insert its mapping, log End — a WAL append, so the window is
   wide) and drop from the live table, which would read as
   absent-from-both = historical and make a post-snapshot commit visible.
   The committed table only grows during a run, so re-checking it after
   [is_active] returns false is authoritative: [Some cts] now is an
   in-window commit to compare against [ts]; still [None] means the tid
   really predates the analysis window. *)
let committed_as_of t ~ts tid =
  (not (Txn_id.is_some tid))
  ||
  match commit_ts_of t tid with
  | Some cts -> cts <= ts
  | None ->
    (not (is_active t tid))
    && (match commit_ts_of t tid with Some cts -> cts <= ts | None -> true)

let begin_snapshot t =
  Mutex.lock t.snap_mutex;
  let snap_ts = Atomic.get t.published_cts in
  let snap_id = t.next_snap_id in
  t.next_snap_id <- snap_id + 1;
  Hashtbl.replace t.snaps snap_id snap_ts;
  Mutex.unlock t.snap_mutex;
  { snap_id; snap_ts }

let end_snapshot t snap =
  Mutex.lock t.snap_mutex;
  Hashtbl.remove t.snaps snap.snap_id;
  Mutex.unlock t.snap_mutex

let active_snapshots t =
  Mutex.lock t.snap_mutex;
  let n = Hashtbl.length t.snaps in
  Mutex.unlock t.snap_mutex;
  n

(* The oldest-active-snapshot watermark: version GC may reclaim an entry
   whose deleter committed at or below this. [max_int] when no snapshot is
   active (GC degenerates to the pre-MVCC rule). Registration and watermark
   reads serialize on [snap_mutex], so a snapshot can never slip under a
   watermark computed after its registration. *)
let oldest_snapshot_ts t =
  Mutex.lock t.snap_mutex;
  let r = Hashtbl.fold (fun _ ts acc -> min ts acc) t.snaps max_int in
  Mutex.unlock t.snap_mutex;
  r

let min_active_snap_id t =
  Mutex.lock t.snap_mutex;
  let r = Hashtbl.fold (fun id _ acc -> min id acc) t.snaps max_int in
  Mutex.unlock t.snap_mutex;
  r

let snapshot_barrier t =
  Mutex.lock t.snap_mutex;
  let r = t.next_snap_id in
  Mutex.unlock t.snap_mutex;
  r

let active_txns t =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.sm;
      let acc =
        Hashtbl.fold
          (fun tid txn acc -> if logged txn then (tid, txn.status, txn.last) :: acc else acc)
          sh.stbl acc
      in
      Mutex.unlock sh.sm;
      acc)
    [] t.table

let commit_lsn t =
  (* Snapshot the log position before scanning the shards: a transaction
     whose lazy Begin is missed by the scan appended it after this read
     (it holds its shard mutex across the append), so its begin_lsn is >=
     the snapshot — the fold-with-limit stays a valid lower bound without
     a global table lock. A transaction that has logged nothing owns no
     record on any page and is skipped; its nil begin_lsn would otherwise
     pin the bound at the start of the log. *)
  let limit = Int64.add (Log_manager.last_lsn t.log) 1L in
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.sm;
      let acc =
        Hashtbl.fold
          (fun _ txn acc -> if logged txn then Lsn.min acc txn.begin_lsn else acc)
          sh.stbl acc
      in
      Mutex.unlock sh.sm;
      acc)
    limit t.table

let restore_txn t tid ~status ~last_lsn =
  let txn = { tid; last = last_lsn; begin_lsn = Lsn.nil; status; savepoints = [] } in
  let sh = shard t.table tid in
  Mutex.lock sh.sm;
  Hashtbl.replace sh.stbl tid txn;
  Mutex.unlock sh.sm;
  (* CAS-max: ids issued after restart must clear every restored id. *)
  let want = Txn_id.to_int tid + 1 in
  let rec bump () =
    let cur = Atomic.get t.next_id in
    if cur < want && not (Atomic.compare_and_set t.next_id cur want) then bump ()
  in
  bump ();
  txn

(* Restart analysis replays Commit records in LSN order, so timestamps
   assigned here reproduce the pre-crash commit order over the analysis
   window — exactly what post-restart snapshots need. *)
let mark_committed t tid = assign_cts t tid

let forget_txn t tid =
  let sh = shard t.table tid in
  Mutex.lock sh.sm;
  Hashtbl.remove sh.stbl tid;
  Mutex.unlock sh.sm

let finish_txn t txn =
  ignore (log_update t txn Log_record.End);
  drop t txn

let abort_for_restart t txn =
  txn.status <- Log_record.Aborting;
  undo_chain t txn ~stop_at:Lsn.nil;
  run_end_hooks t txn.tid;
  ignore (log_update t txn Log_record.End);
  drop t txn;
  Lock_manager.release_all t.lock_mgr txn.tid
