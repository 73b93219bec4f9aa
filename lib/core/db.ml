open Gist_util
module Disk = Gist_storage.Disk
module Buffer_pool = Gist_storage.Buffer_pool
module Latch = Gist_storage.Latch
module Metrics = Gist_obs.Metrics
module Bg_writer = Gist_storage.Bg_writer
module Page_id = Gist_storage.Page_id
module Lsn = Gist_wal.Lsn
module Log_manager = Gist_wal.Log_manager
module Log_record = Gist_wal.Log_record
module Group_commit = Gist_wal.Group_commit

type nsn_source = Nsn_from_lsn | Nsn_from_counter

type memo_source = Memo_global | Memo_parent_lsn

type config = {
  page_size : int;
  pool_capacity : int;
  max_entries : int;
  io_delay_ns : int;
  nsn_source : nsn_source;
  memo_source : memo_source;
  gc_on_write : bool;
  full_page_writes : bool;
  node_cache : bool;
  olc_retries : int;
  commit_mode : Group_commit.mode;
  wal_flush_delay_ns : int;
  eviction_policy : Buffer_pool.policy;
  bg_writer : bool;
  checkpoint_interval_us : int;
  prefetch_depth : int;
  mvcc : bool;
}

let default_config =
  {
    page_size = 4096;
    pool_capacity = 256;
    max_entries = 64;
    io_delay_ns = 0;
    nsn_source = Nsn_from_lsn;
    memo_source = Memo_parent_lsn;
    gc_on_write = true;
    full_page_writes = false;
    node_cache = true;
    olc_retries = 8;
    commit_mode = Group_commit.Sync;
    wal_flush_delay_ns = 0;
    eviction_policy = Buffer_pool.Two_q;
    bg_writer = false;
    checkpoint_interval_us = 0;
    prefetch_depth = 2;
    mvcc = true;
  }

type t = {
  config : config;
  exts : (string, Ext.packed) Hashtbl.t;
  disk : Disk.t;
  pool : Buffer_pool.t;
  log : Log_manager.t;
  locks : Gist_txn.Lock_manager.t;
  txns : Gist_txn.Txn_manager.t;
  group : Group_commit.t option;
  mutable bg : Bg_writer.t option;
  counter : int64 Atomic.t;
  alloc_mutex : Mutex.t;
  mutable alloc_next : int;
  mutable alloc_free : int list;
  mutable deferred_free : (int * Lsn.t * int) list;
      (* (page, free-record LSN, snapshot barrier): pages retired by node
         delete while a snapshot was active. A lock-free snapshot reader
         holds no signaling lock, so the §7.2 drain cannot see it — the
         empty page image (rightlink intact) must survive until every
         snapshot registered before the barrier has ended, then [reap_free]
         scrubs and releases it. *)
}

(* --- allocator --- *)

let allocate_page t =
  Mutex.lock t.alloc_mutex;
  let pid =
    match t.alloc_free with
    | p :: rest ->
      t.alloc_free <- rest;
      p
    | [] ->
      let p = t.alloc_next in
      t.alloc_next <- p + 1;
      p
  in
  Mutex.unlock t.alloc_mutex;
  Page_id.of_int pid

let release_page t pid =
  let pid = Page_id.to_int pid in
  Mutex.lock t.alloc_mutex;
  if not (List.mem pid t.alloc_free) then t.alloc_free <- pid :: t.alloc_free;
  Mutex.unlock t.alloc_mutex

let page_is_free t pid =
  let pid = Page_id.to_int pid in
  Mutex.lock t.alloc_mutex;
  let r = List.mem pid t.alloc_free || pid >= t.alloc_next in
  Mutex.unlock t.alloc_mutex;
  r

let mark_unavailable t pid =
  let pid = Page_id.to_int pid in
  Mutex.lock t.alloc_mutex;
  t.alloc_free <- List.filter (fun p -> p <> pid) t.alloc_free;
  if pid >= t.alloc_next then begin
    (* Everything between the old frontier and pid stays allocatable. *)
    for p = t.alloc_next to pid - 1 do
      if not (List.mem p t.alloc_free) then t.alloc_free <- p :: t.alloc_free
    done;
    t.alloc_next <- pid + 1
  end;
  Mutex.unlock t.alloc_mutex

let mark_available t pid = release_page t pid

let allocator_snapshot t =
  Mutex.lock t.alloc_mutex;
  let b = Buffer.create 64 in
  Codec.put_i32 b t.alloc_next;
  Codec.put_list Codec.put_i32 b t.alloc_free;
  (* Snapshot-parked pages ride along: their Free_page records may predate
     the redo anchor this snapshot ends up in, and the in-memory park list
     dies with a crash — without this, a page parked across a checkpoint
     would never return to the allocator after restart (a permanent space
     leak). Restore hands them straight back to the free list: no snapshot
     survives a restart, so the park barrier is trivially cleared. *)
  Codec.put_list Codec.put_i32 b (List.map (fun (p, _, _) -> p) t.deferred_free);
  Mutex.unlock t.alloc_mutex;
  Buffer.contents b

let allocator_restore t s =
  let r = Codec.reader (Bytes.unsafe_of_string s) in
  let next = Codec.get_i32 r in
  let free = Codec.get_list Codec.get_i32 r in
  let parked = Codec.get_list Codec.get_i32 r in
  Mutex.lock t.alloc_mutex;
  t.alloc_next <- next;
  t.alloc_free <- free;
  List.iter
    (fun p -> if not (List.mem p t.alloc_free) then t.alloc_free <- p :: t.alloc_free)
    parked;
  Mutex.unlock t.alloc_mutex

(* --- read-only snapshots and deferred page reclamation --- *)

let m_snapshot_begins =
  Metrics.counter ~unit_:"ops" ~help:"read-only snapshot transactions opened (Db.begin_ro)"
    "mvcc.snapshot_begin"

type ro = { ro_snap : Gist_txn.Txn_manager.snapshot }

let begin_ro t =
  if not t.config.mvcc then
    invalid_arg "Db.begin_ro: snapshot reads are disabled (config.mvcc = false)";
  Metrics.incr m_snapshot_begins;
  { ro_snap = Gist_txn.Txn_manager.begin_snapshot t.txns }

let ro_ts ro = Gist_txn.Txn_manager.snapshot_ts ro.ro_snap

let ro_snap ro = ro.ro_snap

(* Park a retired page instead of scrubbing it: a lock-free snapshot
   reader takes no signaling locks, so the §7.2 drain cannot prove the
   page unreferenced. The empty image (rightlink intact) stays readable
   until every snapshot registered before [barrier] ends. *)
let defer_free t pid ~lsn =
  let barrier = Gist_txn.Txn_manager.snapshot_barrier t.txns in
  Mutex.lock t.alloc_mutex;
  t.deferred_free <- (Page_id.to_int pid, lsn, barrier) :: t.deferred_free;
  Mutex.unlock t.alloc_mutex

let deferred_free_count t =
  Mutex.lock t.alloc_mutex;
  let n = List.length t.deferred_free in
  Mutex.unlock t.alloc_mutex;
  n

(* Scrub and release every deferred page whose barrier has cleared (no
   snapshot registered before its retirement survives). Returns how many
   pages were reclaimed. *)
let reap_free t =
  let floor = Gist_txn.Txn_manager.min_active_snap_id t.txns in
  Mutex.lock t.alloc_mutex;
  let ready, still = List.partition (fun (_, _, barrier) -> barrier <= floor) t.deferred_free in
  t.deferred_free <- still;
  Mutex.unlock t.alloc_mutex;
  List.iter
    (fun (p, lsn, _) ->
      let pid = Page_id.of_int p in
      Buffer_pool.with_page t.pool pid Latch.X (fun frame ->
          let img = Buffer_pool.data frame in
          Bytes.fill img 0 (Bytes.length img) '\000';
          Buffer_pool.invalidate_cache frame;
          Buffer_pool.mark_dirty t.pool frame ~lsn);
      release_page t pid)
    ready;
  List.length ready

let end_ro t ro =
  Gist_txn.Txn_manager.end_snapshot t.txns ro.ro_snap;
  ignore (reap_free t)

(* --- checkpointing --- *)

let checkpoint t =
  (* Drain cleared deferred frees first so the allocator snapshot below
     already reflects their release — otherwise a page reaped between the
     snapshot capture and the next checkpoint leaks if we crash while its
     Free_page record sits behind the redo anchor. Pages whose barrier has
     not cleared stay parked and are carried by the snapshot itself. *)
  ignore (reap_free t);
  let none = Txn_id.none in
  let begin_lsn = Log_manager.append t.log ~txn:none ~prev:Lsn.nil Log_record.Checkpoint_begin in
  (* Capture order matters: txn table FIRST, DPT second. A transaction's
     append and its bookkeeping (last_lsn update, mark_dirty) are not
     atomic against this capture, so a record just before [begin_lsn] can
     be missing from both captures. Analysis closes the gap by rescanning
     from the captured table's minimum last_lsn — which only works if the
     racing record's transaction is still IN the captured table, or ended
     so early that its mark_dirty is already visible to the (later) DPT
     capture. Capturing the DPT first would leave a window with neither
     repair. *)
  let active_txns = Gist_txn.Txn_manager.active_txns t.txns in
  let dirty_pages = Buffer_pool.dirty_page_table t.pool in
  let allocator = allocator_snapshot t in
  let end_lsn =
    Log_manager.append t.log ~txn:none ~prev:Lsn.nil
      (Log_record.Checkpoint_end { dirty_pages; active_txns; allocator })
  in
  Log_manager.force t.log end_lsn;
  (* The anchor names the *begin* record, not the end: a fuzzy checkpoint
     runs concurrently with transactions, so records can land between
     [Checkpoint_begin] and the DPT/txn-table capture. Analysis scans from
     the begin record and so covers that window; anchoring the end record
     would lose it (a loser beginning there would never be undone, a page
     first dirtied there never redone). *)
  Log_manager.set_anchor t.log begin_lsn

(* --- lifecycle --- *)

let attach ~recovering ~config ~disk ~log =
  Log_manager.set_flush_delay_ns log config.wal_flush_delay_ns;
  let log_page_image =
    if not config.full_page_writes then None
    else
      Some
        (fun pid image ->
          Log_manager.append log ~txn:Gist_util.Txn_id.none ~prev:Gist_wal.Lsn.nil
            (Log_record.Page_image { page = pid; image = Bytes.to_string image }))
  in
  let pool =
    Buffer_pool.create ?log_page_image ~node_cache:config.node_cache
      ~policy:config.eviction_policy ~capacity:config.pool_capacity ~disk
      ~force_log:(fun lsn -> Log_manager.force log lsn)
      ()
  in
  let locks = Gist_txn.Lock_manager.create () in
  let txns = Gist_txn.Txn_manager.create ~log ~locks in
  (* Group commits flush leader/follower in the committing domains, so
     only Async spawns a domain: the trailer that makes its commits
     durable behind them, owned until [close] (drain) or [crash]
     (discard). *)
  let group =
    match config.commit_mode with
    | Group_commit.Sync -> None
    | Group_commit.Group -> Some (Group_commit.create log)
    | Group_commit.Async ->
      let g = Group_commit.create log in
      Group_commit.start g;
      Some g
  in
  Gist_txn.Txn_manager.set_durability txns ~mode:config.commit_mode ~group;
  let db =
    {
      config;
      exts = Hashtbl.create 4;
      disk;
      pool;
      log;
      locks;
      txns;
      group;
      bg = None;
      counter = Atomic.make 0L;
      alloc_mutex = Mutex.create ();
      alloc_next = 1; (* page 0 is the reserved invalid id *)
      alloc_free = [];
      deferred_free = [];
    }
  in
  (* The background writer/checkpointer domain, like the Async trailer,
     is owned by this environment. Its checkpoint callback closes
     over [db] so fuzzy checkpoints go through the same machinery as
     explicit ones. *)
  if config.bg_writer then begin
    let ckpt =
      if config.checkpoint_interval_us > 0 then
        Some
          (fun () ->
            checkpoint db;
            Log_manager.anchor log)
      else None
    in
    (* Per-shard clean reserve: a quarter of a shard, at least one frame. *)
    let reserve = max 1 (config.pool_capacity / 64) in
    let bg =
      Bg_writer.create ?checkpoint:ckpt ~checkpoint_interval_us:config.checkpoint_interval_us
        ~reserve pool
    in
    (* An environment rebuilt by [crash] takes no checkpoint until
       [Recovery.restart], which re-enables them when it is done: a
       checkpoint of the still-empty pool, transaction table and
       allocator would move the anchor past every record restart must
       replay. *)
    if recovering then Bg_writer.set_checkpoint_enabled bg false;
    Bg_writer.start bg;
    Buffer_pool.set_bg_writer pool
      ~wake:(fun () -> Bg_writer.wake bg)
      ~alive:(fun () -> Bg_writer.running bg);
    db.bg <- Some bg
  end;
  db

let create ?(config = default_config) () =
  let disk = Disk.create ~io_delay_ns:config.io_delay_ns ~page_size:config.page_size () in
  let log = Log_manager.create () in
  attach ~recovering:false ~config ~disk ~log

let close t =
  (match t.bg with
  | None -> ()
  | Some bg ->
    Bg_writer.stop bg;
    Buffer_pool.clear_bg_writer t.pool;
    t.bg <- None);
  match t.group with None -> () | Some g -> Group_commit.stop g

(* Kill the writer domains in place, discarding their in-flight work — the
   background flusher mid-pass, the Async trailer with its un-flushed
   window — and cut group commit's power (no leader flush starts after).
   Idempotent, and deliberately does NOT rewind any state: the fault
   harness must be able to stop the domains while its hooks are still
   armed, *before* the log is truncated, or a flusher could write back a
   page whose records the rewind is about to discard. *)
let halt_domains t =
  (match t.bg with
  | None -> ()
  | Some bg ->
    Bg_writer.halt bg;
    Buffer_pool.clear_bg_writer t.pool;
    t.bg <- None);
  match t.group with None -> () | Some g -> Group_commit.halt g

let crash t =
  (* Power first: the writer domains die with their in-flight work, so the
     rewind below really is stop-the-world. *)
  halt_domains t;
  Buffer_pool.drop_all t.pool;
  Log_manager.crash t.log;
  let fresh = attach ~recovering:true ~config:t.config ~disk:t.disk ~log:t.log in
  (* A dedicated counter is volatile; restart over-approximates it from the
     log so NSN comparisons stay conservative. *)
  Atomic.set fresh.counter (Log_manager.last_lsn t.log);
  fresh

(* --- NSN management --- *)

let global_nsn t =
  match t.config.nsn_source with
  | Nsn_from_lsn -> Log_manager.last_lsn t.log
  | Nsn_from_counter -> Atomic.get t.counter

let split_nsn t ~record_lsn =
  match t.config.nsn_source with
  | Nsn_from_lsn -> record_lsn
  | Nsn_from_counter ->
    let rec bump () =
      let v = Atomic.get t.counter in
      let nv = Int64.add v 1L in
      if Atomic.compare_and_set t.counter v nv then nv else bump ()
    in
    bump ()

let register_ext t (Ext.Packed e as packed) =
  Mutex.lock t.alloc_mutex;
  Hashtbl.replace t.exts e.Ext.name packed;
  Mutex.unlock t.alloc_mutex

let find_ext t name =
  Mutex.lock t.alloc_mutex;
  let r = Hashtbl.find_opt t.exts name in
  Mutex.unlock t.alloc_mutex;
  r

let truncate_log t =
  let anchor = Log_manager.anchor t.log in
  if Lsn.equal anchor Lsn.nil then 0
  else begin
    (* Undo needs every loser's backchain from its Begin; redo needs every
       unflushed page's first-dirtying record. *)
    let oldest_active = Gist_txn.Txn_manager.commit_lsn t.txns in
    let oldest_rec_lsn =
      List.fold_left
        (fun acc (_, rec_lsn) -> Lsn.min acc rec_lsn)
        Int64.max_int
        (Buffer_pool.dirty_page_table t.pool)
    in
    Log_manager.truncate_before t.log (Lsn.min anchor (Lsn.min oldest_active oldest_rec_lsn))
  end
