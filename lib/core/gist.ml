open Gist_util
module Page_id = Gist_storage.Page_id
module Rid = Gist_storage.Rid
module Buffer_pool = Gist_storage.Buffer_pool
module Latch = Gist_storage.Latch
module Lsn = Gist_wal.Lsn
module Log_record = Gist_wal.Log_record
module Lock_manager = Gist_txn.Lock_manager
module Txn_manager = Gist_txn.Txn_manager
module Pm = Gist_pred.Predicate_manager
module Metrics = Gist_obs.Metrics
module Trace = Gist_obs.Trace

(* Operation counters, aggregated across every tree in the process. *)
let m_searches = Metrics.counter ~unit_:"ops" ~help:"search operations" "gist.search"

let m_inserts = Metrics.counter ~unit_:"ops" ~help:"insert operations" "gist.insert"

let m_deletes = Metrics.counter ~unit_:"ops" ~help:"logical-delete operations" "gist.delete"

let m_splits = Metrics.counter ~unit_:"ops" ~help:"node splits (split NTAs)" "gist.split"

let m_root_grows =
  Metrics.counter ~unit_:"ops" ~help:"fixed-root splits growing the tree" "gist.root_grow"

let m_bp_updates =
  Metrics.counter ~unit_:"ops" ~help:"parent-entry BP expansions propagated" "gist.bp_update"

let m_rightlinks =
  Metrics.counter ~unit_:"ops"
    ~help:"rightlink traversals compensating for missed splits (NSN mismatch)"
    "gist.rightlink_follow"

let m_gc_entries =
  Metrics.counter ~unit_:"entries" ~help:"committed-deleted entries reclaimed" "gist.gc_entry"

let m_node_deletes =
  Metrics.counter ~unit_:"ops" ~help:"empty nodes retired by the drain technique" "gist.node_delete"

let m_pred_blocks =
  Metrics.counter ~unit_:"ops" ~help:"inserts blocked on a conflicting predicate" "gist.pred_block"

let m_pred_checks =
  Metrics.counter ~unit_:"ops" ~help:"insert step-6 conflict checks executed" "pred.check"

let m_pred_conflicts =
  Metrics.counter ~unit_:"preds" ~help:"conflicting predicates found by checks" "pred.conflict"

let m_olc_attempts =
  Metrics.counter ~unit_:"ops" ~help:"optimistic latch-free node reads attempted (search path)"
    "olc.read_attempt"

let m_olc_restarts =
  Metrics.counter ~unit_:"ops"
    ~help:"optimistic reads discarded (version word busy or changed across the read)"
    "olc.restart"

let m_olc_fallbacks =
  Metrics.counter ~unit_:"ops"
    ~help:"node visits that exhausted the optimistic retry budget and took the S latch"
    "olc.fallback"

let m_snapshot_scans =
  Metrics.counter ~unit_:"ops" ~help:"read-only snapshot scans (lock-free MVCC read path)"
    "mvcc.snapshot_scan"

let m_version_skipped =
  Metrics.counter ~unit_:"entries"
    ~help:"leaf-entry versions skipped by snapshot visibility filtering (creator too new or \
           deleter already committed at the snapshot timestamp)"
    "mvcc.version_skipped"

let m_gc_reclaimed =
  Metrics.counter ~unit_:"entries"
    ~help:"dead versions reclaimed by GC under the oldest-active-snapshot watermark"
    "mvcc.gc_reclaimed"

exception Duplicate_key

exception Parent_needs_split
(* Internal: a split found its parent full; the caller climbs the descent
   stack, splits the parent, and retries. *)

type 'p t = {
  db : Db.t;
  ext : 'p Ext.t;
  root : Page_id.t;
  preds : 'p Pm.t;
  unique : bool;
  mutable hook : string -> unit;
}

let db t = t.db

let ext t = t.ext

let root t = t.root

let predicate_manager t = t.preds

let set_hook t f = t.hook <- f

let hook t label = t.hook label

(* Hot paths guard hook-argument construction on this test: [ignore] is the
   physical default. *)
let hook_on t = t.hook != ignore

let hookf t fmt = if hook_on t then Format.kasprintf t.hook fmt else Format.ikfprintf ignore Format.str_formatter fmt

(* Record one rightlink compensation (§3): a traversal found a node whose
   NSN is newer than its memorized value and must evaluate the right
   sibling too. Bumps the global metric and, under tracing, emits the
   NSN-mismatch + traversal pair. *)
let note_rightlink_raw ~from_pid ~memo ~nsn ~rightlink =
  Metrics.incr m_rightlinks;
  if Trace.enabled () then begin
    Trace.emit (Trace.Nsn_mismatch { page = Page_id.to_int from_pid; memo; nsn });
    Trace.emit
      (Trace.Rightlink
         { from_page = Page_id.to_int from_pid; to_page = Page_id.to_int rightlink })
  end

let note_rightlink ~from_pid ~memo node =
  note_rightlink_raw ~from_pid ~memo ~nsn:node.Node.nsn ~rightlink:node.Node.rightlink

(* ------------------------------------------------------------------ *)
(* Node access helpers                                                 *)
(* ------------------------------------------------------------------ *)

let with_node t pid mode f =
  Buffer_pool.with_page t.db.Db.pool pid mode (fun frame -> f frame (Node.get t.ext frame))

(* Pin [pid] un-latched for the duration of [f]. The pin keeps the frame
   resident, so pinning the same page inside [f] — typically under an
   ancestor's latch (latch order parent → child) — is a guaranteed buffer
   hit: whatever I/O the pin needs (fault-in, evicting a dirty victim)
   happens here with no latches held, honoring claim C1 even when the
   pool thrashes. *)
let with_resident t pid f =
  let pool = t.db.Db.pool in
  let frame = Buffer_pool.pin pool pid in
  Fun.protect ~finally:(fun () -> Buffer_pool.unpin pool frame) f

(* Write a node back under an X latch and stamp the page with [lsn]. The
   cache install comes after mark_dirty so the stamp matches the final
   header LSN (a first-dirty full-page write restamps the header above
   [lsn]). *)
let write_node t frame node ~lsn =
  Node.write t.ext node frame;
  Buffer_pool.mark_dirty t.db.Db.pool frame ~lsn;
  Node.cache node frame

let bp_string t p = Ext.encode_to_string t.ext p

let bp_equal t a b = String.equal (bp_string t a) (bp_string t b)

(* The value a traversal memorizes when reading child pointers out of a
   node (§10.1): the node's own page LSN under the optimized scheme, the
   global counter otherwise. Must be called under the node's latch. *)
let memo_of t frame =
  match t.db.Db.config.Db.memo_source with
  | Db.Memo_parent_lsn -> Buffer_pool.page_lsn frame
  | Db.Memo_global -> Db.global_nsn t.db

let node_fits t node ~extra =
  Node.fits t.ext node ~page_size:t.db.Db.config.Db.page_size ~extra
    ~max_entries:t.db.Db.config.Db.max_entries

(* ------------------------------------------------------------------ *)
(* Operation context: signaling locks (§7.2)                           *)
(* ------------------------------------------------------------------ *)

type opctx = { tid : Txn_id.t; mutable sig_locks : Page_id.t list }

(* Place a signaling lock on [pid]. Must be called while holding the latch
   of the node the pointer was read from, so that a concurrent split's
   lock-copying covers every right sibling we may traverse (§7.2). Never
   blocks: node deleters only ever try-lock X. *)
let sig_lock t ctx pid =
  Lock_manager.lock t.db.Db.locks ctx.tid (Lock_manager.Node pid) Lock_manager.S;
  ctx.sig_locks <- pid :: ctx.sig_locks

(* Single pass: hash the (few) kept pids once instead of List.exists per
   held lock, which made release O(held × kept) on scan-heavy ops. The
   filter both unlocks and rebuilds the kept list; duplicates in
   [sig_locks] are preserved (each holds its own lock count). *)
let release_sig_locks t ctx ~keep =
  let keep_tbl = Hashtbl.create 8 in
  List.iter (fun pid -> Hashtbl.replace keep_tbl (Page_id.to_int pid) ()) keep;
  ctx.sig_locks <-
    List.filter
      (fun pid ->
        Hashtbl.mem keep_tbl (Page_id.to_int pid)
        ||
        (Lock_manager.unlock t.db.Db.locks ctx.tid (Lock_manager.Node pid);
         false))
      ctx.sig_locks

let with_ctx txn ~keep_on_success t f =
  let ctx = { tid = Txn_manager.id txn; sig_locks = [] } in
  match f ctx with
  | v ->
    release_sig_locks t ctx ~keep:(keep_on_success v);
    v
  | exception e ->
    release_sig_locks t ctx ~keep:[];
    raise e

(* ------------------------------------------------------------------ *)
(* Recovery handler installation                                       *)
(* ------------------------------------------------------------------ *)

let install_recovery t =
  Db.register_ext t.db (Ext.Packed t.ext);
  Recovery.install t.db;
  Txn_manager.add_end_hook t.db.Db.txns (fun tid -> Pm.remove_txn t.preds tid)

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

let make_handle db ext_ unique root =
  {
    db;
    ext = ext_;
    root;
    preds = Pm.create ();
    unique;
    hook = ignore;
  }

let open_existing db ext_ ?(unique = false) ~root () =
  let t = make_handle db ext_ unique root in
  install_recovery t;
  t

let create db ext_ ?(unique = false) ~empty_bp () =
  let t0 = make_handle db ext_ unique Page_id.invalid in
  install_recovery t0;
  (* Format the root inside an NTA owned by a short system transaction. *)
  let txn = Txn_manager.begin_txn db.Db.txns in
  let nta = Txn_manager.begin_nta db.Db.txns txn in
  let root = Db.allocate_page db in
  ignore (Txn_manager.log_nta db.Db.txns txn ~ext:ext_.Ext.name (Log_record.Get_page { page = root }));
  let fmt_lsn =
    Txn_manager.log_nta db.Db.txns txn ~ext:ext_.Ext.name
      (Log_record.Format_node { page = root; level = 0; bp = Ext.encode_to_string ext_ empty_bp })
  in
  let node = Node.make_leaf ~id:root ~bp:empty_bp in
  Buffer_pool.with_new_page db.Db.pool root (fun frame -> write_node t0 frame node ~lsn:fmt_lsn);
  Txn_manager.end_nta db.Db.txns txn nta;
  (* The tree's existence is not expressible as transaction rollback:
     lose these records in a crash and recovery has no root to rebuild.
     So this commit is durable even under async commit (DDL semantics). *)
  Txn_manager.commit ~durability:`Force db.Db.txns txn;
  let t = { t0 with root } in
  install_recovery t;
  t

(* ------------------------------------------------------------------ *)
(* The read path: Figure 3's node visit (PROTOCOL.md §7, §9)           *)
(* ------------------------------------------------------------------ *)

(* Run [read] on the pinned [frame] inside the frame latch's version
   window: the one optimistic-read protocol (PROTOCOL.md §7). A conflict
   (version word odd, or changed across the read) restarts the attempt
   ([olc.restart]); after [olc_retries] attempts [latched] runs instead
   ([olc.fallback]). [read] returns [None] when the visit needs the S
   latch anyway (a locking leaf): [latched] then runs at once, which is
   no fallback. A racing writer can tear the raw decode, so an exception
   is re-raised only if the window still validates — then it is one an
   S-latched reader would have hit too. *)
let optimistic t frame pid ~read ~latched =
  let rec attempt n =
    if n >= t.db.Db.config.Db.olc_retries then begin
      Metrics.incr m_olc_fallbacks;
      if Trace.enabled () then Trace.emit (Trace.Olc_fallback { page = Page_id.to_int pid });
      latched ()
    end
    else begin
      Metrics.incr m_olc_attempts;
      let restart () =
        Metrics.incr m_olc_restarts;
        if Trace.enabled () then Trace.emit (Trace.Olc_restart { page = Page_id.to_int pid });
        Domain.cpu_relax ();
        attempt (n + 1)
      in
      match Buffer_pool.frame_version frame with
      | None -> restart ()
      | Some v0 -> (
        match read () with
        | exception e -> if Buffer_pool.validate_frame frame v0 then raise e else restart ()
        | None -> latched ()
        | Some r -> if Buffer_pool.validate_frame frame v0 then r else restart ())
    end
  in
  attempt 0

type ('p, 'a) leaf =
  | Locking of (Page_id.t -> 'p Node.t -> 'a option)
  | Buffering of (Page_id.t -> 'p Node.t -> 'a option)
  | Snapshot of (Page_id.t -> 'p Node.t -> 'a option)

(* S-latch a snapshot reader's frame without ever parking on a writer's
   latch: spin on [try_acquire], and every so often probe the disk — a
   read whose fault hook re-raises a sticky simulated power-off in
   {e this} domain. No kernel path strands a latch: every X latch is taken
   through [Buffer_pool.with_page] or [with_new_page], which release it
   when an exception unwinds. The probe is a backstop for the crash
   fuzzer, whose power loss is an exception in the faulting domain only
   (a real one stops every domain): should a latch holder ever stop
   without releasing, a racing reader spinning on that latch still ends
   with the [Fault.Crash] it already absorbs instead of spinning forever. *)
let spin_s t frame pid =
  let l = Buffer_pool.latch frame in
  let rec go spins =
    if not (Latch.try_acquire l Latch.S) then begin
      if spins land 255 = 255 then
        ignore (Gist_storage.Disk.read (Buffer_pool.disk t.db.Db.pool) pid);
      Domain.cpu_relax ();
      go (spins + 1)
    end
  in
  go 0

(* Hand the scan's next visit targets (pending subtree roots and rightlink
   successors already on the stack) to the background writer for
   read-ahead. Called with no latch held; resident pages are ignored by
   the pool, so over-asking is cheap. *)
let prefetch_pending t stack =
  match t.db.Db.bg with
  | None -> ()
  | Some bg ->
    let depth = t.db.Db.config.Db.prefetch_depth in
    let rec go n = function
      | (pid, _) :: rest when n < depth ->
        Gist_storage.Bg_writer.prefetch bg pid;
        go (n + 1) rest
      | _ -> ()
    in
    go 0 stack

(* Figure 3's step on one node, decoded under the S latch or inside a
   version window: compensate a missed split through the rightlink (§3),
   then collect the consistent children under the child memo (§10.1), or
   run the leaf policy. Signaling locks (§7.2) are placed here, while the
   node state read is current: inside a window, validation proves they
   were placed as if under the latch; a failed attempt's extra locks are
   merely conservative (they block only a drain's conditional X) and go
   with the operation's others. Returns the commit to run once the read
   is known good — counter bumps, hooks and stack pushes — which yields
   the leaf policy's result. *)
let node_step t ~query ~sig_lock ~leaf frame pid memo node =
  let rl =
    if Lsn.( < ) memo node.Node.nsn && Page_id.is_valid node.Node.rightlink then begin
      sig_lock node.Node.rightlink;
      Some (node.Node.rightlink, node.Node.nsn)
    end
    else None
  in
  let children, out =
    if Node.is_leaf node then ([], leaf pid node)
    else
      let child_memo = memo_of t frame in
      ( Dyn.fold
          (fun acc e ->
            if t.ext.Ext.consistent query e.Node.ie_bp then begin
              sig_lock e.Node.ie_child;
              (e.Node.ie_child, child_memo) :: acc
            end
            else acc)
          [] (Node.internal_entries node),
        None )
  in
  fun stack ->
    (match rl with
    | Some (rightlink, nsn) ->
      note_rightlink_raw ~from_pid:pid ~memo ~nsn ~rightlink;
      stack := (rightlink, memo) :: !stack;
      hookf t "visit:rightlink:%a" Page_id.pp rightlink
    | None -> ());
    (* [children] is in reverse entry order: the first consistent entry
       ends on top, so a scan visits the tree in entry order. *)
    stack := List.rev_append children !stack;
    out

let visit t ~query ?spred ~sig_lock ~leaf stack (pid, memo) =
  (* Attach before any entry is examined (§4.3), outside the window:
     attaching takes a predicate-manager shard lock, which could stall the
     window arbitrarily, and it is idempotent, so one attach covers every
     attempt and the latched visit. *)
  (match spred with Some sp -> Pm.attach t.preds sp pid | None -> ());
  let pool = t.db.Db.pool in
  let frame = Buffer_pool.pin pool pid in
  let step node =
    let f = match leaf with Locking f | Buffering f | Snapshot f -> f in
    node_step t ~query ~sig_lock ~leaf:f frame pid memo node
  in
  let read () =
    let node = Node.peek t.ext frame in
    match leaf with Locking _ when Node.is_leaf node -> None | _ -> Some (step node)
  in
  let latched () =
    let l = Buffer_pool.latch frame in
    (match leaf with
    | Snapshot _ -> spin_s t frame pid
    | Locking _ | Buffering _ -> Latch.acquire l Latch.S);
    Fun.protect ~finally:(fun () -> Latch.release l Latch.S) (fun () -> step (Node.get t.ext frame))
  in
  let out =
    Fun.protect
      ~finally:(fun () -> Buffer_pool.unpin pool frame)
      (fun () ->
        match optimistic t frame pid ~read ~latched with
        (* A validated decode failure is a page retired by a node delete
           (scrub deferred or replayed): nothing to visit. *)
        | exception Codec.Corrupt _ -> None
        | commit -> commit stack)
  in
  prefetch_pending t !stack;
  out

let start_scan ?ro t ~sig_lock =
  Metrics.incr m_searches;
  Option.iter
    (fun ro ->
      Metrics.incr m_snapshot_scans;
      if Trace.enabled () then Trace.emit (Trace.Snapshot_scan { ts = Db.ro_ts ro }))
    ro;
  sig_lock t.root;
  [ (t.root, Db.global_nsn t.db) ]

let writer_behind_us t ~tid leaf rid =
  let holders = Lock_manager.holders t.db.Db.locks (Lock_manager.Record rid) in
  let rec scan seen_self = function
    | [] -> false
    | p :: rest ->
      if Txn_id.equal (Pm.owner p) tid then scan true rest
      else if
        seen_self
        && (match Pm.kind_of p with Pm.Insert | Pm.Probe -> true | Pm.Scan -> false)
        && List.exists (fun (h, _) -> Txn_id.equal h (Pm.owner p)) holders
      then true
      else scan seen_self rest
  in
  scan false (Pm.attached t.preds leaf)

let search ?(isolation = `Repeatable_read) t txn query =
  let tid = Txn_manager.id txn in
  let locks = t.db.Db.locks in
  let rr = isolation = `Repeatable_read in
  with_ctx txn ~keep_on_success:(fun _ -> []) t (fun ctx ->
      let results : (Rid.t, 'p) Hashtbl.t = Hashtbl.create 32 in
      (* Degree-2 (read committed) scans take no predicate and hold record
         locks only for the duration of the read: cheaper, admits
         phantoms/unrepeatable reads (§4 discusses only Degree 3; Degree 2
         is the standard weaker point in the same design space). *)
      let spred =
        if rr then Some (Pm.register t.preds ~owner:tid ~kind:Pm.Scan query) else None
      in
      let sig_lock = sig_lock t ctx in
      let stack = ref (start_scan t ~sig_lock) in
      (* S-lock every consistent live entry. [Some rid] when [rid]'s
         writer must be waited for: the visit releases the latch first
         (§5), then the leaf is rescanned. *)
      let leaf =
        Locking
          (fun pid node ->
            let exception Blocked of Rid.t in
            let lock_entry e =
              let rid = e.Node.le_rid in
              if t.ext.Ext.consistent query e.Node.le_key && not (Hashtbl.mem results rid) then
                if Lock_manager.try_lock locks tid (Lock_manager.Record rid) Lock_manager.S then begin
                  if Txn_id.is_some e.Node.le_deleter then begin
                    (* Deleter finished: committed ⇒ awaiting GC, skip;
                       our own mark ⇒ we deleted it. *)
                    if not (Txn_id.equal e.Node.le_deleter tid) then
                      Lock_manager.unlock locks tid (Lock_manager.Record rid)
                  end
                  else begin
                    Hashtbl.replace results rid e.Node.le_key;
                    (* Degree 2: the lock was only needed to verify the
                       entry is committed. *)
                    if not rr then Lock_manager.unlock locks tid (Lock_manager.Record rid)
                  end
                end
                else if not (writer_behind_us t ~tid pid rid) then raise (Blocked rid)
            in
            match Dyn.iter lock_entry (Node.leaf_entries node) with
            | () -> None
            | exception Blocked rid -> Some rid)
      in
      while !stack <> [] do
        let entry = List.hd !stack in
        stack := List.tl !stack;
        hookf t "search:visit:%a" Page_id.pp (fst entry);
        match visit t ~query ?spred ~sig_lock ~leaf stack entry with
        | Some rid ->
          stack := entry :: !stack;
          hookf t "search:block:%a" Rid.pp rid;
          (* Blocking wait with no latches held; Deadlock may propagate. *)
          Lock_manager.lock locks tid (Lock_manager.Record rid) Lock_manager.S
        | None -> ()
      done;
      Hashtbl.fold (fun rid key acc -> (key, rid) :: acc) results [])

(* ------------------------------------------------------------------ *)
(* Snapshot search: the lock-free MVCC read path (PROTOCOL.md §9)      *)
(* ------------------------------------------------------------------ *)

(* Per-entry visibility against snapshot timestamp [ts]: the creator's
   effects are in (committed at or below [ts], or historical) and the
   deleter's are not. MUST be evaluated while the entry's node state is
   known current — under the S latch or inside a version window that
   subsequently validates — because an aborting creator physically removes
   its entries before leaving the transaction table; checked after the
   fact, a just-aborted creator would read as "historical" and a dead
   entry would become visible. Within a validated window the entry is
   physically present for the whole span, so its creator is still in one
   of the two tables whenever this runs. *)
let entry_visible t ~ts e =
  let txns = t.db.Db.txns in
  if not (Txn_manager.committed_as_of txns ~ts e.Node.le_creator) then begin
    Metrics.incr m_version_skipped;
    false
  end
  else if
    Txn_id.is_some e.Node.le_deleter && Txn_manager.committed_as_of txns ~ts e.Node.le_deleter
  then begin
    Metrics.incr m_version_skipped;
    false
  end
  else true

let snapshot_leaf t ro query =
  let ts = Db.ro_ts ro in
  Snapshot
    (fun _pid node ->
      Some
        (Dyn.fold
           (fun acc e ->
             if t.ext.Ext.consistent query e.Node.le_key && entry_visible t ~ts e then
               (e.Node.le_key, e.Node.le_rid) :: acc
             else acc)
           [] (Node.leaf_entries node)))

let snapshot_search t ro query =
  let leaf = snapshot_leaf t ro query in
  let results : (Rid.t, 'p) Hashtbl.t = Hashtbl.create 32 in
  let stack = ref (start_scan ~ro t ~sig_lock:ignore) in
  while !stack <> [] do
    let entry = List.hd !stack in
    stack := List.tl !stack;
    hookf t "snapshot:visit:%a" Page_id.pp (fst entry);
    (* Dedup by rid: a split can make the scan visit the same leaf both
       through its parent entry and through a rightlink chase. Visibility
       already guarantees at most one version of a rid qualifies. *)
    Option.iter
      (List.iter (fun (key, rid) -> Hashtbl.replace results rid key))
      (visit t ~query ~sig_lock:ignore ~leaf stack entry)
  done;
  Hashtbl.fold (fun rid key acc -> (key, rid) :: acc) results []

(* ------------------------------------------------------------------ *)
(* Split machinery (Figure 4: splitNode)                               *)
(* ------------------------------------------------------------------ *)

(* Slow-path parent lookup: full DFS (with rightlink closure at every
   node) for the internal node holding the entry for [child]. Needed when
   a descent-stack hint went stale — in particular after a root grow moved
   the parent entry one level down. *)
let locate_parent_of t child =
  (* Exhaustive walk: children *and* rightlinks at every level, so nodes
     whose own parent entries are mid-install (inside a concurrent split
     NTA) are still reached via their left siblings. Retried a few times
     because such windows are transient. *)
  let attempt () =
    let visited = Hashtbl.create 64 in
    let rec dfs pid =
      if (not (Page_id.is_valid pid)) || Hashtbl.mem visited (Page_id.to_int pid) then None
      else begin
        Hashtbl.replace visited (Page_id.to_int pid) ();
        match
          with_node t pid Latch.S (fun _f node ->
              if Node.is_leaf node then `Next (node.Node.rightlink, [])
              else if Node.find_child node child <> None then `Here
              else
                `Next
                  ( node.Node.rightlink,
                    Dyn.fold (fun l e -> e.Node.ie_child :: l) [] (Node.internal_entries node)
                  ))
        with
        | exception Codec.Corrupt _ -> None
        | `Here -> Some pid
        | `Next (rl, kids) -> (
          match dfs rl with
          | Some p -> Some p
          | None ->
            let rec try_kids = function
              | [] -> None
              | k :: rest -> ( match dfs k with Some p -> Some p | None -> try_kids rest)
            in
            try_kids kids)
      end
    in
    dfs t.root
  in
  let rec retry n = match attempt () with Some p -> Some p | None -> if n = 0 then None else retry (n - 1) in
  retry 5

(* Find, X-latched, the node on the rightlink chain from [start] that holds
   the parent entry for [child]; run [f] on it. Entries only ever move
   right, so the walk normally terminates at the holder (§6); if the hint
   went stale (root grow), fall back to a full relocation. *)
let rec with_parent_holding t start child f =
  let next =
    with_node t start Latch.X (fun frame node ->
        match Node.find_child node child with
        | Some _ -> `Done (f frame node)
        | None -> `Next node.Node.rightlink)
  in
  match next with
  | `Done v -> v
  | `Next rl ->
    if Page_id.is_valid rl then with_parent_holding t rl child f
    else (
      match locate_parent_of t child with
      | Some p -> with_parent_holding t p child f
      | None ->
        failwith
          (Format.asprintf "gist: no parent entry for %a anywhere (hint %a)" Page_id.pp child
             Page_id.pp start))

(* Split the (full) node [pid] as a nested top action. The caller holds no
   latches. [parent_hint] is where the parent entry was last seen; [None]
   means [pid] is the root. @raise Parent_needs_split if the parent cannot
   take another entry. *)
let rec split_node t txn ~parent_hint pid =
  let txns = t.db.Db.txns in
  match parent_hint with
  | None ->
    (* Root split: fixed-root trick — push the root's content into a fresh
       child, then split that child with the root as parent. *)
    let grown =
      Buffer_pool.with_page t.db.Db.pool t.root Latch.X (fun root_frame ->
          let root_node = Node.get t.ext root_frame in
          if node_fits t root_node ~extra:0 then None
          else begin
            hook t "split:root-grow";
            Metrics.incr m_root_grows;
            let nta = Txn_manager.begin_nta txns txn in
            let child = Db.allocate_page t.db in
            if Trace.enabled () then
              Trace.emit
                (Trace.Root_grow
                   { root = Page_id.to_int t.root; child = Page_id.to_int child });
            ignore (Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name (Log_record.Get_page { page = child }));
            let entries_enc =
              match root_node.Node.entries with
              | Node.Leaf d -> List.map (Node.encode_leaf_entry t.ext) (Dyn.to_list d)
              | Node.Internal d -> List.map (Node.encode_internal_entry t.ext) (Dyn.to_list d)
            in
            let grow_lsn =
              Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name
                (Log_record.Root_grow
                   {
                     root = t.root;
                     child;
                     entries = entries_enc;
                     root_old_nsn = root_node.Node.nsn;
                     old_level = root_node.Node.level;
                     root_bp = bp_string t root_node.Node.bp;
                   })
            in
            (* Child receives the root's content, NSN and (nil) rightlink. *)
            let child_node =
              {
                Node.id = child;
                nsn = root_node.Node.nsn;
                rightlink = Page_id.invalid;
                level = root_node.Node.level;
                bp = root_node.Node.bp;
                entries = root_node.Node.entries;
              }
            in
            (* Root becomes internal with a single child entry. *)
            let new_root =
              Node.make_internal ~id:t.root ~level:(root_node.Node.level + 1)
                ~bp:root_node.Node.bp
            in
            Node.add_internal_entry new_root { Node.ie_bp = root_node.Node.bp; ie_child = child };
            new_root.Node.nsn <- root_node.Node.nsn;
            Buffer_pool.with_new_page t.db.Db.pool child (fun child_frame ->
                write_node t child_frame child_node ~lsn:grow_lsn;
                write_node t root_frame new_root ~lsn:grow_lsn;
                (* Stack pointers to the root now lead to the child: extend
                   deletion protection and predicate attachments to it. *)
                Lock_manager.copy_holders t.db.Db.locks ~src:(Lock_manager.Node t.root)
                  ~dst:(Lock_manager.Node child);
                Pm.replicate t.preds ~src:t.root ~dst:child ~keep:(fun p ->
                    t.ext.Ext.consistent (Pm.formula p) child_node.Node.bp);
                Txn_manager.end_nta txns txn nta);
            Some child
          end)
    in
    (match grown with
    | None -> ()
    | Some child -> split_node t txn ~parent_hint:(Some t.root) child)
  | Some parent_start ->
    (* Latch order: parent first, then child — the same order as node
       deletion and parent-entry update, so latches cannot deadlock. The
       child is pinned resident first so its re-pin under the parent latch
       never faults. *)
    let outcome =
      with_resident t pid @@ fun () ->
      with_parent_holding t parent_start pid (fun parent_frame parent_node ->
          Buffer_pool.with_page t.db.Db.pool pid Latch.X (fun child_frame ->
              let node = Node.get t.ext child_frame in
              if node_fits t node ~extra:0 then `No_split
              else begin
                (* The parent must be able to take one more entry. *)
                let extra = String.length (bp_string t node.Node.bp) + 16 in
                if not (node_fits t parent_node ~extra) then `Parent_full
                else begin
                  hookf t "split:node:%a" Page_id.pp pid;
                  Metrics.incr m_splits;
                  let nta = Txn_manager.begin_nta txns txn in
                  let right = Db.allocate_page t.db in
                  if Trace.enabled () then
                    Trace.emit
                      (Trace.Node_split
                         { orig = Page_id.to_int pid; right = Page_id.to_int right });
                  ignore (Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name (Log_record.Get_page { page = right }));
                  let preds_arr = Array.of_list (List.rev (Node.entry_preds node)) in
                  let assignment = Ext.check_pick_split t.ext preds_arr in
                  (* Log-then-apply: both halves are built to one side, and
                     the cached node is not touched until the Split record
                     is in the log. An exception before then leaves the
                     child exactly as readers last saw it. *)
                  let moved_enc = ref [] in
                  let right_node =
                    if Node.is_leaf node then Node.make_leaf ~id:right ~bp:node.Node.bp
                    else Node.make_internal ~id:right ~level:node.Node.level ~bp:node.Node.bp
                  in
                  let kept =
                    match node.Node.entries with
                    | Node.Leaf d ->
                      let keep = Dyn.create () in
                      Dyn.iteri
                        (fun i e ->
                          if assignment.(i) then begin
                            Node.add_leaf_entry right_node e;
                            moved_enc := Node.encode_leaf_entry t.ext e :: !moved_enc
                          end
                          else Dyn.push keep e)
                        d;
                      Node.Leaf keep
                    | Node.Internal d ->
                      let keep = Dyn.create () in
                      Dyn.iteri
                        (fun i e ->
                          if assignment.(i) then begin
                            Node.add_internal_entry right_node e;
                            moved_enc := Node.encode_internal_entry t.ext e :: !moved_enc
                          end
                          else Dyn.push keep e)
                        d;
                      Node.Internal keep
                  in
                  let moved = List.rev !moved_enc in
                  (* The new sibling inherits the old NSN and rightlink;
                     the original gets the incremented counter value and
                     the sibling as rightlink once Split is logged (§3). *)
                  right_node.Node.nsn <- node.Node.nsn;
                  right_node.Node.rightlink <- node.Node.rightlink;
                  Node.recompute_bp t.ext right_node;
                  let left = { node with Node.entries = kept } in
                  Node.recompute_bp t.ext left;
                  (* Under Nsn_from_lsn the new NSN *is* the Split record's
                     LSN (§10.1), encoded as nil and resolved by redo; a
                     dedicated counter must be bumped first and embedded. *)
                  let counter_nsn =
                    match t.db.Db.config.Db.nsn_source with
                    | Db.Nsn_from_lsn -> Lsn.nil
                    | Db.Nsn_from_counter -> Db.split_nsn t.db ~record_lsn:Lsn.nil
                  in
                  (* The sibling's frame is pinned and latched before the
                     Split record, so nothing that can fail sits between
                     the record and the in-memory install. *)
                  Buffer_pool.with_new_page t.db.Db.pool right (fun right_frame ->
                      let split_record_lsn =
                        Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name
                          (Log_record.Split
                             {
                               orig = pid;
                               right;
                               moved;
                               orig_old_nsn = node.Node.nsn;
                               orig_new_nsn = counter_nsn;
                               orig_old_rightlink = node.Node.rightlink;
                               level = node.Node.level;
                             })
                      in
                      left.Node.nsn <-
                        (if Lsn.equal counter_nsn Lsn.nil then split_record_lsn else counter_nsn);
                      left.Node.rightlink <- right;
                      (* The sibling's image is in place before the child
                         links to it, and the child is installed before
                         the sibling's first-dirty full-page image is
                         logged: each [mark_dirty] stamps its page before
                         that append, so a failed one still leaves a
                         linked, dirty split. *)
                      Node.write t.ext right_node right_frame;
                      write_node t child_frame left ~lsn:split_record_lsn;
                      write_node t right_frame right_node ~lsn:split_record_lsn;
                      (* From here on an exception leaves a legal B-link
                         state — the child split and linked, its parent
                         entry missing or stale — which the NSN/rightlink
                         compensation handles (§3). §7.2: extend deletion
                         protection to the new sibling. *)
                      Lock_manager.copy_holders t.db.Db.locks ~src:(Lock_manager.Node pid)
                        ~dst:(Lock_manager.Node right);
                      (* §4.3: replicate consistent predicate attachments. *)
                      Pm.replicate t.preds ~src:pid ~dst:right ~keep:(fun p ->
                          t.ext.Ext.consistent (Pm.formula p) right_node.Node.bp);
                      (* Install the parent entry for the new sibling and
                         tighten the original's parent entry. *)
                      let right_entry = { Node.ie_bp = right_node.Node.bp; ie_child = right } in
                      let add_lsn =
                        Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name
                          (Log_record.Internal_entry_add
                             {
                               page = parent_node.Node.id;
                               entry = Node.encode_internal_entry t.ext right_entry;
                             })
                      in
                      Node.add_internal_entry parent_node right_entry;
                      (* Stamp the parent at [add_lsn] before logging the
                         follow-up update: the DPT rec_lsn must name the
                         FIRST record that dirtied the page. Marking once
                         at the later LSN lets a fuzzy checkpoint capture a
                         rec_lsn one past the entry-add, and redo seeded
                         from that checkpoint skips the add — the sibling's
                         parent entry is silently lost if the split hit a
                         freshly-flushed parent. *)
                      write_node t parent_frame parent_node ~lsn:add_lsn;
                      (match Node.find_child parent_node pid with
                      | Some ie ->
                        let upd_lsn =
                          Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name
                            (Log_record.Internal_entry_update
                               {
                                 page = parent_node.Node.id;
                                 child = pid;
                                 new_bp = bp_string t left.Node.bp;
                                 old_bp = bp_string t ie.Node.ie_bp;
                               })
                        in
                        ie.Node.ie_bp <- left.Node.bp;
                        write_node t parent_frame parent_node ~lsn:upd_lsn
                      | None -> ());
                      Txn_manager.end_nta txns txn nta);
                  hook t "split:done";
                  `Split
                end
              end))
    in
    (match outcome with
    | `No_split | `Split -> ()
    | `Parent_full -> raise Parent_needs_split)

(* Split [pid], recursively splitting full ancestors first. [stack] is the
   descent stack, immediate parent first. *)
let rec ensure_space t txn ~stack pid =
  let parent_hint = match stack with [] -> None | (p, _) :: _ -> Some p in
  match split_node t txn ~parent_hint pid with
  | () -> ()
  | exception Parent_needs_split -> (
    match stack with
    | [] -> assert false (* the root path never raises Parent_needs_split *)
    | (parent, _) :: rest ->
      ensure_space t txn ~stack:rest parent;
      ensure_space t txn ~stack pid)

(* ------------------------------------------------------------------ *)
(* BP update propagation (Figure 4: updateBP)                          *)
(* ------------------------------------------------------------------ *)

(* The paper's updateBP (Figure 4) backs up the tree holding latches
   through the whole propagation. To keep single-node latching (and the
   uniform parent-before-child latch order), this implementation instead
   propagates *after* the entry is physically on the leaf, bottom-up:
   once the key is present, any concurrent split's BP recomputation
   includes it, so an expansion can never be wiped (the race a released-
   latch top-down scheme would have). Each step is an independent
   redo-only Parent-Entry-Update atomic action (Table 1).

   Returns the updated path top-down, for the percolation pass. *)
let propagate_bp t txn ~stack ~leaf needed_bp =
  let txns = t.db.Db.txns in
  let expand_root_header needed =
    Buffer_pool.with_page t.db.Db.pool t.root Latch.X (fun frame ->
        let node = Node.get t.ext frame in
        let new_bp = t.ext.Ext.union [ node.Node.bp; needed ] in
        if not (bp_equal t new_bp node.Node.bp) then begin
          let lsn =
            Txn_manager.log_update txns txn ~ext:t.ext.Ext.name
              (Log_record.Parent_entry_update
                 { parent = t.root; child = t.root; new_bp = bp_string t new_bp })
          in
          node.Node.bp <- new_bp;
          write_node t frame node ~lsn
        end)
  in
  (* The climb runs ALL the way to the root even when an entry already
     covers the key: with released latches, a concurrent insert's own climb
     may have expanded this level but not yet the ones above (the classic
     window a paper-style latched top-down updateBP would not have). Each
     level is verified — and fixed if needed — by this climb itself, so
     when it returns, every ancestor entry on the path covers the key.
     The full path is returned so percolation also runs on unchanged
     levels: a racing probe may have parked its predicate high on the path
     moments before this key became visible there. *)
  let rec climb child needed hints path =
    if Page_id.equal child t.root then begin
      expand_root_header needed;
      path
    end
    else begin
      let hint = match hints with (p, _) :: _ -> p | [] -> t.root in
      let hints_rest = match hints with _ :: r -> r | [] -> [] in
      let parent_found =
        with_resident t child @@ fun () ->
        with_parent_holding t hint child (fun parent_frame parent_node ->
            match Node.find_child parent_node child with
            | None -> assert false (* with_parent_holding guarantees it *)
            | Some ie ->
              let new_bp = t.ext.Ext.union [ ie.Node.ie_bp; needed ] in
              if not (bp_equal t new_bp ie.Node.ie_bp) then begin
                hookf t "bp-update:%a" Page_id.pp child;
                Metrics.incr m_bp_updates;
                Buffer_pool.with_page t.db.Db.pool child Latch.X (fun child_frame ->
                    let child_node = Node.get t.ext child_frame in
                    let lsn =
                      Txn_manager.log_update txns txn ~ext:t.ext.Ext.name
                        (Log_record.Parent_entry_update
                           {
                             parent = parent_node.Node.id;
                             child;
                             new_bp = bp_string t new_bp;
                           })
                    in
                    ie.Node.ie_bp <- new_bp;
                    parent_node.Node.bp <- t.ext.Ext.union [ parent_node.Node.bp; new_bp ];
                    write_node t parent_frame parent_node ~lsn;
                    child_node.Node.bp <- t.ext.Ext.union [ child_node.Node.bp; new_bp ];
                    write_node t child_frame child_node ~lsn)
              end;
              parent_node.Node.id)
      in
      climb parent_found needed hints_rest ((parent_found, child) :: path)
    end
  in
  climb leaf needed_bp stack []

(* §4.3 percolation, run top-down along the path the expansion touched:
   ancestor predicates that became consistent with a child's wider BP are
   attached to the child, so the insert's conflict check at the leaf sees
   every scan whose range the new key entered. *)
let percolate_path t path =
  List.iter
    (fun (parent, child) ->
      let child_bp = with_node t child Latch.S (fun _f n -> n.Node.bp) in
      Pm.replicate t.preds ~src:parent ~dst:child ~keep:(fun p ->
          t.ext.Ext.consistent (Pm.formula p) child_bp))
    path

(* ------------------------------------------------------------------ *)
(* Garbage collection of logically deleted entries (§7.1)              *)
(* ------------------------------------------------------------------ *)

(* Remove committed-deleted entries from a leaf. Caller holds the X latch.
   Uses the Commit_LSN fast path of [Moh90b]: if the page's LSN predates
   the oldest active transaction, every mark on it is committed. *)
let gc_leaf t frame node =
  if not (Node.is_leaf node) then false
  else begin
    let txns = t.db.Db.txns in
    let commit_lsn = Txn_manager.commit_lsn txns in
    let fast = Lsn.( < ) (Buffer_pool.page_lsn frame) commit_lsn in
    (* Oldest-active-snapshot watermark (PROTOCOL.md §9): a version whose
       delete some registered snapshot cannot yet see must survive. Also
       capped at the published timestamp so a delete whose commit mapping
       is inserted but not yet published cannot be reclaimed out from
       under a snapshot beginning at this very instant. [max_int]-free
       when no snapshot is registered apart from the publish cap, i.e.
       the pre-MVCC rule.

       Read order matters and OCaml does not fix argument evaluation
       order, so the publish cap is bound explicitly FIRST: a snapshot
       registering after that read has snap_ts >= published and is capped
       by the min either way. Read the watermark first instead and a
       snapshot registering between the two reads could have versions
       with cts in (snap_ts, published] reclaimed under it. *)
    let published = Txn_manager.published_cts txns in
    let reclaim_ts = min (Txn_manager.oldest_snapshot_ts txns) published in
    let victims = ref [] in
    Dyn.iter
      (fun e ->
        if
          Txn_id.is_some e.Node.le_deleter
          && (fast || Txn_manager.is_committed txns e.Node.le_deleter)
          (* [committed_as_of] (not an inline table probe): its None
             branch re-checks the commit table after [is_active], closing
             the race where the deleter commits — with cts > reclaim_ts —
             and drops from the live table between two lookups, which a
             single-look fallback would misread as a historical delete
             and reclaim under a live snapshot. *)
          && Txn_manager.committed_as_of txns ~ts:reclaim_ts e.Node.le_deleter
        then victims := e.Node.le_rid :: !victims)
      (Node.leaf_entries node);
    match !victims with
    | [] -> false
    | rids ->
      hookf t "gc:%a:%d" Page_id.pp node.Node.id (List.length rids);
      Metrics.add m_gc_entries (List.length rids);
      Metrics.add m_gc_reclaimed (List.length rids);
      let lsn =
        Gist_wal.Log_manager.append t.db.Db.log ~txn:Txn_id.none ~prev:Lsn.nil
          ~ext:t.ext.Ext.name
          (Log_record.Garbage_collection { page = node.Node.id; rids })
      in
      List.iter (fun rid -> ignore (Node.remove_marked_by_rid node rid)) rids;
      Node.recompute_bp t.ext node;
      write_node t frame node ~lsn;
      true
  end

(* ------------------------------------------------------------------ *)
(* Insert (Figure 4)                                                   *)
(* ------------------------------------------------------------------ *)

(* Descend from the root along minimum-penalty branches without latch
   coupling, compensating for missed splits by evaluating the whole
   rightlink chain (§6). Returns the target leaf id, the memo under which
   it was reached, and the descent stack (immediate parent first). *)
let locate_leaf t ctx key =
  let rec best_in_chain pid memo best =
    (* Walk the chain delimited by [memo], keeping the min-penalty node. *)
    let pen, next =
      with_node t pid Latch.S (fun _frame node ->
          let pen = t.ext.Ext.penalty node.Node.bp key in
          let next =
            if Lsn.( < ) memo node.Node.nsn && Page_id.is_valid node.Node.rightlink then begin
              note_rightlink ~from_pid:pid ~memo node;
              sig_lock t ctx node.Node.rightlink;
              Some node.Node.rightlink
            end
            else None
          in
          (pen, next))
    in
    let best = match best with Some (_, bp) when bp <= pen -> best | _ -> Some (pid, pen) in
    match next with None -> Option.get best |> fst | Some rl -> best_in_chain rl memo best
  in
  let rec step pid memo stack =
    let chosen = best_in_chain pid memo None in
    let descend =
      with_node t chosen Latch.S (fun frame node ->
          if Node.is_leaf node then None
          else begin
            let child_memo = memo_of t frame in
            let best = ref None in
            Dyn.iter
              (fun e ->
                let pen = t.ext.Ext.penalty e.Node.ie_bp key in
                match !best with
                | Some (_, bp) when bp <= pen -> ()
                | _ -> best := Some (e.Node.ie_child, pen))
              (Node.internal_entries node);
            match !best with
            | None ->
              (* An internal node cannot be empty mid-protocol. *)
              failwith "gist: internal node with no entries during descent"
            | Some (child, _) ->
              sig_lock t ctx child;
              Some (child, child_memo, (chosen, node.Node.nsn))
          end)
    in
    match descend with
    | None -> (chosen, memo, stack)
    | Some (child, child_memo, frame_info) -> step child child_memo (frame_info :: stack)
  in
  step t.root (Db.global_nsn t.db) []

(* The conflict check of insert step 6: predicates attached to the leaf,
   owned by others, consistent with the new key — restricted to those
   attached *before* [own] when the insert predicate is already in place
   (FIFO fairness, §10.3). *)
(* The conflict set of insert step 6. The target leaf's list is filtered
   with FIFO fairness (only predicates ahead of our own insert predicate
   count). Additionally, the [ancestors] the insert traversed are
   consulted: a predicate parked high on the path (a probe or scan that
   pruned before the key's region became covered) is semantically attached
   to the leaf by the §4.3 invariant, but the percolation that implements
   the invariant can race a concurrent split moving our entry to a fresh
   sibling — the direct ancestor read closes that window. Still O(path
   attachment lists), never the tree-global predicate set. *)
let conflicting_preds t ~tid ~own ~key ~ancestors pid =
  let all = Pm.attached t.preds pid in
  let before_own =
    match own with
    | None -> all
    | Some mine ->
      let rec take acc = function
        | [] -> List.rev acc
        | p :: _ when p == mine -> List.rev acc
        | p :: rest -> take (p :: acc) rest
      in
      take [] all
  in
  let matches p =
    (not (Txn_id.equal (Pm.owner p) tid)) && t.ext.Ext.consistent key (Pm.formula p)
  in
  let leaf_conflicts = List.filter matches before_own in
  let from_ancestors =
    List.concat_map
      (fun anc ->
        if Page_id.equal anc pid then []
        else List.filter matches (Pm.attached t.preds anc))
      ancestors
  in
  (* Dedup by physical identity. *)
  let conflicts =
    List.fold_left
      (fun acc p -> if List.memq p acc then acc else p :: acc)
      leaf_conflicts from_ancestors
  in
  Metrics.incr m_pred_checks;
  Metrics.add m_pred_conflicts (List.length conflicts);
  if Trace.enabled () then
    Trace.emit
      (Trace.Pred_check { page = Page_id.to_int pid; conflicts = List.length conflicts });
  conflicts

(* Find the leaf currently holding the live entry [rid], starting from the
   page where it was placed: splits may have moved it right (follow
   rightlinks) and a root grow may have moved it down (descend). *)
let locate_entry_leaf t start rid =
  let rec chase pid =
    if not (Page_id.is_valid pid) then None
    else
      match
        with_node t pid Latch.S (fun _f node ->
            if Node.is_leaf node then
              if Node.find_live_by_rid node rid <> None then `Here
              else `Chase node.Node.rightlink
            else
              `Down
                (Dyn.fold (fun l e -> e.Node.ie_child :: l) [] (Node.internal_entries node)
                |> List.rev))
      with
      | `Here -> Some pid
      | `Chase rl -> chase rl
      | `Down kids ->
        let rec first = function
          | [] -> None
          | k :: rest -> ( match chase k with Some p -> Some p | None -> first rest)
        in
        first kids
  in
  chase start

let insert_entry t txn ~key ~rid =
  let tid = Txn_manager.id txn in
  let txns = t.db.Db.txns in
  let locks = t.db.Db.locks in
  let entry_extra = Node.leaf_entry_size t.ext key + 8 in
  (* A key that cannot fit on an empty page can never be placed: splitting
     would loop forever. Refuse it up front. *)
  if entry_extra + 64 > t.db.Db.config.Db.page_size then
    invalid_arg
      (Printf.sprintf "Gist.insert: encoded key (%d bytes) exceeds the page budget (%d)"
         entry_extra t.db.Db.config.Db.page_size);
  with_ctx txn
    ~keep_on_success:(fun target ->
      (* §7.2: the signaling lock on the insert's target leaf is retained
         until end of transaction so logical undo can rely on the chain. *)
      [ target ])
    t
    (fun ctx ->
      Metrics.incr m_inserts;
      (* Phase 1: the data record is X-locked before the tree is touched. *)
      Lock_manager.lock locks tid (Lock_manager.Record rid) Lock_manager.X;
      let leaf0, memo0, stack0 = locate_leaf t ctx key in
      (* Settle on a leaf that has room and whose BP covers the key; every
         structural fix releases all latches and re-examines. *)
      let own_pred = ref None in
      let rec settle pid memo stack =
        (* Re-evaluate the chain in case the leaf split while unlatched. *)
        let target = ref pid in
        let rec pick p =
          let next =
            with_node t p Latch.S (fun _f node ->
                if Lsn.( < ) memo node.Node.nsn && Page_id.is_valid node.Node.rightlink then begin
                  note_rightlink ~from_pid:p ~memo node;
                  sig_lock t ctx node.Node.rightlink;
                  Some (node.Node.rightlink, t.ext.Ext.penalty node.Node.bp key)
                end
                else None)
          in
          match next with
          | None -> ()
          | Some (rl, _) ->
            (* Choose by penalty between current target and the sibling. *)
            let pen_t =
              with_node t !target Latch.S (fun _f n -> t.ext.Ext.penalty n.Node.bp key)
            in
            let pen_r = with_node t rl Latch.S (fun _f n -> t.ext.Ext.penalty n.Node.bp key) in
            if pen_r < pen_t then target := rl;
            pick rl
        in
        pick pid;
        let pid = !target in
        let action =
          Buffer_pool.with_page t.db.Db.pool pid Latch.X (fun frame ->
              let node = Node.get t.ext frame in
              if not (Node.is_leaf node) then
                (* The root grew underneath us (fixed-root split): the page
                   we targeted is now internal — descend again. *)
                `Redescend
              else if
                (if t.db.Db.config.Db.gc_on_write then ignore (gc_leaf t frame node);
                 not (node_fits t node ~extra:entry_extra))
              then `Split
              else begin
                begin
                  (* Add the (key, RID) pair; BP propagation and the
                     predicate conflict check follow once the entry is
                     physically present (see propagate_bp). *)
                  hookf t "insert:add:%a" Page_id.pp pid;
                  let entry =
                    {
                      Node.le_key = key;
                      le_rid = rid;
                      le_creator = Txn_manager.id txn;
                      le_deleter = Txn_id.none;
                    }
                  in
                  let lsn =
                    Txn_manager.log_update txns txn ~ext:t.ext.Ext.name
                      (Log_record.Add_leaf_entry
                         {
                           page = pid;
                           nsn = node.Node.nsn;
                           entry = Node.encode_leaf_entry t.ext entry;
                           rid;
                         })
                  in
                  Node.add_leaf_entry node entry;
                  node.Node.bp <- t.ext.Ext.union [ node.Node.bp; key ];
                  write_node t frame node ~lsn;
                  `Done
                end
              end)
        in
        match action with
        | `Redescend ->
          let leaf, memo, stack = locate_leaf t ctx key in
          settle leaf memo stack
        | `Split ->
          hook t "insert:split";
          ensure_space t txn ~stack pid;
          settle pid memo stack
        | `Done -> (pid, stack)
      in
      let target, final_stack = settle leaf0 memo0 stack0 in
      (* Steps 3-4 of Figure 4, reordered: with the entry physically on the
         leaf, expand ancestor BPs bottom-up (immune to concurrent split
         recomputation) and then percolate predicate attachments top-down
         along the updated path. *)
      let path = propagate_bp t txn ~stack:final_stack ~leaf:target key in
      percolate_path t path;
      (* Every node the insert's BP climb touched, plus the root (the
         universal prune point for predicates over uncovered regions). *)
      let ancestors =
        t.root :: List.concat_map (fun (p, c) -> [ p; c ]) path
        @ List.map fst final_stack
      in
      (* Block on conflicting predicate owners (no latches held); FIFO
         recheck until no conflicts remain ahead of our insert predicate. *)
      let rec wait_for owners =
        match owners with
        | [] -> ()
        | _ :: _ ->
          hook t "insert:block";
          Metrics.incr m_pred_blocks;
          List.iter
            (fun owner ->
              Lock_manager.lock locks tid (Lock_manager.Txn owner) Lock_manager.S;
              Lock_manager.unlock locks tid (Lock_manager.Txn owner))
            owners;
          let here = Option.value ~default:target (locate_entry_leaf t target rid) in
          wait_for
            (List.map Pm.owner
               (conflicting_preds t ~tid ~own:!own_pred ~key
                  ~ancestors:(if Page_id.equal here target then [] else ancestors)
                  here))
      in
      (* Step 6: check predicates attached to the leaf holding the entry.
         In the common case (the entry still sits where we put it, after
         our own percolation pass) the leaf list alone is sound. If a
         concurrent split moved the entry to a fresh sibling, predicates
         percolated to the old leaf after that split never reached the
         sibling — consult the walked ancestors too (see
         conflicting_preds). *)
      let initial_conflicts =
        let here = Option.value ~default:target (locate_entry_leaf t target rid) in
        let conflicts =
          conflicting_preds t ~tid ~own:!own_pred ~key
            ~ancestors:(if Page_id.equal here target then [] else ancestors)
            here
        in
        hookf t "insert:conflicts:%d@%a" (List.length conflicts) Page_id.pp here;
        if conflicts <> [] && !own_pred = None then begin
          let mine = Pm.register t.preds ~owner:tid ~kind:Pm.Insert key in
          Pm.attach t.preds mine here;
          own_pred := Some mine
        end;
        List.map Pm.owner conflicts
      in
      wait_for initial_conflicts;
      hook t "insert:done";
      target)

(* ------------------------------------------------------------------ *)
(* Unique insert (§8)                                                  *)
(* ------------------------------------------------------------------ *)

(* Probe search: look for an exact duplicate of [key], leaving "= key"
   predicates on every visited node so two racing inserters of the same
   value deadlock instead of both succeeding. Returns the duplicate's RID
   (S-locked, for error repeatability) or the probe predicate to discard
   after the insert completes. *)
let unique_probe t txn key =
  let tid = Txn_manager.id txn in
  let locks = t.db.Db.locks in
  with_ctx txn ~keep_on_success:(fun _ -> []) t (fun ctx ->
      let probe = Pm.register t.preds ~owner:tid ~kind:Pm.Probe key in
      let sig_lock = sig_lock t ctx in
      sig_lock t.root;
      let stack = ref [ (t.root, Db.global_nsn t.db) ] in
      (* The first exact match that is not a finished delete decides: it
         is a duplicate if it S-locks; otherwise wait for its writer. *)
      let leaf =
        Locking
          (fun _pid node ->
            let exception Found of [ `Dup of Rid.t | `Blocked of Rid.t ] in
            let check e =
              let rid = e.Node.le_rid in
              if t.ext.Ext.matches_exact key e.Node.le_key then
                if Lock_manager.try_lock locks tid (Lock_manager.Record rid) Lock_manager.S then begin
                  if not (Txn_id.is_some e.Node.le_deleter) then raise (Found (`Dup rid))
                  else if not (Txn_id.equal e.Node.le_deleter tid) then
                    (* committed delete: not a duplicate *)
                    Lock_manager.unlock locks tid (Lock_manager.Record rid)
                end
                else raise (Found (`Blocked rid))
            in
            match Dyn.iter check (Node.leaf_entries node) with
            | () -> None
            | exception Found r -> Some r)
      in
      let rec loop () =
        match !stack with
        | [] ->
          hook t "probe:clear";
          `Clear probe
        | ((pid, memo) as entry) :: rest -> (
          stack := rest;
          hookf t "probe:visit:%a:memo=%a" Page_id.pp pid Lsn.pp memo;
          match visit t ~query:key ~spred:probe ~sig_lock ~leaf stack entry with
          | Some (`Dup rid) ->
            (* §8: the S lock on the duplicate's record alone makes the
               error repeatable; the probe predicates can go. *)
            hookf t "probe:dup:%a" Rid.pp rid;
            Pm.remove_pred t.preds probe;
            `Duplicate rid
          | Some (`Blocked rid) ->
            Lock_manager.lock locks tid (Lock_manager.Record rid) Lock_manager.S;
            (* Re-examine: the blocking inserter committed (duplicate) or
               aborted (gone). *)
            stack := entry :: !stack;
            loop ()
          | None -> loop ())
      in
      loop ())

let insert t txn ~key ~rid =
  if not t.unique then ignore (insert_entry t txn ~key ~rid)
  else
    match unique_probe t txn key with
    | `Duplicate _ -> raise Duplicate_key
    | `Clear probe ->
      ignore (insert_entry t txn ~key ~rid);
      (* "Once the insert operation is finished, the predicates left behind
         from the search phase can be released." *)
      Pm.remove_pred t.preds probe

(* ------------------------------------------------------------------ *)
(* Delete (§7): logical deletion                                       *)
(* ------------------------------------------------------------------ *)

let delete t txn ~key ~rid =
  let tid = Txn_manager.id txn in
  let locks = t.db.Db.locks in
  let txns = t.db.Db.txns in
  Metrics.incr m_deletes;
  with_ctx txn ~keep_on_success:(fun _ -> []) t (fun ctx ->
      (* Two-phase lock the data record first; this is what makes scans
         that returned it block us (and vice versa). *)
      Lock_manager.lock locks tid (Lock_manager.Record rid) Lock_manager.X;
      let found = ref false in
      let stack = ref [ (t.root, Db.global_nsn t.db) ] in
      sig_lock t ctx t.root;
      while !stack <> [] && not !found do
        let pid, memo = List.hd !stack in
        stack := List.tl !stack;
        with_node t pid Latch.X (fun frame node ->
            if Lsn.( < ) memo node.Node.nsn && Page_id.is_valid node.Node.rightlink then begin
              note_rightlink ~from_pid:pid ~memo node;
              sig_lock t ctx node.Node.rightlink;
              stack := (node.Node.rightlink, memo) :: !stack
            end;
            if Node.is_leaf node then begin
              match Node.find_live_by_rid node rid with
              | Some e when t.ext.Ext.matches_exact key e.Node.le_key ->
                hookf t "delete:mark:%a" Rid.pp rid;
                let lsn =
                  Txn_manager.log_update txns txn ~ext:t.ext.Ext.name
                    (Log_record.Mark_leaf_entry { page = pid; nsn = node.Node.nsn; rid })
                in
                e.Node.le_deleter <- tid;
                write_node t frame node ~lsn;
                found := true
              | Some _ | None -> ()
            end
            else begin
              let child_memo = memo_of t frame in
              Dyn.iter
                (fun e ->
                  if t.ext.Ext.consistent key e.Node.ie_bp then begin
                    sig_lock t ctx e.Node.ie_child;
                    stack := (e.Node.ie_child, child_memo) :: !stack
                  end)
                (Node.internal_entries node)
            end)
      done;
      !found)

(* ------------------------------------------------------------------ *)
(* Vacuum: GC sweep + node deletion via the drain technique (§7.2)     *)
(* ------------------------------------------------------------------ *)

(* Find the node whose rightlink points at [victim] (lock-free scan; S
   latches one node at a time). None means nothing pointed at it when
   scanned — and nothing can start to, since a rightlink to [victim] could
   only be inherited from an existing one at split time. *)
let find_left_sibling t victim =
  let found = ref None in
  let rec dfs pid =
    if !found = None then
      match
        with_node t pid Latch.S (fun _f node ->
            if Page_id.equal node.Node.rightlink victim then `Found
            else if Node.is_leaf node then `Stop
            else
              `Kids (Dyn.fold (fun l e -> e.Node.ie_child :: l) [] (Node.internal_entries node)))
      with
      | exception Codec.Corrupt _ -> ()
      | `Found -> found := Some pid
      | `Stop -> ()
      | `Kids kids -> List.iter dfs kids
  in
  dfs t.root;
  !found

(* Delete an empty, non-root leaf if no operation holds a direct or
   indirect pointer to it (the drain technique, §7.2). Latch order parent →
   victim → left sibling; the signaling-lock check is a conditional
   [try_lock], so deletion never blocks traversals — it simply skips nodes
   that are still referenced. The left sibling's rightlink is stitched past
   the victim inside the same NTA, so no dangling rightlink survives. *)
let try_delete_node t txn ~parent ~victim =
  let txns = t.db.Db.txns in
  let locks = t.db.Db.locks in
  let tid = Txn_manager.id txn in
  let left = find_left_sibling t victim in
  (* Pin the victim and its left sibling resident before any latch is
     taken, so their re-pins under the parent latch never fault. *)
  let with_left f = match left with None -> f () | Some l -> with_resident t l f in
  with_resident t victim @@ fun () ->
  with_left @@ fun () ->
  with_parent_holding t parent victim (fun parent_frame parent_node ->
      if Dyn.length (Node.internal_entries parent_node) <= 1 then
        (* Never retire a parent's last child: internal nodes must stay
           non-empty for descent. *)
        false
      else if
        not (Lock_manager.try_lock locks tid (Lock_manager.Node victim) Lock_manager.X)
      then false
      else begin
        let deleted =
          Buffer_pool.with_page t.db.Db.pool victim Latch.X (fun victim_frame ->
              let node = Node.get t.ext victim_frame in
              if (not (Node.is_leaf node)) || Node.entry_count node > 0 then false
              else begin
                hookf t "node-delete:%a" Page_id.pp victim;
                Metrics.incr m_node_deletes;
                let nta = Txn_manager.begin_nta txns txn in
                let stitched =
                  match left with
                  | None -> true
                  | Some l ->
                    Buffer_pool.with_page t.db.Db.pool l Latch.X (fun left_frame ->
                        match Node.get t.ext left_frame with
                        | exception Codec.Corrupt _ -> true (* left was retired itself *)
                        | left_node ->
                          if not (Page_id.equal left_node.Node.rightlink victim) then
                            (* The left sibling split meanwhile and the
                               pointer moved; skip this round. *)
                            false
                          else begin
                            let lsn =
                              Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name
                                (Log_record.Set_rightlink
                                   {
                                     page = l;
                                     new_rl = node.Node.rightlink;
                                     old_rl = victim;
                                   })
                            in
                            left_node.Node.rightlink <- node.Node.rightlink;
                            write_node t left_frame left_node ~lsn;
                            true
                          end)
                in
                if not stitched then begin
                  Txn_manager.end_nta txns txn nta;
                  false
                end
                else begin
                  (match Node.find_child parent_node victim with
                  | Some ie ->
                    let del_lsn =
                      Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name
                        (Log_record.Internal_entry_delete
                           {
                             page = parent_node.Node.id;
                             entry = Node.encode_internal_entry t.ext ie;
                           })
                    in
                    ignore (Node.remove_child parent_node victim);
                    write_node t parent_frame parent_node ~lsn:del_lsn
                  | None -> assert false);
                  let free_lsn =
                    Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name (Log_record.Free_page { page = victim })
                  in
                  if t.db.Db.config.Db.mvcc && Txn_manager.active_snapshots txns > 0 then
                    (* A lock-free snapshot reader holds no signaling lock,
                       so the conditional-X drain above proves nothing about
                       it — one may still hold a pointer at the victim.
                       Park the empty image (rightlink intact) instead of
                       scrubbing; [Db.reap_free] finishes the job once every
                       snapshot registered before this instant has ended.
                       Snapshots beginning later cannot reach the victim:
                       its parent entry and the left rightlink are already
                       stitched past it. *)
                    Db.defer_free t.db victim ~lsn:free_lsn
                  else begin
                    (* Unformat the page: it is unreachable by construction.
                       The zero-fill bypasses node encoding, so drop the
                       cached decode explicitly. *)
                    Bytes.fill (Buffer_pool.data victim_frame) 0
                      (Bytes.length (Buffer_pool.data victim_frame))
                      '\000';
                    Buffer_pool.invalidate_cache victim_frame;
                    Buffer_pool.mark_dirty t.db.Db.pool victim_frame ~lsn:free_lsn;
                    Db.release_page t.db victim
                  end;
                  Txn_manager.end_nta txns txn nta;
                  true
                end
              end)
        in
        Lock_manager.unlock locks tid (Lock_manager.Node victim);
        deleted
      end)

let vacuum t =
  (* First reclaim pages whose deferred frees have cleared their snapshot
     barriers — vacuum is the natural reap point besides [Db.end_ro]. *)
  ignore (Db.reap_free t.db);
  let txn = Txn_manager.begin_txn t.db.Db.txns in
  (* Single-pass DFS over parent structure; collects (parent, leaf) pairs
     first, then GCs and retires empties. *)
  let pairs = ref [] in
  let rec walk pid =
    let children =
      with_node t pid Latch.S (fun _f node ->
          if Node.is_leaf node then []
          else
            Dyn.fold (fun acc e -> e.Node.ie_child :: acc) [] (Node.internal_entries node)
            |> List.map (fun c -> (pid, c)))
    in
    List.iter
      (fun (parent, child) ->
        let is_leaf = with_node t child Latch.S (fun _f n -> Node.is_leaf n) in
        if is_leaf then pairs := (parent, child) :: !pairs else walk child)
      children
  in
  (* A leaf root is garbage-collected in place and never deleted. *)
  let root_is_leaf =
    Buffer_pool.with_page t.db.Db.pool t.root Latch.X (fun frame ->
        let node = Node.get t.ext frame in
        if Node.is_leaf node then begin
          ignore (gc_leaf t frame node);
          true
        end
        else false)
  in
  if not root_is_leaf then walk t.root;
  List.iter
    (fun (parent, leaf) ->
      let empty =
        Buffer_pool.with_page t.db.Db.pool leaf Latch.X (fun frame ->
            match Node.get t.ext frame with
            | node ->
              ignore (gc_leaf t frame node);
              Node.entry_count node = 0
            | exception Codec.Corrupt _ -> false (* already retired *))
      in
      if empty then ignore (try_delete_node t txn ~parent ~victim:leaf))
    !pairs;
  Txn_manager.commit t.db.Db.txns txn

(* ------------------------------------------------------------------ *)
(* Bulk loading: bottom-up packing with minimal logging                *)
(* ------------------------------------------------------------------ *)

let bulk_load db ext_ ?(unique = false) ?(fill = 0.85) ~empty_bp entries =
  if fill <= 0.0 || fill > 1.0 then invalid_arg "Gist.bulk_load: fill must be in (0,1]";
  let txns = db.Db.txns in
  let t = make_handle db ext_ unique Page_id.invalid in
  install_recovery t;
  let txn = Txn_manager.begin_txn txns in
  let nta = Txn_manager.begin_nta txns txn in
  (* The fixed root page is allocated first so its id is stable. *)
  let root = Db.allocate_page db in
  ignore (Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name (Log_record.Get_page { page = root }));
  let t = { t with root } in
  install_recovery t;
  let page_budget =
    int_of_float (Float.of_int (db.Db.config.Db.page_size - 8) *. fill)
  in
  let entry_budget = max 2 (int_of_float (Float.of_int db.Db.config.Db.max_entries *. fill)) in
  (* Write [node]'s image to a fresh page (or the root). *)
  let write_page node =
    let lsn = Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name (Log_record.Get_page { page = node.Node.id }) in
    Buffer_pool.with_new_page db.Db.pool node.Node.id (fun frame -> write_node t frame node ~lsn)
  in
  (* Pack one level: fold items into nodes of ~[fill] occupancy; returns
     the (bp, child) pairs of the level above. *)
  let pack_level ~level ~add ~count items =
    let parents = ref [] in
    let current = ref None in
    let flush_current () =
      match !current with
      | None -> ()
      | Some node ->
        Node.recompute_bp ext_ node;
        write_page node;
        parents := (node.Node.bp, node.Node.id) :: !parents;
        current := None
    in
    List.iter
      (fun item ->
        let node =
          match !current with
          | Some node
            when count node < entry_budget && Node.body_size ext_ node < page_budget ->
            node
          | _ ->
            flush_current ();
            let id = Db.allocate_page db in
            let node =
              if level = 0 then Node.make_leaf ~id ~bp:empty_bp
              else Node.make_internal ~id ~level ~bp:empty_bp
            in
            current := Some node;
            node
        in
        add node item)
      items;
    flush_current ();
    List.rev !parents
  in
  (* Leaves first. *)
  let leaf_parents =
    pack_level ~level:0
      ~add:(fun node (key, rid) ->
        Node.add_leaf_entry node
          { Node.le_key = key; le_rid = rid; le_creator = Txn_id.none; le_deleter = Txn_id.none })
      ~count:(fun n -> Dyn.length (Node.leaf_entries n))
      (Array.to_list entries)
  in
  (* Then internal levels upward until one node's worth remains, which is
     written into the fixed root page. *)
  let fits_in_root ~level items =
    List.length items <= entry_budget
    &&
    let probe = Node.make_internal ~id:root ~level ~bp:empty_bp in
    List.iter
      (fun (bp, child) -> Node.add_internal_entry probe { Node.ie_bp = bp; ie_child = child })
      items;
    Node.body_size ext_ probe < page_budget
  in
  let rec to_root ~level items =
    if fits_in_root ~level:(level + 1) items then begin
      let node = Node.make_internal ~id:root ~level:(level + 1) ~bp:empty_bp in
      List.iter
        (fun (bp, child) -> Node.add_internal_entry node { Node.ie_bp = bp; ie_child = child })
        items;
      Node.recompute_bp ext_ node;
      node
    end
    else
      to_root ~level:(level + 1)
        (pack_level ~level:(level + 1)
           ~add:(fun node (bp, child) ->
             Node.add_internal_entry node { Node.ie_bp = bp; ie_child = child })
           ~count:(fun n -> Dyn.length (Node.internal_entries n))
           items)
  in
  let root_node =
    match leaf_parents with
    | [] -> Node.make_leaf ~id:root ~bp:empty_bp
    | [ (_, only) ] ->
      (* Everything fit one leaf: its content becomes the root itself;
         reclaim the now-unused page. *)
      ignore (Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name (Log_record.Free_page { page = only }));
      Db.release_page db only;
      let node = Node.make_leaf ~id:root ~bp:empty_bp in
      Array.iter
        (fun (key, rid) ->
          Node.add_leaf_entry node
            { Node.le_key = key; le_rid = rid; le_creator = Txn_id.none; le_deleter = Txn_id.none })
        entries;
      Node.recompute_bp ext_ node;
      node
    | parents -> to_root ~level:0 parents
  in
  let fmt_lsn =
    Txn_manager.log_nta txns txn ~ext:t.ext.Ext.name
      (Log_record.Format_node
         {
           page = root;
           level = root_node.Node.level;
           bp = Ext.encode_to_string ext_ root_node.Node.bp;
         })
  in
  Buffer_pool.with_new_page db.Db.pool root (fun frame -> write_node t frame root_node ~lsn:fmt_lsn);
  (* Minimal logging: make every page durable before the NTA commits. *)
  Buffer_pool.flush_all db.Db.pool;
  Txn_manager.end_nta txns txn nta;
  Txn_manager.commit txns txn;
  Db.checkpoint db;
  t

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let height t = with_node t t.root Latch.S (fun _f node -> node.Node.level + 1)

let rec fold_leaves t pid acc f =
  let step =
    with_node t pid Latch.S (fun _frame node ->
        if Node.is_leaf node then `Leaf (f acc node)
        else
          `Children (Dyn.fold (fun l e -> e.Node.ie_child :: l) [] (Node.internal_entries node)))
  in
  match step with
  | `Leaf acc -> acc
  | `Children kids -> List.fold_left (fun acc kid -> fold_leaves t kid acc f) acc kids

let leaf_count t = fold_leaves t t.root 0 (fun n _ -> n + 1)

let entry_count t = fold_leaves t t.root 0 (fun n node -> n + Node.entry_count node)
