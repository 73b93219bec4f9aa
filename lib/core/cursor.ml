open Gist_util
module Page_id = Gist_storage.Page_id
module Rid = Gist_storage.Rid
module Buffer_pool = Gist_storage.Buffer_pool
module Latch = Gist_storage.Latch
module Lsn = Gist_wal.Lsn
module Lock_manager = Gist_txn.Lock_manager
module Txn_manager = Gist_txn.Txn_manager
module Pm = Gist_pred.Predicate_manager

type 'p pending = { p_key : 'p; p_rid : Rid.t; p_leaf : Page_id.t }

type 'p t = {
  tree : 'p Gist.t;
  tid : Txn_id.t;
  query : 'p;
  spred : 'p Pm.pred;
  stack : (Page_id.t * Lsn.t) list ref;
  mutable buffered : 'p pending list;
  mutable seen : (Rid.t, unit) Hashtbl.t;
  sig_counts : (int, int) Hashtbl.t; (* page -> hold count *)
  leaf_pending : (int, int) Hashtbl.t; (* page -> unconsumed buffered entries *)
  mutable pinned : bool;
  mutable closed : bool;
}

type 'p snapshot = {
  s_stack : (Page_id.t * Lsn.t) list;
  s_buffered : 'p pending list;
  s_seen : (Rid.t, unit) Hashtbl.t;
}

let db c = Gist.db c.tree

let ext c = Gist.ext c.tree

let locks c = (db c).Db.locks

let sig_acquire c pid =
  Lock_manager.lock (locks c) c.tid (Lock_manager.Node pid) Lock_manager.S;
  let k = Page_id.to_int pid in
  Hashtbl.replace c.sig_counts k (1 + Option.value ~default:0 (Hashtbl.find_opt c.sig_counts k))

(* Signaling locks are released as their stack entries are consumed —
   unless a snapshot pinned them (§10.2: locks existing at a savepoint must
   not be released later). *)
let sig_release c pid =
  if not c.pinned then begin
    let k = Page_id.to_int pid in
    match Hashtbl.find_opt c.sig_counts k with
    | Some n when n > 0 ->
      Hashtbl.replace c.sig_counts k (n - 1);
      Lock_manager.unlock (locks c) c.tid (Lock_manager.Node pid)
    | _ -> ()
  end

let open_ tree txn query =
  let tid = Txn_manager.id txn in
  let spred = Pm.register (Gist.predicate_manager tree) ~owner:tid ~kind:Pm.Scan query in
  let c =
    {
      tree;
      tid;
      query;
      spred;
      stack = ref [];
      buffered = [];
      seen = Hashtbl.create 32;
      sig_counts = Hashtbl.create 32;
      leaf_pending = Hashtbl.create 8;
      pinned = false;
      closed = false;
    }
  in
  c.stack := Gist.start_scan tree ~sig_lock:(sig_acquire c);
  c

(* Visit the next stack node (Figure 3): its consistent children (or the
   rightlink of a missed split) go on the stack, its consistent unseen
   leaf entries into the buffer. *)
let advance c =
  match !(c.stack) with
  | [] -> ()
  | ((pid, _) as entry) :: rest -> (
    c.stack := rest;
    let leaf =
      Gist.Buffering
        (fun pid node ->
          Some
            (Dyn.fold
               (fun acc e ->
                 if
                   (ext c).Ext.consistent c.query e.Node.le_key
                   && not (Hashtbl.mem c.seen e.Node.le_rid)
                 then { p_key = e.Node.le_key; p_rid = e.Node.le_rid; p_leaf = pid } :: acc
                 else acc)
               [] (Node.leaf_entries node)))
    in
    match
      Gist.visit c.tree ~query:c.query ~spred:c.spred ~sig_lock:(sig_acquire c) ~leaf c.stack
        entry
    with
    | None | Some [] -> sig_release c pid
    | Some entries ->
      (* Keep the leaf's signaling lock until its buffered entries are
         consumed, so the rightlink chain the revalidation may need cannot
         be broken by node deletion. *)
      Hashtbl.replace c.leaf_pending (Page_id.to_int pid) (List.length entries);
      c.buffered <- List.rev_append entries c.buffered)

let consume_leaf_slot c pid =
  let k = Page_id.to_int pid in
  match Hashtbl.find_opt c.leaf_pending k with
  | Some 1 ->
    Hashtbl.remove c.leaf_pending k;
    sig_release c pid
  | Some n -> Hashtbl.replace c.leaf_pending k (n - 1)
  | None -> ()

(* After acquiring the record lock, re-find the entry (it may have moved
   right via splits, which our retained leaf signaling lock keeps
   chained). Returns whether it is live. *)
let revalidate c pending =
  let rec chase pid =
    if not (Page_id.is_valid pid) then `Gone
    else
      match
        Buffer_pool.with_page (db c).Db.pool pid Latch.S (fun frame ->
            match Node.get (ext c) frame with
            | exception Codec.Corrupt _ -> `Gone
            | node ->
              if not (Node.is_leaf node) then
                (* A root grow moved the buffered leaf's content down. *)
                `Down
                  (Gist_util.Dyn.fold
                     (fun l e -> e.Node.ie_child :: l)
                     [] (Node.internal_entries node)
                  |> List.rev)
              else (
                match Node.find_live_by_rid node pending.p_rid with
                | Some _ -> `Live
                | None -> `Next node.Node.rightlink))
      with
      | `Next rl -> chase rl
      | `Down kids ->
        let rec first = function
          | [] -> `Gone
          | k :: rest -> ( match chase k with `Live -> `Live | _ -> first rest)
        in
        first kids
      | (`Live | `Gone) as r -> r
  in
  chase pending.p_leaf

let rec next c =
  if c.closed then None
  else
    match c.buffered with
    | pending :: rest ->
      c.buffered <- rest;
      if Hashtbl.mem c.seen pending.p_rid then begin
        consume_leaf_slot c pending.p_leaf;
        next c
      end
      else begin
        let lm = locks c in
        let name = Lock_manager.Record pending.p_rid in
        let acquired =
          if Lock_manager.try_lock lm c.tid name Lock_manager.S then true
          else if Gist.writer_behind_us c.tree ~tid:c.tid pending.p_leaf pending.p_rid then false
          else begin
            Lock_manager.lock lm c.tid name Lock_manager.S;
            true
          end
        in
        if not acquired then begin
          consume_leaf_slot c pending.p_leaf;
          next c
        end
        else
          match revalidate c pending with
          | `Live ->
            Hashtbl.replace c.seen pending.p_rid ();
            consume_leaf_slot c pending.p_leaf;
            Some (pending.p_key, pending.p_rid)
          | `Gone ->
            Lock_manager.unlock lm c.tid name;
            consume_leaf_slot c pending.p_leaf;
            next c
      end
    | [] -> (
      match !(c.stack) with
      | [] -> None
      | _ ->
        advance c;
        next c)

let save c =
  c.pinned <- true;
  { s_stack = !(c.stack); s_buffered = c.buffered; s_seen = Hashtbl.copy c.seen }

let restore c snapshot =
  c.stack := snapshot.s_stack;
  c.buffered <- snapshot.s_buffered;
  c.seen <- Hashtbl.copy snapshot.s_seen;
  (* Leaf slots may have been consumed since the snapshot; the pins taken
     at [save] keep the locks themselves alive, so just rebuild counts. *)
  Hashtbl.reset c.leaf_pending;
  List.iter
    (fun p ->
      let k = Page_id.to_int p.p_leaf in
      Hashtbl.replace c.leaf_pending k
        (1 + Option.value ~default:0 (Hashtbl.find_opt c.leaf_pending k)))
    c.buffered

let close c =
  if not c.closed then begin
    c.closed <- true;
    c.pinned <- false;
    Hashtbl.iter
      (fun k n ->
        for _ = 1 to n do
          Lock_manager.unlock (locks c) c.tid (Lock_manager.Node (Page_id.of_int k))
        done)
      c.sig_counts;
    Hashtbl.reset c.sig_counts
  end

(* ------------------------------------------------------------------ *)
(* Snapshot cursors (PROTOCOL.md §9)                                   *)
(* ------------------------------------------------------------------ *)

(* A streaming scan on the MVCC read path. Holds no locks, no predicates
   and no signaling locks between [snap_next] calls, so there is nothing
   to revalidate and nothing to close: visibility at the snapshot's
   timestamp is immutable, the GC watermark keeps qualifying versions
   alive, and deferred page free keeps visited nodes readable for the
   lifetime of the [Db.ro]. *)
type 'p snap = {
  sc_tree : 'p Gist.t;
  sc_query : 'p;
  sc_leaf : ('p, ('p * Rid.t) list) Gist.leaf;
  sc_stack : (Page_id.t * Lsn.t) list ref;
  mutable sc_buffered : ('p * Rid.t) list;
  sc_seen : (Rid.t, unit) Hashtbl.t; (* rid dedup across rightlink revisits *)
}

let open_snapshot tree ro query =
  {
    sc_tree = tree;
    sc_query = query;
    sc_leaf = Gist.snapshot_leaf tree ro query;
    sc_stack = ref (Gist.start_scan ~ro tree ~sig_lock:ignore);
    sc_buffered = [];
    sc_seen = Hashtbl.create 32;
  }

let rec snap_next c =
  match c.sc_buffered with
  | (key, rid) :: rest ->
    c.sc_buffered <- rest;
    if Hashtbl.mem c.sc_seen rid then snap_next c
    else begin
      Hashtbl.replace c.sc_seen rid ();
      Some (key, rid)
    end
  | [] -> (
    match !(c.sc_stack) with
    | [] -> None
    | entry :: rest ->
      c.sc_stack := rest;
      c.sc_buffered <-
        Option.value ~default:[]
          (Gist.visit c.sc_tree ~query:c.sc_query ~sig_lock:ignore ~leaf:c.sc_leaf c.sc_stack entry);
      snap_next c)
