(** Workload generation for the experiments.

    Stateful per-worker generators with deterministic RNG streams. RIDs
    are made collision-free across workers by namespacing the slot with
    the worker id. *)

module Btree : sig
  type op =
    | Search of Gist_ams.Btree_ext.t
    | Insert of Gist_ams.Btree_ext.t * Gist_storage.Rid.t
    | Delete of Gist_ams.Btree_ext.t * Gist_storage.Rid.t

  val preload :
    Gist_core.Db.t ->
    Gist_ams.Btree_ext.t Gist_core.Gist.t ->
    n:int ->
    unit
  (** Insert keys [0, n) in one committed transaction (worker id 0). *)

  val rid_of_key : worker:int -> int -> Gist_storage.Rid.t

  val mixed :
    worker:int ->
    space:int ->
    read_pct:int ->
    scan_width:int ->
    theta:float ->
    Gist_util.Xoshiro.t ->
    op
  (** One operation: with probability [read_pct]% a range scan of
      [scan_width] starting at a (optionally Zipf-skewed) key, otherwise an
      insert of a fresh worker-local key or a delete of a previously
      inserted one. *)

  val scattered :
    worker:int ->
    space:int ->
    read_pct:int ->
    scan_width:int ->
    Gist_util.Xoshiro.t ->
    op list
  (** One transaction's actions. Reads are uniform range scans as in
      {!mixed}; a write is a delete+reinsert pair at two independent
      uniform keys, so write transactions fault (and dirty) cold leaves
      instead of appending to the worker's cached tail leaf. Used by the
      domain-scaling test ([test_scaling]), where write-side I/O is what
      a tree-global latch serializes. *)

  val apply :
    Gist_ams.Btree_ext.t Gist_core.Gist.t -> Gist_txn.Txn_manager.txn -> op -> unit
end

module Rtree : sig
  type op =
    | Search of Gist_ams.Rtree_ext.t
    | Insert of Gist_ams.Rtree_ext.t * Gist_storage.Rid.t

  val preload :
    Gist_core.Db.t ->
    Gist_ams.Rtree_ext.t Gist_core.Gist.t ->
    n:int ->
    extent:float ->
    seed:int ->
    unit

  val mixed :
    worker:int -> extent:float -> read_pct:int -> window:float -> Gist_util.Xoshiro.t -> op

  val apply :
    Gist_ams.Rtree_ext.t Gist_core.Gist.t -> Gist_txn.Txn_manager.txn -> op -> unit
end
