(** Transactional lock manager.

    Long-duration locks, organized in a hash table by name, with S/X modes,
    FIFO queuing, S→X upgrade, and waits-for deadlock detection (the victim
    is the requester that closed the cycle; it receives {!Deadlock}).

    Three name spaces, per the paper's hybrid scheme:
    - [Record rid] — two-phase locks on data records (§4.3);
    - [Node pid] — *signaling* locks that protect nodes referenced from
      traversal stacks against deletion (§7.2). These are ordinary S locks:
      they do not restrict physical access to the page, only node
      deletion (which requests X);
    - [Txn id] — every transaction X-locks its own id at start; "blocking
      on a predicate" is an S request on the owner's id (§10.3).

    Locks are reentrant with counting, so an operation that pushes the same
    node onto its stack twice releases it twice. [copy_holders] implements
    the lock-manager extension of §10.3: a node split replicates the
    signaling locks of the original node onto the new right sibling. *)

exception Deadlock of Gist_util.Txn_id.t
(** Raised in the requester whose wait would close a waits-for cycle. *)

type mode = S | X

type name =
  | Record of Gist_storage.Rid.t
  | Node of Gist_storage.Page_id.t
  | Txn of Gist_util.Txn_id.t

type t

val create : unit -> t

val lock : t -> Gist_util.Txn_id.t -> name -> mode -> unit
(** Block until granted. Reentrant; an S holder requesting X upgrades.
    @raise Deadlock if waiting would create a cycle. *)

val try_lock : t -> Gist_util.Txn_id.t -> name -> mode -> bool
(** Instant-duration attempt; never blocks. *)

val unlock : t -> Gist_util.Txn_id.t -> name -> unit
(** Decrement this transaction's hold count; fully release at zero.
    No-op if not held (tolerates release-after-copy races). *)

val release_all : t -> Gist_util.Txn_id.t -> unit
(** Drop every lock of the transaction (end of transaction). *)

val release_all_except : t -> Gist_util.Txn_id.t -> keep:(name -> bool) -> unit
(** Like [release_all] but retains names satisfying [keep] (used by
    partial rollback, which must not release pre-savepoint locks). *)

val copy_holders : t -> src:name -> dst:name -> unit
(** Grant every current holder of [src] the same lock on [dst] (same mode
    and count). The §10.3 extension for signaling locks at splits. *)

val holders : t -> name -> (Gist_util.Txn_id.t * mode) list

val held : t -> Gist_util.Txn_id.t -> name -> bool

val held_names : t -> Gist_util.Txn_id.t -> name list

val pp_name : Format.formatter -> name -> unit
val pp_mode : Format.formatter -> mode -> unit

(** {1 Statistics} *)

val blocked_count : t -> int
(** Number of lock requests that had to wait (cumulative). A request is
    counted once its waits-for edge is visible to other requesters'
    deadlock checks. *)

val deadlock_count : t -> int
val reset_stats : t -> unit
