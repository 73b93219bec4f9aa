(** Multi-domain transactional workload driver.

    Spawns worker domains that repeatedly run an operation body, each call
    in its own transaction, until a wall-clock deadline, with per-worker
    deterministic RNG streams and deadlock-abort-retry handling, and
    aggregates throughput/latency. *)

type stats = {
  ops : int;  (** Committed operations. *)
  aborts : int;  (** Deadlock aborts, retried or not. *)
  given_up : int;
      (** Operations abandoned uncommitted after {!max_attempts} deadlock
          aborts in a row; not counted in [ops]. *)
  elapsed_s : float;
  throughput : float;  (** Committed operations per second (all workers). *)
  latency : Gist_util.Stats.Histogram.t;
      (** Seconds per committed operation, retries included. *)
}

val max_attempts : int
(** Attempts one operation gets before it gives up. *)

val run_txn_ops :
  db:Gist_core.Db.t ->
  domains:int ->
  duration_s:float ->
  seed:int ->
  (worker:int -> rng:Gist_util.Xoshiro.t -> txn:Gist_txn.Txn_manager.txn -> unit) ->
  stats
(** [run_txn_ops ~db ~domains ~duration_s ~seed body] calls [body] in a
    loop from each worker domain until the deadline, each call in its own
    transaction: committed when [body] returns, aborted and retried
    (counted) when it raises {!Gist_txn.Lock_manager.Deadlock}. Any other
    exception aborts the measurement. *)
