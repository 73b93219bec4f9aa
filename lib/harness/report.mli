(** Aligned text tables for experiment output (and EXPERIMENTS.md). *)

val table : header:string list -> string list list -> unit
(** Print a column-aligned table with a rule under the header. *)

val section : string -> unit
(** Print an experiment heading. *)

val f2 : float -> string
val f0 : float -> string
val i : int -> string
