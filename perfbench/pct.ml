(* Exact percentiles over raw samples.

   Every latency the benchmark reports is computed here from the full set
   of per-transaction samples, never from a bucketed histogram: the
   kernel's log-bucketed histograms are 2^(1/8) (about 9%) wide, so one
   bucket flip alone would use up a 10% regression bound. *)

(* A growable buffer of integer samples (nanoseconds), owned by one
   domain. *)
type t = { mutable a : int array; mutable n : int }

let create cap = { a = Array.make (max 16 cap) 0; n = 0 }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1

let clear t = t.n <- 0

(* All samples of several buffers, sorted ascending. *)
let sorted ts =
  let n = List.fold_left (fun acc t -> acc + t.n) 0 ts in
  let out = Array.make n 0 in
  ignore (List.fold_left (fun off t -> Array.blit t.a 0 out off t.n; off + t.n) 0 ts);
  Array.sort Int.compare out;
  out

(* Nearest-rank percentile of sorted samples: the smallest sample with at
   least [q * n] samples at or below it. Returns the value and how many
   samples lie strictly beyond its rank. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then (0, 0)
  else
    let rank = max 1 (min n (int_of_float (Float.ceil (q *. Float.of_int n)))) in
    (sorted.(rank - 1), n - rank)

(* Median of a float list (used for per-round rates and set-up times). *)
let median_f xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
