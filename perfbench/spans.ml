(* In-memory span recorder for the traced run.

   A span is recorded around every call the benchmark makes into a layer's
   public function: name, start, end, parent span and the transaction's
   id. Each client domain owns one recorder, so recording never
   synchronizes; spans stay in memory and are written out when the run
   ends. With recording off, [call] is a branch and a closure call. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Span names and the layer each belongs to. Transaction roots belong to
   the benchmark itself: their self time is the residual no child covers. *)
let names =
  [|
    ("txn.read", "bench");
    ("txn.write", "bench");
    ("txn.scan", "bench");
    ("txn.snap", "bench");
    ("Txn_manager.begin_txn", "txn");
    ("Txn_manager.commit", "txn");
    ("Txn_manager.abort", "txn");
    ("Db.begin_ro", "txn");
    ("Db.end_ro", "txn");
    ("Gist.search", "core");
    ("Gist.insert", "core");
    ("Gist.delete", "core");
    ("Gist.snapshot_search", "core");
    ("Gist.vacuum", "core");
  |]

let id name =
  let rec go i = if fst names.(i) = name then i else go (i + 1) in
  go 0

let begin_txn = id "Txn_manager.begin_txn"
let commit = id "Txn_manager.commit"
let abort = id "Txn_manager.abort"
let begin_ro = id "Db.begin_ro"
let end_ro = id "Db.end_ro"
let search = id "Gist.search"
let insert = id "Gist.insert"
let delete = id "Gist.delete"
let snapshot_search = id "Gist.snapshot_search"
let vacuum = id "Gist.vacuum"

let stride = 5 (* name, parent, txn, start, stop *)

type t = {
  mutable on : bool;
  mutable buf : int array;
  mutable n : int;  (** Spans recorded. *)
  mutable root : int;  (** Index of the open transaction span, or -1. *)
}

let create () = { on = false; buf = Array.make (stride * 4096) 0; n = 0; root = -1 }

let push t name ~parent ~txn start =
  if (t.n + 1) * stride > Array.length t.buf then begin
    let b = Array.make (2 * Array.length t.buf) 0 in
    Array.blit t.buf 0 b 0 (t.n * stride);
    t.buf <- b
  end;
  let o = t.n * stride in
  t.buf.(o) <- name;
  t.buf.(o + 1) <- parent;
  t.buf.(o + 2) <- txn;
  t.buf.(o + 3) <- start;
  t.buf.(o + 4) <- start;
  t.n <- t.n + 1;
  t.n - 1

let stop t i = t.buf.((i * stride) + 4) <- now ()

(* Open a transaction (root) span starting at [start]. *)
let open_root t name ~txn start = if t.on then t.root <- push t name ~parent:(-1) ~txn start

let close_root t stop_ns =
  if t.on && t.root >= 0 then begin
    t.buf.((t.root * stride) + 4) <- stop_ns;
    t.root <- -1
  end

(* Run [f] inside a child span of the open root. *)
let call t name f =
  if not t.on then f ()
  else begin
    let txn = if t.root >= 0 then t.buf.((t.root * stride) + 2) else -1 in
    let i = push t name ~parent:t.root ~txn (now ()) in
    match f () with
    | v ->
      stop t i;
      v
    | exception e ->
      stop t i;
      raise e
  end

let iter t f =
  for i = 0 to t.n - 1 do
    let o = i * stride in
    f ~name:t.buf.(o) ~parent:t.buf.(o + 1) ~txn:t.buf.(o + 2) ~start:t.buf.(o + 3)
      ~stop:t.buf.(o + 4)
  done

(* What the traced run derives from its spans. Children are sequential
   within a transaction, so the part of a root's interval they cover is the
   sum of their durations. *)
type summary = {
  durations : Pct.t array;  (** Per name: every span's duration (ns). *)
  total_ns : int array;  (** Per name: summed duration. *)
  ro_envelope : Pct.t;  (** Per snapshot transaction: begin_ro + end_ro (ns). *)
  mutable root_ns : int;  (** Summed duration of transaction roots. *)
  mutable covered_ns : int;  (** Summed duration of their children. *)
  mutable roots : int;
}

let summarize ts =
  let k = Array.length names in
  let s =
    {
      durations = Array.init k (fun _ -> Pct.create 16);
      total_ns = Array.make k 0;
      ro_envelope = Pct.create 16;
      root_ns = 0;
      covered_ns = 0;
      roots = 0;
    }
  in
  List.iter
    (fun t ->
      let ro_by_root = Hashtbl.create 64 in
      iter t (fun ~name ~parent ~txn:_ ~start ~stop ->
          let d = stop - start in
          Pct.add s.durations.(name) d;
          s.total_ns.(name) <- s.total_ns.(name) + d;
          if name = begin_ro || name = end_ro then
            Hashtbl.replace ro_by_root parent
              (d + Option.value ~default:0 (Hashtbl.find_opt ro_by_root parent));
          if parent < 0 && snd names.(name) = "bench" then begin
            s.root_ns <- s.root_ns + d;
            s.roots <- s.roots + 1
          end
          else if parent >= 0 then s.covered_ns <- s.covered_ns + d);
      Hashtbl.iter (fun _ d -> Pct.add s.ro_envelope d) ro_by_root)
    ts;
  s

(* Write every client's spans as tab-separated lines; span ids are made
   unique across clients by prefixing the client number. *)
let write path ts =
  let oc = open_out path in
  output_string oc "id\tparent\ttxn\tname\tlayer\tstart_ns\tend_ns\n";
  List.iteri
    (fun c t ->
      let i = ref 0 in
      iter t (fun ~name ~parent ~txn ~start ~stop ->
          let sid j = if j < 0 then "-" else Printf.sprintf "%d.%d" c j in
          Printf.fprintf oc "%s\t%s\t%d\t%s\t%s\t%d\t%d\n" (sid !i) (sid parent) txn
            (fst names.(name)) (snd names.(name)) start stop;
          incr i))
    ts;
  close_out oc
