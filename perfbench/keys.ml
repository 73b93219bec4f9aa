(* The key space and the benchmark's own model of the live key set.

   Keys live in [slots] slots of [slot_width] consecutive integers. The
   bulk load puts one key at the start of every slot; a write deletes a
   live key and inserts a fresh one at an unused offset of some slot, so
   fresh keys spread over the whole tree instead of piling up at its right
   edge. Slot [j] belongs to client [j mod clients]: clients write
   disjoint stripes, so each client's model of its own stripe is exact
   even while other clients run, and every result the tree returns can be
   checked against it by projecting onto the stripe. *)

module B = Gist_ams.Btree_ext
module Rid = Gist_storage.Rid

let slot_width = 64

let key_of_slot j = j * slot_width

let slot_of_key k = k / slot_width

let rid_of_key k = Rid.make ~page:(k lsr 16) ~slot:(k land 0xffff)

(* The query covering slots [lo, hi). *)
let slot_range lo hi = B.range (key_of_slot lo) (key_of_slot hi - 1)

let get b k = Char.code (Bytes.unsafe_get b (k lsr 3)) land (1 lsl (k land 7)) <> 0

let set b k v =
  let i = k lsr 3 and m = 1 lsl (k land 7) in
  let c = Char.code (Bytes.unsafe_get b i) in
  Bytes.unsafe_set b i (Char.unsafe_chr (if v then c lor m else c land lnot m))

type t = {
  client : int;
  clients : int;
  slots : int;
  live : Bytes.t;  (** One bit per key of this client's stripe. *)
  used : Bytes.t;  (** Keys ever made live: fresh keys are never reused. *)
  fen : int array;  (** Fenwick tree over slots: live keys per slot. *)
  mutable size : int;
}

let owner t k = slot_of_key k mod t.clients

let own_slots t = (t.slots - t.client + t.clients - 1) / t.clients

(* The [i]-th slot of this client's stripe. *)
let own_slot t i = (i * t.clients) + t.client

let fen_add t j d =
  let i = ref (j + 1) in
  while !i <= t.slots do
    t.fen.(!i) <- t.fen.(!i) + d;
    i := !i + (!i land - !i)
  done

(* Live keys in slots [0, j). *)
let prefix t j =
  let s = ref 0 and i = ref j in
  while !i > 0 do
    s := !s + t.fen.(!i);
    i := !i - (!i land - !i)
  done;
  !s

let count_slots t lo hi = prefix t hi - prefix t lo

let mem t k = get t.live k

let add t k =
  set t.live k true;
  set t.used k true;
  fen_add t (slot_of_key k) 1;
  t.size <- t.size + 1

let remove t k =
  set t.live k false;
  fen_add t (slot_of_key k) (-1);
  t.size <- t.size - 1

let create ~client ~clients ~slots =
  let bytes = ((slots * slot_width) + 7) / 8 in
  let t =
    {
      client;
      clients;
      slots;
      live = Bytes.make bytes '\000';
      used = Bytes.make bytes '\000';
      fen = Array.make (slots + 1) 0;
      size = 0;
    }
  in
  for i = 0 to own_slots t - 1 do
    add t (key_of_slot (own_slot t i))
  done;
  t

(* The lowest live key of slot [j], if any. *)
let first_live t j =
  let base = key_of_slot j in
  let rec go o = if o = slot_width then None else if mem t (base + o) then Some (base + o) else go (o + 1) in
  go 0

(* A never-used key in slot [j], if a few random probes find one. *)
let fresh t rng j =
  let base = key_of_slot j in
  let rec go tries =
    if tries = 0 then None
    else
      let k = base + 1 + Gist_util.Xoshiro.int rng (slot_width - 1) in
      if get t.used k then go (tries - 1) else Some k
  in
  go 8

(* Whether [keys] (any order, any owners) projected onto this client's
   stripe is exactly the model's live set within slots [lo, hi). *)
let matches_range t keys ~lo ~hi =
  let own = List.filter (fun k -> owner t k = t.client) keys in
  let n = List.length own in
  n = count_slots t lo hi
  && List.length (List.sort_uniq Int.compare own) = n
  && List.for_all (fun k -> mem t k && slot_of_key k >= lo && slot_of_key k < hi) own

let keys_of results = List.map (fun (p, _) -> B.key_value p) results
