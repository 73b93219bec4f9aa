open Gist_util
module Metrics = Gist_obs.Metrics
module Trace = Gist_obs.Trace

let m_acquires =
  Metrics.counter ~unit_:"ops"
    ~help:"lock acquisitions granted (including re-entrant bumps and try_lock successes)"
    "lock.acquire"

let m_waits = Metrics.counter ~unit_:"ops" ~help:"lock requests that had to block" "lock.wait"

let m_deadlocks =
  Metrics.counter ~unit_:"ops" ~help:"deadlock victims (requests aborted)" "lock.deadlock"

let h_wait_ns =
  Metrics.histogram ~unit_:"ns" ~help:"blocked time of granted lock waits" "lock.wait_ns"

exception Deadlock of Txn_id.t

type mode = S | X

type name =
  | Record of Gist_storage.Rid.t
  | Node of Gist_storage.Page_id.t
  | Txn of Txn_id.t

type holder = { h_txn : Txn_id.t; mutable h_mode : mode; mutable count : int }

type waiter = {
  w_txn : Txn_id.t;
  w_mode : mode;
  upgrade : bool;
  mutable granted : bool;
}

type head = { mutable holders : holder list; mutable queue : waiter list }

(* The table is sharded by name hash so the hot grant/release path contends
   only within a shard. Blocking (the rare path) goes through one global
   registry whose mutex is always taken *before* any shard mutex, keeping
   the lock order acyclic: detector: W -> shard; fast path: shard only. *)
type shard = {
  m : Mutex.t;
  c : Condition.t;
  table : (name, head) Hashtbl.t;
  by_txn : (Txn_id.t, (name, unit) Hashtbl.t) Hashtbl.t;
}

type t = {
  shards : shard array;
  w : Mutex.t;  (** Guards [waiting]; ordering: w before any shard mutex. *)
  waiting : (Txn_id.t, name) Hashtbl.t;
  blocked : int Atomic.t;
  deadlocks : int Atomic.t;
}

let n_shards = 64

let create () =
  {
    shards =
      Array.init n_shards (fun _ ->
          {
            m = Mutex.create ();
            c = Condition.create ();
            table = Hashtbl.create 64;
            by_txn = Hashtbl.create 16;
          });
    w = Mutex.create ();
    waiting = Hashtbl.create 64;
    blocked = Atomic.make 0;
    deadlocks = Atomic.make 0;
  }

let shard t name = t.shards.(Hashtbl.hash name land (n_shards - 1))

let pp_mode ppf = function
  | S -> Format.pp_print_string ppf "S"
  | X -> Format.pp_print_string ppf "X"

let pp_name ppf = function
  | Record rid -> Format.fprintf ppf "rec:%a" Gist_storage.Rid.pp rid
  | Node pid -> Format.fprintf ppf "node:%a" Gist_storage.Page_id.pp pid
  | Txn txn -> Format.fprintf ppf "txn:%a" Txn_id.pp txn

let trace_mode = function S -> Trace.S | X -> Trace.X

let compatible a b = match (a, b) with S, S -> true | _ -> false

let head_of s name =
  match Hashtbl.find_opt s.table name with
  | Some h -> h
  | None ->
    let h = { holders = []; queue = [] } in
    Hashtbl.replace s.table name h;
    h

let find_holder head txn = List.find_opt (fun h -> Txn_id.equal h.h_txn txn) head.holders

let note_held s txn name =
  let set =
    match Hashtbl.find_opt s.by_txn txn with
    | Some set -> set
    | None ->
      let set = Hashtbl.create 8 in
      Hashtbl.replace s.by_txn txn set;
      set
  in
  Hashtbl.replace set name ()

let note_released s txn name =
  match Hashtbl.find_opt s.by_txn txn with
  | Some set ->
    Hashtbl.remove set name;
    if Hashtbl.length set = 0 then Hashtbl.remove s.by_txn txn
  | None -> ()

(* Grant the longest grantable prefix of the FIFO queue. Upgrades sit at
   the queue front and become grantable once the requester is the only
   holder. Call with the shard mutex held. *)
let process_queue s name head =
  let granted_any = ref false in
  let rec loop () =
    match head.queue with
    | [] -> ()
    | wtr :: rest ->
      let grantable =
        if wtr.upgrade then
          match head.holders with
          | [ h ] when Txn_id.equal h.h_txn wtr.w_txn -> true
          | _ -> false
        else List.for_all (fun h -> compatible wtr.w_mode h.h_mode) head.holders
      in
      if grantable then begin
        head.queue <- rest;
        (if wtr.upgrade then (
           match find_holder head wtr.w_txn with
           | Some h ->
             h.h_mode <- X;
             h.count <- h.count + 1
           | None -> assert false)
         else begin
           head.holders <-
             { h_txn = wtr.w_txn; h_mode = wtr.w_mode; count = 1 } :: head.holders;
           note_held s wtr.w_txn name
         end);
        wtr.granted <- true;
        granted_any := true;
        loop ()
      end
  in
  loop ();
  if !granted_any then Condition.broadcast s.c

(* Transactions a waiter on [name] waits for: incompatible holders plus
   everyone ahead in the FIFO queue. Takes the shard mutex; call only with
   [t.w] held (w -> shard ordering). *)
let blockers t name for_txn =
  let s = shard t name in
  Mutex.lock s.m;
  let result =
    match Hashtbl.find_opt s.table name with
    | None -> []
    | Some head ->
      if not (List.exists (fun wtr -> Txn_id.equal wtr.w_txn for_txn) head.queue) then
        (* Granted (or gave up) since it registered: not actually waiting. *)
        []
      else begin
        let upgrading = Option.is_some (find_holder head for_txn) in
        let my_mode =
          match List.find_opt (fun wtr -> Txn_id.equal wtr.w_txn for_txn) head.queue with
          | Some wtr -> wtr.w_mode
          | None -> X
        in
        let from_holders =
          List.filter_map
            (fun h ->
              if Txn_id.equal h.h_txn for_txn then None
              else if upgrading then Some h.h_txn (* upgrade waits for every holder *)
              else if compatible my_mode h.h_mode then None
              else Some h.h_txn)
            head.holders
        in
        let rec ahead acc = function
          | [] -> acc
          | wtr :: _ when Txn_id.equal wtr.w_txn for_txn -> acc
          | wtr :: rest -> ahead (wtr.w_txn :: acc) rest
        in
        from_holders @ ahead [] head.queue
      end
  in
  Mutex.unlock s.m;
  result

(* Call with [t.w] held. *)
let would_deadlock t start =
  let visited = Hashtbl.create 16 in
  let rec visit txn =
    if Txn_id.equal txn start && Hashtbl.length visited > 0 then true
    else if Hashtbl.mem visited txn then false
    else begin
      Hashtbl.replace visited txn ();
      match Hashtbl.find_opt t.waiting txn with
      | None -> false
      | Some name -> List.exists visit (blockers t name txn)
    end
  in
  match Hashtbl.find_opt t.waiting start with
  | None -> false
  | Some name ->
    Hashtbl.replace visited start ();
    List.exists visit (blockers t name start)

let lock t txn name mode =
  let s = shard t name in
  Mutex.lock s.m;
  let head = head_of s name in
  match find_holder head txn with
  | Some h when (match (mode, h.h_mode) with X, S -> false | _ -> true) ->
    h.count <- h.count + 1;
    Mutex.unlock s.m;
    Metrics.incr m_acquires
  | existing -> (
    let upgrade = Option.is_some existing in
    let immediately_grantable =
      head.queue = []
      &&
      if upgrade then match head.holders with [ _ ] -> true | _ -> false
      else List.for_all (fun h -> compatible mode h.h_mode) head.holders
    in
    if immediately_grantable then begin
      (if upgrade then (
         match existing with
         | Some h ->
           h.h_mode <- X;
           h.count <- h.count + 1
         | None -> assert false)
       else begin
         head.holders <- { h_txn = txn; h_mode = mode; count = 1 } :: head.holders;
         note_held s txn name
       end);
      Mutex.unlock s.m;
      Metrics.incr m_acquires
    end
    else begin
      Metrics.incr m_waits;
      if Trace.enabled () then
        Trace.emit
          (Trace.Lock_wait
             { txn; name = Format.asprintf "%a" pp_name name; mode = trace_mode mode });
      let wait_t0 = Clock.now_ns () in
      let wtr = { w_txn = txn; w_mode = mode; upgrade; granted = false } in
      (* Upgrades queue-jump: they already hold the resource. *)
      if upgrade then head.queue <- wtr :: head.queue else head.queue <- head.queue @ [ wtr ];
      Mutex.unlock s.m;
      (* Deadlock check under the global registry (w -> shard ordering). *)
      Mutex.lock t.w;
      Hashtbl.replace t.waiting txn name;
      (* Counted only once the waits-for edge is registered: a caller that
         sees the count and then requests a lock closing a cycle finds
         the edge in its own deadlock check, so it is the victim. *)
      Atomic.incr t.blocked;
      let dead = would_deadlock t txn in
      if dead then begin
        Hashtbl.remove t.waiting txn;
        Atomic.incr t.deadlocks;
        Metrics.incr m_deadlocks;
        if Trace.enabled () then Trace.emit (Trace.Deadlock_victim { txn });
        Mutex.unlock t.w;
        Mutex.lock s.m;
        if not wtr.granted then begin
          head.queue <- List.filter (fun w' -> w' != wtr) head.queue;
          process_queue s name head;
          Mutex.unlock s.m;
          raise (Deadlock txn)
        end
        else begin
          (* Raced a grant: keep the lock, no deadlock after all. *)
          Mutex.unlock s.m;
          Metrics.incr m_acquires
        end
      end
      else begin
        Mutex.unlock t.w;
        Mutex.lock s.m;
        process_queue s name head;
        while not wtr.granted do
          Condition.wait s.c s.m
        done;
        Mutex.unlock s.m;
        Metrics.incr m_acquires;
        Metrics.record h_wait_ns (Float.of_int (Clock.now_ns () - wait_t0));
        Mutex.lock t.w;
        (* Only clear our own registration (we may have re-registered). *)
        (match Hashtbl.find_opt t.waiting txn with
        | Some n when n = name -> Hashtbl.remove t.waiting txn
        | _ -> ());
        Mutex.unlock t.w
      end
    end)

let try_lock t txn name mode =
  let s = shard t name in
  Mutex.lock s.m;
  let head = head_of s name in
  let ok =
    match find_holder head txn with
    | Some h when (match (mode, h.h_mode) with X, S -> false | _ -> true) ->
      h.count <- h.count + 1;
      true
    | Some h when head.queue = [] && List.length head.holders = 1 ->
      h.h_mode <- X;
      h.count <- h.count + 1;
      true
    | Some _ -> false
    | None ->
      if head.queue = [] && List.for_all (fun h -> compatible mode h.h_mode) head.holders
      then begin
        head.holders <- { h_txn = txn; h_mode = mode; count = 1 } :: head.holders;
        note_held s txn name;
        true
      end
      else false
  in
  Mutex.unlock s.m;
  if ok then Metrics.incr m_acquires;
  ok

(* Call with the shard mutex held. *)
let remove_holder s name head txn =
  head.holders <- List.filter (fun h -> not (Txn_id.equal h.h_txn txn)) head.holders;
  note_released s txn name;
  process_queue s name head;
  if head.holders = [] && head.queue = [] then Hashtbl.remove s.table name

let unlock t txn name =
  let s = shard t name in
  Mutex.lock s.m;
  (match Hashtbl.find_opt s.table name with
  | None -> ()
  | Some head -> (
    match find_holder head txn with
    | None -> ()
    | Some h ->
      h.count <- h.count - 1;
      if h.count <= 0 then remove_holder s name head txn));
  Mutex.unlock s.m

let release_in_shard s txn ~keep =
  Mutex.lock s.m;
  (match Hashtbl.find_opt s.by_txn txn with
  | None -> ()
  | Some set ->
    let names = Hashtbl.fold (fun n () acc -> n :: acc) set [] in
    List.iter
      (fun name ->
        if not (keep name) then
          match Hashtbl.find_opt s.table name with
          | Some head -> remove_holder s name head txn
          | None -> ())
      names);
  Mutex.unlock s.m

let release_all t txn = Array.iter (fun s -> release_in_shard s txn ~keep:(fun _ -> false)) t.shards

let release_all_except t txn ~keep = Array.iter (fun s -> release_in_shard s txn ~keep) t.shards

let copy_holders t ~src ~dst =
  (* Snapshot the source shard, then merge into the destination shard.
     A source holder releasing in between leaves a transient extra hold on
     [dst], which its end-of-transaction release_all cleans up — safe
     over-protection. *)
  let s_src = shard t src in
  Mutex.lock s_src.m;
  let snapshot =
    match Hashtbl.find_opt s_src.table src with
    | None -> []
    | Some head -> List.map (fun h -> (h.h_txn, h.h_mode, h.count)) head.holders
  in
  Mutex.unlock s_src.m;
  if snapshot <> [] then begin
    let s_dst = shard t dst in
    Mutex.lock s_dst.m;
    let head = head_of s_dst dst in
    List.iter
      (fun (h_txn, h_mode, count) ->
        match find_holder head h_txn with
        | Some existing ->
          existing.count <- existing.count + count;
          if h_mode = X then existing.h_mode <- X
        | None ->
          head.holders <- { h_txn; h_mode; count } :: head.holders;
          note_held s_dst h_txn dst)
      snapshot;
    Mutex.unlock s_dst.m
  end

let holders t name =
  let s = shard t name in
  Mutex.lock s.m;
  let r =
    match Hashtbl.find_opt s.table name with
    | None -> []
    | Some head -> List.map (fun h -> (h.h_txn, h.h_mode)) head.holders
  in
  Mutex.unlock s.m;
  r

let held t txn name =
  let s = shard t name in
  Mutex.lock s.m;
  let r =
    match Hashtbl.find_opt s.table name with
    | None -> false
    | Some head -> Option.is_some (find_holder head txn)
  in
  Mutex.unlock s.m;
  r

let held_names t txn =
  Array.to_list t.shards
  |> List.concat_map (fun s ->
         Mutex.lock s.m;
         let r =
           match Hashtbl.find_opt s.by_txn txn with
           | None -> []
           | Some set -> Hashtbl.fold (fun n () acc -> n :: acc) set []
         in
         Mutex.unlock s.m;
         r)

let blocked_count t = Atomic.get t.blocked

let deadlock_count t = Atomic.get t.deadlocks

let reset_stats t =
  Atomic.set t.blocked 0;
  Atomic.set t.deadlocks 0
