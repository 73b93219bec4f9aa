module Metrics = Gist_obs.Metrics
module Trace = Gist_obs.Trace

let m_hits = Metrics.counter ~unit_:"ops" ~help:"page pins satisfied from the pool" "bp.hit"

let m_misses = Metrics.counter ~unit_:"ops" ~help:"page pins that had to read the disk" "bp.miss"

let m_evictions = Metrics.counter ~unit_:"ops" ~help:"frames recycled for another page" "bp.evict"

let m_writebacks =
  Metrics.counter ~unit_:"ops" ~help:"dirty images written back (evictions + flushes)"
    "bp.writeback"

let m_fg_writebacks =
  Metrics.counter ~unit_:"ops"
    ~help:
      "dirty write-backs paid on the foreground path (demand eviction / overflow repayment); \
       0 while the background writer keeps a clean-victim reserve"
    "bp.fg_writeback"

let m_bg_writebacks =
  Metrics.counter ~unit_:"ops"
    ~help:
      "dirty write-backs issued off the foreground path: the background flusher plus \
       administrative flushes (checkpoint, shutdown)"
    "bp.bg_writeback"

let m_prefetch_issued =
  Metrics.counter ~unit_:"ops" ~help:"pages read into the pool ahead of demand (scan prefetch)"
    "bp.prefetch.issued"

let m_prefetch_hit =
  Metrics.counter ~unit_:"ops"
    ~help:"demand pins that found their page already resident from a prefetch"
    "bp.prefetch.hit"

let m_scan_saved =
  Metrics.counter ~unit_:"ops"
    ~help:
      "evictions where the scan-resistant policy recycled a probationary (first-touch) frame \
       although plain LRU would have evicted an older protected (re-referenced) one"
    "bp.scan_resist_saved"

let m_latched_io =
  Metrics.counter ~unit_:"ops"
    ~help:"disk I/Os issued while the calling domain held a latch (claim C1 invariant: 0)"
    "latches_held_across_io"

let m_cache_invalidate =
  Metrics.counter ~unit_:"ops"
    ~help:"decoded-node cache entries dropped (frame recycle, reset, raw image mutation)"
    "bp.node_cache.invalidate"

let m_overflow =
  Metrics.counter ~unit_:"ops"
    ~help:
      "frames allocated beyond capacity because a latched page allocation found only dirty \
       victims (evicting one would break the C1 no-I/O-under-latch invariant)"
    "bp.overflow_frame"

(* Who pays for a dirty write-back. [Fg] is the demand path — a user
   operation that had to evict; [Bg] covers the background flusher and
   administrative flushes (checkpoints, shutdown). *)
type origin = Fg | Bg

type frame = {
  mutable pid : Page_id.t;
  mutable image : Bytes.t;
  mutable dirty : bool;
  mutable rec_lsn : int64; (* LSN that first dirtied the page; -1L if clean *)
  mutable dirty_epoch : int;
      (* bumped on every [mark_dirty] (under the shard mutex); a flusher
         compares epochs around its unlocked write so a concurrent
         re-dirtying is never marked clean away *)
  mutable pin_count : int;
  mutable loading : bool;
  mutable last_used : int;
  (* 2Q/CLOCK state: tier 0 = probationary (first touch), tier 1 =
     protected (re-referenced). [ref_bit] is the CLOCK second-chance bit
     over the protected tier. [prefetched] marks a page read ahead of
     demand; its first demand pin counts as the page's first real touch. *)
  mutable tier : int;
  mutable ref_bit : bool;
  mutable prefetched : bool;
  frame_latch : Latch.t;
  (* Decoded-node cache: the node last decoded from (or encoded into) this
     frame's image, type-erased because the pool is predicate-type-agnostic.
     Valid only while [cached_lsn] equals the page-header LSN: any logged
     mutation stamps a fresh LSN via [mark_dirty], so a stale entry can
     never be served. Read/written only under the frame latch. *)
  mutable cached : Obj.t option;
  mutable cached_lsn : int64;
  cache_on : bool;
}

(* Sharded by page id: pin/unpin contend only within a shard. Each shard
   owns capacity/n_shards frames; eviction is shard-local. *)
type shard = {
  mutex : Mutex.t;
  changed : Condition.t;
  table : (int, frame) Hashtbl.t;
  mutable frames : frame list;
  mutable n_frames : int; (* = List.length frames, kept so fault-in is O(1) *)
  capacity : int;
  (* 2Q A1out ghost list: ids of pages recently evicted from the
     probationary tier (no content, just identity). A fault that hits it
     is a re-reference the pool evicted too early — the page installs
     straight into the protected tier, which is what keeps a working set
     slightly too big for probation from cycling there forever. Bounded
     FIFO; generations invalidate stale queue entries. *)
  ghost_set : (int, int) Hashtbl.t; (* pid -> generation *)
  ghost_fifo : (int * int) Queue.t;
  mutable ghost_gen : int;
}

type t = {
  shards : shard array;
  disk : Disk.t;
  force_log : int64 -> unit;
  log_page_image : (Page_id.t -> Bytes.t -> int64) option;
  mutable fpw_on : bool; (* restart redo/undo masks full-page writes *)
  node_cache : bool;
  (* Hooks into the background writer, installed by [Db.attach] after the
     writer domain starts. [bg_wake] nudges it out of its idle sleep;
     [bg_alive] answers whether it is running (a dead writer must never be
     waited on). Plain closures, swapped only at attach/close. *)
  mutable bg_wake : unit -> unit;
  mutable bg_alive : unit -> bool;
  tick : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  fg_wb : int Atomic.t;
  bg_wb : int Atomic.t;
  io_latched : int Atomic.t;
}

let n_shards = 16

let create ?log_page_image ?(node_cache = true) ~capacity ~disk ~force_log () =
  if capacity < 4 then invalid_arg "Buffer_pool.create: capacity < 4";
  let per_shard = max 2 (capacity / n_shards) in
  {
    shards =
      Array.init n_shards (fun _ ->
          {
            mutex = Mutex.create ();
            changed = Condition.create ();
            table = Hashtbl.create (2 * per_shard);
            frames = [];
            n_frames = 0;
            capacity = per_shard;
            ghost_set = Hashtbl.create (2 * per_shard);
            ghost_fifo = Queue.create ();
            ghost_gen = 0;
          });
    disk;
    force_log;
    log_page_image;
    fpw_on = true;
    node_cache;
    bg_wake = (fun () -> ());
    bg_alive = (fun () -> false);
    tick = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    fg_wb = Atomic.make 0;
    bg_wb = Atomic.make 0;
    io_latched = Atomic.make 0;
  }

let shard t pid = t.shards.(Page_id.to_int pid land (n_shards - 1))

let disk t = t.disk

let latch f = f.frame_latch

(* Optimistic readers snapshot/validate the frame latch's version word
   while holding only a pin (which is what keeps the frame from being
   recycled under them). *)
let frame_version f = Latch.optimistic f.frame_latch

let validate_frame f v = Latch.validate f.frame_latch v

let data f = f.image

let page_id f = f.pid

let header_lsn image = Bytes.get_int64_le image 0

let page_lsn f = header_lsn f.image

let set_bg_writer t ~wake ~alive =
  t.bg_wake <- wake;
  t.bg_alive <- alive

let clear_bg_writer t =
  t.bg_wake <- (fun () -> ());
  t.bg_alive <- (fun () -> false)

let broadcast_waiters t =
  Array.iter
    (fun s ->
      Mutex.lock s.mutex;
      Condition.broadcast s.changed;
      Mutex.unlock s.mutex)
    t.shards

(* Decoded-node cache. The stamp ties the cached value to one exact page
   state: a hit requires [cached_lsn = header_lsn image]. Callers hold the
   frame latch (S for reads, X for installs after a mutation). *)

let cached_node f =
  match f.cached with
  | Some _ as v when Int64.equal f.cached_lsn (header_lsn f.image) -> v
  | _ -> None

let cache_node_at f o ~lsn =
  if f.cache_on then begin
    f.cached <- Some o;
    f.cached_lsn <- lsn
  end

let cache_node f o = cache_node_at f o ~lsn:(header_lsn f.image)

let invalidate_cache f =
  match f.cached with
  | None -> ()
  | Some _ ->
    f.cached <- None;
    f.cached_lsn <- -1L;
    Metrics.incr m_cache_invalidate

let invalidate_caches t =
  Array.iter
    (fun s ->
      Mutex.lock s.mutex;
      List.iter invalidate_cache s.frames;
      Mutex.unlock s.mutex)
    t.shards

let touch t f = f.last_used <- Atomic.fetch_and_add t.tick 1

(* 2Q/CLOCK victim. The probationary ring absorbs one-touch pages (bulk
   load, scan), but it is only drained FIRST while it holds more than its
   target share (the classic 2Q Kin ~ 25% rule). Below the target,
   victims come from the protected tier via CLOCK second chance
   (referenced-since-last-sweep frames are spared once) — without this,
   stale protected frames left by an earlier phase are immortal, and a
   small working set re-faulting through probation cycles forever: each
   probe's fault-ins evict the previous probe's pages before their second
   access can promote them. Shard mutex held. *)

(* A1out ghost bookkeeping (shard mutex held). [ghost_add]
   remembers a page id just evicted from the probationary tier — identity
   only, no content. [ghost_take] answers whether a faulting page was
   recently there, and forgets it: the re-fault is the second reference 2Q
   wants, so the page installs straight into the protected tier. Without
   this, a working set slightly larger than probation cycles there forever
   (each re-fault evicts an earlier one before anything is promoted) while
   stale protected frames sit immortal. Bounded FIFO at one shard's frame
   capacity; generations invalidate stale queue entries. *)
let ghost_add s pid =
  let pid = Page_id.to_int pid in
  s.ghost_gen <- s.ghost_gen + 1;
  Hashtbl.replace s.ghost_set pid s.ghost_gen;
  Queue.push (pid, s.ghost_gen) s.ghost_fifo;
  while Queue.length s.ghost_fifo > s.capacity do
    let p, g = Queue.pop s.ghost_fifo in
    match Hashtbl.find_opt s.ghost_set p with
    | Some g' when g' = g -> Hashtbl.remove s.ghost_set p
    | _ -> ()
  done

let ghost_take s pid =
  let pid = Page_id.to_int pid in
  if Hashtbl.mem s.ghost_set pid then begin
    Hashtbl.remove s.ghost_set pid;
    true
  end
  else false

(* The 2Q/CLOCK victim described above. [clean_only] admits only clean
   frames: recycling one needs no write-back, so a caller holding latches
   can evict it without I/O. *)
let find_victim s ~clean_only =
  let ok f =
    f.pin_count = 0 && (not f.loading) && ((not clean_only) || not f.dirty)
  in
  let lru best f = match !best with Some b when b.last_used <= f.last_used -> () | _ -> best := Some f in
  let overall = ref None and prob = ref None and prot_clear = ref None and prot_any = ref None in
  List.iter
    (fun f ->
      if ok f then begin
        lru overall f;
        if f.tier = 0 then lru prob f
        else begin
          lru prot_any f;
          if not f.ref_bit then lru prot_clear f
        end
      end)
    s.frames;
  let from_probation () =
    match !prob with
    | Some p ->
      (* Plain LRU would have taken [!overall]; if that is an older
         protected frame, scan resistance just saved a hot page. *)
      (match !overall with
      | Some o when o != p && o.tier = 1 -> Metrics.incr m_scan_saved
      | _ -> ());
      Some p
    | None -> None
  in
  let from_protected () =
    match !prot_clear with
    | Some _ as v -> v
    | None ->
      (* Every eligible protected frame was referenced since the last
         sweep: spend their second chance and fall back to LRU over the
         tier. *)
      List.iter (fun f -> if f.tier = 1 then f.ref_bit <- false) s.frames;
      !prot_any
  in
  (* Probation first, always — that is the whole of scan resistance. The
     ghost list (above) is what keeps this from starving promotion. *)
  match from_probation () with Some _ as v -> v | None -> from_protected ()

let note_io t =
  if Latch.held_by_self () > 0 then begin
    Atomic.incr t.io_latched;
    Metrics.incr m_latched_io
  end

(* Write a dirty victim image back, honoring the WAL rule. Called without
   the shard mutex; the frame is protected by its [loading] flag (eviction)
   or a pin (flush). *)
let write_back t origin pid image =
  Metrics.incr m_writebacks;
  (match origin with
  | Fg ->
    Atomic.incr t.fg_wb;
    Metrics.incr m_fg_writebacks
  | Bg ->
    Atomic.incr t.bg_wb;
    Metrics.incr m_bg_writebacks);
  t.force_log (header_lsn image);
  Disk.write t.disk pid image

(* Fill a brand-new frame for [pid] (shard mutex held on entry; released
   around the disk read). May push the shard past capacity — the caller
   decides that (overflow for latched allocations). On an I/O exception
   (fault injection) the half-built frame is unregistered so concurrent
   pins of [pid] retry instead of waiting on [loading] forever. *)
let fault_in ?(prefetched = false) t s pid ~read_from_disk =
  (* A ghost hit is the page's second recent reference: install it
     protected. Prefetched pages never take this shortcut — a prefetch is
     the pool's guess, not the workload's reference. *)
  let promote = (not prefetched) && ghost_take s pid in
  let f =
    {
      pid;
      image = Bytes.make (Disk.page_size t.disk) '\000';
      dirty = false;
      rec_lsn = -1L;
      dirty_epoch = 0;
      pin_count = 1;
      loading = true;
      last_used = 0;
      tier = (if promote then 1 else 0);
      ref_bit = promote;
      prefetched;
      frame_latch = Latch.create ();
      cached = None;
      cached_lsn = -1L;
      cache_on = t.node_cache;
    }
  in
  Latch.set_id f.frame_latch (Page_id.to_int pid);
  touch t f;
  s.frames <- f :: s.frames;
  s.n_frames <- s.n_frames + 1;
  Hashtbl.replace s.table (Page_id.to_int pid) f;
  Mutex.unlock s.mutex;
  (match
     if read_from_disk then begin
       note_io t;
       f.image <- Disk.read t.disk pid
     end
   with
  | () ->
    Mutex.lock s.mutex;
    f.loading <- false;
    Condition.broadcast s.changed;
    Mutex.unlock s.mutex
  | exception e ->
    Mutex.lock s.mutex;
    Hashtbl.remove s.table (Page_id.to_int pid);
    s.frames <- List.filter (fun g -> g != f) s.frames;
    s.n_frames <- s.n_frames - 1;
    Condition.broadcast s.changed;
    Mutex.unlock s.mutex;
    raise e);
  f

(* Recycle [victim] (unpinned, non-loading; shard mutex held on entry) to
   hold [pid], returning it pinned. Phase 1 writes the dirty old image back
   while the frame is still registered under its old id in [loading] state —
   a concurrent pin of the old page waits instead of re-reading stale disk
   content before the write-back lands. The new id is claimed immediately
   (same frame, also loading) so a racing pin of it cannot create a
   duplicate frame. On an I/O exception the frame is dropped wholesale:
   concurrent waiters retry and fault in from disk. *)
let recycle_victim t s victim pid ~read_from_disk ~origin =
  Atomic.incr t.evictions;
  Metrics.incr m_evictions;
  if Trace.enabled () then
    Trace.emit (Trace.Bp_evict { page = Page_id.to_int victim.pid; dirty = victim.dirty });
  let old_pid = victim.pid in
  let old_dirty = victim.dirty in
  let old_image = victim.image in
  (* A prefetched frame that dies before its demand touch leaves no ghost:
     its one "reference" was the pool's guess, not the workload's, and
     ghosting it would let a streaming scan promote its whole footprint
     through the evict-then-demand-fault path. *)
  if victim.tier = 0 && not victim.prefetched then ghost_add s old_pid;
  let promote = ghost_take s pid in
  victim.loading <- true;
  victim.pin_count <- 1;
  Hashtbl.replace s.table (Page_id.to_int pid) victim;
  Mutex.unlock s.mutex;
  let drop e =
    Mutex.lock s.mutex;
    (match Hashtbl.find_opt s.table (Page_id.to_int pid) with
    | Some f when f == victim -> Hashtbl.remove s.table (Page_id.to_int pid)
    | _ -> ());
    (match Hashtbl.find_opt s.table (Page_id.to_int old_pid) with
    | Some f when f == victim -> Hashtbl.remove s.table (Page_id.to_int old_pid)
    | _ -> ());
    s.frames <- List.filter (fun f -> f != victim) s.frames;
    s.n_frames <- s.n_frames - 1;
    Condition.broadcast s.changed;
    Mutex.unlock s.mutex;
    raise e
  in
  match
    if old_dirty then begin
      note_io t;
      write_back t origin old_pid old_image
    end;
    (* Phase 2: rebind the frame to the new page id. *)
    Mutex.lock s.mutex;
    Hashtbl.remove s.table (Page_id.to_int old_pid);
    victim.pid <- pid;
    Latch.set_id victim.frame_latch (Page_id.to_int pid);
    victim.dirty <- false;
    victim.rec_lsn <- -1L;
    victim.tier <- (if promote then 1 else 0);
    victim.ref_bit <- promote;
    victim.prefetched <- false;
    invalidate_cache victim;
    victim.image <- Bytes.make (Disk.page_size t.disk) '\000';
    touch t victim;
    Hashtbl.replace s.table (Page_id.to_int pid) victim;
    Condition.broadcast s.changed;
    Mutex.unlock s.mutex;
    if read_from_disk then begin
      note_io t;
      victim.image <- Disk.read t.disk pid
    end;
    Mutex.lock s.mutex;
    victim.loading <- false;
    Condition.broadcast s.changed;
    Mutex.unlock s.mutex
  with
  | () -> victim
  | exception e -> drop e

(* Pay back one overflow frame: evict-and-drop an unpinned victim so the
   shard shrinks toward capacity. Only called with no latches held. A live
   background writer makes this clean-only — when every victim is dirty
   the writer is woken instead of paying the write-back here. *)
let shrink_overflow t s =
  Mutex.lock s.mutex;
  if s.n_frames <= s.capacity then Mutex.unlock s.mutex
  else begin
    let bg_live = t.bg_alive () in
    let victim =
      match find_victim s ~clean_only:true with
      | Some _ as v -> v
      | None -> if bg_live then None else find_victim s ~clean_only:false
    in
    match victim with
    | None ->
      Mutex.unlock s.mutex;
      if bg_live then t.bg_wake ()
    | Some victim ->
      Atomic.incr t.evictions;
      Metrics.incr m_evictions;
      if Trace.enabled () then
        Trace.emit (Trace.Bp_evict { page = Page_id.to_int victim.pid; dirty = victim.dirty });
      (* Same protocol as eviction phase 1: concurrent pins of this page
         wait on [loading] until the write-back lands, then retry, find no
         frame, and fault in from the now-current disk image. *)
      victim.loading <- true;
      victim.pin_count <- 1;
      let vpid = victim.pid and dirty = victim.dirty and image = victim.image in
      if victim.tier = 0 && not victim.prefetched then ghost_add s vpid;
      Mutex.unlock s.mutex;
      if dirty then write_back t Fg vpid image;
      Mutex.lock s.mutex;
      Hashtbl.remove s.table (Page_id.to_int vpid);
      s.frames <- List.filter (fun f -> f != victim) s.frames;
      s.n_frames <- s.n_frames - 1;
      Condition.broadcast s.changed;
      Mutex.unlock s.mutex
  end

let rec pin_general t pid ~read_from_disk =
  let s = shard t pid in
  (* Unsynchronized peek: stale reads only delay or duplicate the shrink
     attempt, and [shrink_overflow] rechecks under the mutex. *)
  if s.n_frames > s.capacity && Latch.held_by_self () = 0 then shrink_overflow t s;
  Mutex.lock s.mutex;
  match Hashtbl.find_opt s.table (Page_id.to_int pid) with
  | Some f when f.loading ->
    Condition.wait s.changed s.mutex;
    Mutex.unlock s.mutex;
    pin_general t pid ~read_from_disk
  | Some f ->
    f.pin_count <- f.pin_count + 1;
    let prev_used = f.last_used in
    touch t f;
    if f.prefetched then begin
      (* First demand touch of a prefetched page: count the hit, but the
         page stays probationary — a prefetch must not be able to promote
         pages the workload never re-references. *)
      f.prefetched <- false;
      Metrics.incr m_prefetch_hit
    end
    else begin
      (* Correlated-reference filter on promotion: the pin bursts of one
         logical visit (descend, read, re-pin under split retry — or a
         leaf absorbing a run of sequential inserts) are ONE access, not
         evidence of reuse. A probationary page earns the protected tier
         only when re-pinned after at least a shard's worth of pool
         activity; without the filter every page promotes within its
         first visit and probation is perpetually empty, which is just
         CLOCK over one tier wearing a 2Q costume. *)
      if f.tier = 0 then begin
        if f.last_used - prev_used > s.capacity then begin
          f.tier <- 1;
          f.ref_bit <- true
        end
      end
      else f.ref_bit <- true
    end;
    Mutex.unlock s.mutex;
    Atomic.incr t.hits;
    Metrics.incr m_hits;
    if Trace.enabled () then Trace.emit (Trace.Bp_hit { page = Page_id.to_int pid });
    f
  | None ->
    Atomic.incr t.misses;
    Metrics.incr m_misses;
    if Trace.enabled () then Trace.emit (Trace.Bp_miss { page = Page_id.to_int pid });
    if s.n_frames < s.capacity then fault_in t s pid ~read_from_disk
    else begin
      (* A latched caller allocating a fresh page (split/root-grow sibling)
         must not evict a dirty victim: the write-back would be an I/O
         under latch, exactly what claim C1 forbids. Prefer a clean victim
         (recycling is I/O-free since there is nothing to read either);
         failing that, overflow capacity — bounded at 2x without a
         background writer, so a client that never releases its latches
         (the coarse baseline) cannot balloon the pool — and let a later
         unlatched pin shrink the shard back. Past the bound, dirty
         eviction is the last resort and the I/O is counted against the
         invariant, as it should be. With a live writer the bound lifts:
         the latched caller overflows unconditionally (waking the writer
         to drain the debt) rather than ever paying a dirty write-back —
         the overflow is transient, repaid by [shrink_overflow] as soon as
         the writer has cleaned a victim.

         An unlatched caller with a live background writer is held to the
         same clean-only discipline: when the reserve runs dry it wakes the
         writer and waits, keeping write-back I/O off the foreground path
         entirely. Latched callers never wait on the writer — the writer
         S-latches frames to flush them, so waiting while holding a latch
         could deadlock against it. *)
      let latched = Latch.held_by_self () > 0 in
      let bg_alive = t.bg_alive () in
      let latched_alloc = (not read_from_disk) && latched in
      let overflow_ok = latched_alloc && (bg_alive || s.n_frames < 2 * s.capacity) in
      let bg_live = (not latched) && bg_alive in
      let victim =
        if latched_alloc then
          match find_victim s ~clean_only:true with
          | Some _ as v -> v
          | None -> if overflow_ok then None else find_victim s ~clean_only:false
        else if bg_live then find_victim s ~clean_only:true
        else find_victim s ~clean_only:false
      in
      match victim with
      | None when overflow_ok ->
        Metrics.incr m_overflow;
        if bg_alive then t.bg_wake ();
        fault_in t s pid ~read_from_disk
      | None ->
        if bg_live then t.bg_wake ();
        Condition.wait s.changed s.mutex;
        Mutex.unlock s.mutex;
        pin_general t pid ~read_from_disk
      | Some victim -> recycle_victim t s victim pid ~read_from_disk ~origin:Fg
    end

let pin t pid = pin_general t pid ~read_from_disk:true

let pin_new t pid = pin_general t pid ~read_from_disk:false

let unpin t f =
  let s = shard t f.pid in
  Mutex.lock s.mutex;
  assert (f.pin_count > 0);
  f.pin_count <- f.pin_count - 1;
  if f.pin_count = 0 then Condition.broadcast s.changed;
  Mutex.unlock s.mutex

let mark_dirty t f ~lsn =
  Bytes.set_int64_le f.image 0 lsn;
  let s = shard t f.pid in
  Mutex.lock s.mutex;
  let first = not f.dirty in
  if first then begin
    f.dirty <- true;
    f.rec_lsn <- lsn
  end;
  f.dirty_epoch <- f.dirty_epoch + 1;
  Mutex.unlock s.mutex;
  (* Full-page write (torn-write protection): the first time a page
     becomes dirty, log its complete post-modification image. Restart can
     then repair a page a torn disk write destroyed by reinstalling the
     image and redoing forward from it. The caller holds the page's X
     latch, so the image is stable; the image's header carries [lsn], and
     stamping the live header with the FPW record's own (higher) LSN means
     the WAL rule — write-back forces up to the header LSN — makes the
     image durable before any disk write of this dirty epoch can tear. *)
  if first && t.fpw_on then
    match t.log_page_image with
    | None -> ()
    | Some fpw -> Bytes.set_int64_le f.image 0 (fpw f.pid (Bytes.copy f.image))

let set_fpw t on = t.fpw_on <- on

(* Latch a pinned [frame], run [f], then unlatch and unpin — also when [f]
   raises, so no exception can strand a latch or a pin. *)
let latched t frame mode f =
  let finish v_or_exn =
    Latch.release frame.frame_latch mode;
    unpin t frame;
    match v_or_exn with Ok v -> v | Error e -> raise e
  in
  Latch.acquire frame.frame_latch mode;
  match f frame with v -> finish (Ok v) | exception e -> finish (Error e)

let with_page t pid mode f = latched t (pin t pid) mode f

let with_new_page t pid f = latched t (pin_new t pid) Latch.X f

(* Flush one frame without holding the shard mutex — or any latch — across
   the I/O. The frame is pinned for the duration, so it cannot be recycled
   under the flush; the S latch is held only while copying the image. The
   dirty epoch read before the copy detects a concurrent re-dirtying: a
   frame modified after our snapshot stays dirty (the write we issued is a
   safe-but-stale older version; the newer epoch will be flushed later).
   Returns [true] if a write was issued. *)
let flush_frame_guarded t s f ~origin =
  Mutex.lock s.mutex;
  if f.loading || not f.dirty then begin
    Mutex.unlock s.mutex;
    false
  end
  else begin
    f.pin_count <- f.pin_count + 1;
    let epoch = f.dirty_epoch in
    let pid = f.pid in
    Mutex.unlock s.mutex;
    let unpin_locked () =
      f.pin_count <- f.pin_count - 1;
      if f.pin_count = 0 then Condition.broadcast s.changed
    in
    match
      Latch.acquire f.frame_latch S;
      let image = Bytes.copy f.image in
      Latch.release f.frame_latch S;
      write_back t origin pid image
    with
    | () ->
      Mutex.lock s.mutex;
      if f.dirty_epoch = epoch then begin
        f.dirty <- false;
        f.rec_lsn <- -1L
      end;
      unpin_locked ();
      Mutex.unlock s.mutex;
      true
    | exception e ->
      Mutex.lock s.mutex;
      unpin_locked ();
      Mutex.unlock s.mutex;
      raise e
  end

let flush_page t pid =
  let s = shard t pid in
  Mutex.lock s.mutex;
  let f = Hashtbl.find_opt s.table (Page_id.to_int pid) in
  Mutex.unlock s.mutex;
  match f with
  | Some f -> ignore (flush_frame_guarded t s f ~origin:Bg : bool)
  | None -> ()

let flush_all t =
  Array.iter
    (fun s ->
      Mutex.lock s.mutex;
      let frames = s.frames in
      Mutex.unlock s.mutex;
      List.iter
        (fun f -> if f.dirty then ignore (flush_frame_guarded t s f ~origin:Bg : bool))
        frames)
    t.shards

(* Advance the recovery frontier: flush every dirty frame whose [rec_lsn]
   predates [before] (pinned ones included — the hot pages are exactly the
   ones that never become eviction victims and would otherwise anchor the
   redo span at the start of the log forever). The checkpointer calls this
   with the previous checkpoint's anchor before capturing the next one, so
   the captured dirty-page table never holds a rec_lsn older than one
   interval. A frame re-dirtied mid-flush keeps its old rec_lsn (the
   epoch check in [flush_frame_guarded]) and is retried next interval.
   Same no-mutex/no-latch-across-I/O discipline as every other flush. *)
let flush_aged t ~before =
  let flushed = ref 0 in
  Array.iter
    (fun s ->
      Mutex.lock s.mutex;
      let aged =
        List.filter
          (fun f -> f.dirty && (not f.loading) && f.rec_lsn >= 0L && f.rec_lsn < before)
          s.frames
      in
      Mutex.unlock s.mutex;
      List.iter (fun f -> if flush_frame_guarded t s f ~origin:Bg then incr flushed) aged)
    t.shards;
  !flushed

(* One background-writer pass: per shard, flush least-recently-used dirty
   unpinned frames until [reserve] clean unpinned victims exist, then wake
   any pin waiting for the reserve. Returns the number of pages written. *)
let bg_flush_pass t ~reserve =
  let flushed = ref 0 in
  let scanned = ref 0 in
  Array.iter
    (fun s ->
      let continue_ = ref true in
      while !continue_ do
        Mutex.lock s.mutex;
        scanned := !scanned + s.n_frames;
        let clean_unpinned = ref 0 in
        let cand = ref None in
        List.iter
          (fun f ->
            if (not f.loading) && f.pin_count = 0 then
              if not f.dirty then incr clean_unpinned
              else
                match !cand with
                | Some b when b.last_used <= f.last_used -> ()
                | _ -> cand := Some f)
          s.frames;
        match if !clean_unpinned >= reserve then None else !cand with
        | None ->
          Mutex.unlock s.mutex;
          continue_ := false
        | Some f ->
          Mutex.unlock s.mutex;
          if flush_frame_guarded t s f ~origin:Bg then incr flushed else continue_ := false
      done;
      Mutex.lock s.mutex;
      Condition.broadcast s.changed;
      Mutex.unlock s.mutex)
    t.shards;
  if Trace.enabled () && !flushed > 0 then
    Trace.emit (Trace.Bg_flush { pages = !flushed; scanned = !scanned });
  !flushed

(* Read [pid] into the pool ahead of demand, without ever paying a
   write-back or waiting for a frame: resident pages and dirty-only shards
   are left alone. Runs on the background-writer domain (the simulated disk
   is synchronous per-thread, so prefetching from the foreground would
   serialize with the demand reads it is supposed to hide). *)
let try_prefetch t pid =
  if Latch.held_by_self () = 0 && Page_id.to_int pid >= 0 && Page_id.to_int pid < Disk.page_count t.disk
  then begin
    let s = shard t pid in
    Mutex.lock s.mutex;
    match Hashtbl.find_opt s.table (Page_id.to_int pid) with
    | Some _ -> Mutex.unlock s.mutex
    | None ->
      if s.n_frames < s.capacity then begin
        Metrics.incr m_prefetch_issued;
        let f = fault_in ~prefetched:true t s pid ~read_from_disk:true in
        unpin t f
      end
      else begin
        match find_victim s ~clean_only:true with
        | None -> Mutex.unlock s.mutex
        | Some victim ->
          Metrics.incr m_prefetch_issued;
          let f = recycle_victim t s victim pid ~read_from_disk:true ~origin:Bg in
          Mutex.lock s.mutex;
          f.prefetched <- true;
          Mutex.unlock s.mutex;
          unpin t f
      end
  end

let dirty_page_table t =
  Array.to_list t.shards
  |> List.concat_map (fun s ->
         Mutex.lock s.mutex;
         let dpt =
           List.filter_map
             (fun f -> if f.dirty && not f.loading then Some (f.pid, f.rec_lsn) else None)
             s.frames
         in
         Mutex.unlock s.mutex;
         dpt)

let drop_all t =
  Array.iter
    (fun s ->
      Mutex.lock s.mutex;
      List.iter invalidate_cache s.frames;
      Hashtbl.reset s.table;
      s.frames <- [];
      s.n_frames <- 0;
      Condition.broadcast s.changed;
      Mutex.unlock s.mutex)
    t.shards

let hits t = Atomic.get t.hits

let misses t = Atomic.get t.misses

let evictions t = Atomic.get t.evictions

let fg_writebacks t = Atomic.get t.fg_wb

let bg_writebacks t = Atomic.get t.bg_wb

let io_while_latched t = Atomic.get t.io_latched

let reset_stats t =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.evictions 0;
  Atomic.set t.fg_wb 0;
  Atomic.set t.bg_wb 0;
  Atomic.set t.io_latched 0
