(* Unit costs of single layer calls, measured with bechamel (OLS over
   increasing run counts): the building blocks the traced run multiplies
   by per-transaction counts to see how much of a transaction they
   explain. *)

open Bechamel
module B = Gist_ams.Btree_ext
module Lm = Gist_txn.Lock_manager
module Log = Gist_wal.Log_manager
module Pm = Gist_pred.Predicate_manager
module Bp = Gist_storage.Buffer_pool
module Page_id = Gist_storage.Page_id
module Txn_id = Gist_util.Txn_id

(* One S lock + unlock of a record lock, the cost of every record lock a
   search takes. *)
let lock_pair () =
  let locks = Lm.create () in
  let tid = Txn_id.of_int 7 in
  let name = Lm.Record (Keys.rid_of_key 64) in
  Test.make ~name:"lock_pair"
    (Staged.stage (fun () ->
         Lm.lock locks tid name Lm.S;
         Lm.unlock locks tid name))

(* One leaf-entry record appended; the log is replaced every 4096 appends
   so the measurement does not grow memory without bound. *)
let wal_append () =
  let log = ref (Log.create ()) and n = ref 0 in
  let payload =
    Gist_wal.Log_record.Add_leaf_entry
      { page = Page_id.of_int 7; nsn = 42L; entry = "0123456789abcdef"; rid = Keys.rid_of_key 64 }
  in
  Test.make ~name:"wal_append"
    (Staged.stage (fun () ->
         incr n;
         if !n land 4095 = 0 then log := Log.create ();
         ignore (Log.append !log ~txn:(Txn_id.of_int 1) ~prev:0L payload)))

(* Decoding a bulk-loaded leaf page image (what a node-cache miss pays), on
   a pool without the decoded-node cache. Bulk loading fills leaves to 85%
   of the fanout of 64: 54 entries. *)
let node_decode () =
  let entries = 54 in
  let disk = Gist_storage.Disk.create ~page_size:4096 () in
  let pool = Bp.create ~node_cache:false ~capacity:8 ~disk ~force_log:ignore () in
  let frame = Bp.pin_new pool (Page_id.of_int 1) in
  let node = Gist_core.Node.make_leaf ~id:(Page_id.of_int 1) ~bp:(B.range 0 (entries * 64)) in
  for i = 0 to entries - 1 do
    Gist_core.Node.add_leaf_entry node
      {
        Gist_core.Node.le_key = B.key (i * 64);
        le_rid = Keys.rid_of_key (i * 64);
        le_creator = Txn_id.none;
        le_deleter = Txn_id.none;
      }
  done;
  Gist_core.Node.write B.ext node frame;
  Test.make ~name:"node_decode" (Staged.stage (fun () -> ignore (Gist_core.Node.read B.ext frame)))

(* One predicate register + attach + remove cycle, the predicate-manager
   bookkeeping of one search. *)
let pred_cycle () =
  let pm = Pm.create () and i = ref 0 in
  Test.make ~name:"pred_cycle"
    (Staged.stage (fun () ->
         incr i;
         let p = Pm.register pm ~owner:(Txn_id.of_int (!i land 1023)) ~kind:Pm.Scan (B.key !i) in
         Pm.attach pm p (Page_id.of_int (!i land 4095));
         Pm.remove_pred pm p))

(* Nanoseconds per call of each test, by name. *)
let run ~quota_s =
  let tests =
    Test.make_grouped ~name:"micro" ~fmt:"%s/%s"
      [ lock_pair (); wal_append (); node_decode (); pred_cycle () ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota_s) ~stabilize:false () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  List.map
    (fun name ->
      let est =
        match Analyze.OLS.estimates (Hashtbl.find results ("micro/" ^ name)) with
        | Some (e :: _) -> e
        | _ -> Float.nan
      in
      (name, est))
    [ "lock_pair"; "wal_append"; "node_decode"; "pred_cycle" ]
