open Gist_util
module Txn = Gist_txn.Txn_manager

type stats = {
  ops : int;
  aborts : int;
  given_up : int;
  elapsed_s : float;
  throughput : float;
  latency : Stats.Histogram.t;
}

type worker_acc = {
  mutable w_ops : int;
  mutable w_aborts : int;
  mutable w_given_up : int;
  w_lat : Stats.Histogram.t;
}

let max_attempts = 51

let run_txn_ops ~db ~domains ~duration_s ~seed body =
  let txns = db.Gist_core.Db.txns in
  let master = Xoshiro.create seed in
  let streams = Array.init domains (fun _ -> Xoshiro.split master) in
  let start = Clock.now_ns () in
  let deadline_ns = start + int_of_float (duration_s *. 1e9) in
  let accs =
    Array.init domains (fun _ ->
        { w_ops = 0; w_aborts = 0; w_given_up = 0; w_lat = Stats.Histogram.create () })
  in
  let workers =
    List.init domains (fun w ->
        Domain.spawn (fun () ->
            let rng = streams.(w) in
            let acc = accs.(w) in
            (* [true] once an attempt commits, [false] when it gives up. *)
            let rec attempt n =
              let txn = Txn.begin_txn txns in
              match body ~worker:w ~rng ~txn with
              | () ->
                Txn.commit txns txn;
                true
              | exception Gist_txn.Lock_manager.Deadlock _ ->
                Txn.abort txns txn;
                acc.w_aborts <- acc.w_aborts + 1;
                n < max_attempts && attempt (n + 1)
            in
            while Clock.now_ns () < deadline_ns do
              let t0 = Clock.now_ns () in
              if attempt 1 then begin
                acc.w_ops <- acc.w_ops + 1;
                Stats.Histogram.add acc.w_lat (Float.of_int (Clock.now_ns () - t0) /. 1e9)
              end
              else acc.w_given_up <- acc.w_given_up + 1
            done))
  in
  List.iter Domain.join workers;
  let elapsed_s = Clock.elapsed_s start in
  let sum f = Array.fold_left (fun n a -> n + f a) 0 accs in
  let ops = sum (fun a -> a.w_ops) in
  let latency =
    Array.fold_left (fun h a -> Stats.Histogram.merge h a.w_lat) (Stats.Histogram.create ()) accs
  in
  {
    ops;
    aborts = sum (fun a -> a.w_aborts);
    given_up = sum (fun a -> a.w_given_up);
    elapsed_s;
    throughput = Float.of_int ops /. elapsed_s;
    latency;
  }
