module Engine = Mapreduce.Engine
module Cluster = Mapreduce.Cluster

type decision = {
  cache : bool;
  reread_cost_s : float;  (** total read time avoided over the run *)
  materialize_cost_s : float;  (** one-time in-memory materialization *)
}

(* caching writes the deserialized partitions to executor memory once;
   charged like one extra pass over the data at memory bandwidth *)
let cache_write_byte_ns = 0.15

let decide ~(cluster : Cluster.t) ~(scale : float) ~(iters : int)
    (run : Engine.run) : decision =
  let w = float_of_int cluster.Cluster.workers in
  let bytes = float_of_int run.Engine.input_bytes *. scale in
  let one_read = bytes *. cluster.Cluster.read_byte_ns *. 1e-9 /. w in
  let reread = float_of_int (max 0 (iters - 1)) *. one_read in
  let materialize = bytes *. cache_write_byte_ns *. 1e-9 /. w in
  { cache = reread > materialize; reread_cost_s = reread;
    materialize_cost_s = materialize }

let iterative_time ~(cluster : Cluster.t) ~(scale : float) ~(iters : int)
    ?(cached = false) (run : Engine.run) : float =
  let one = Engine.simulate_time ~cluster ~scale run in
  if not cached then float_of_int iters *. one
  else
    let w = float_of_int cluster.Cluster.workers in
    let bytes = float_of_int run.Engine.input_bytes *. scale in
    let one_read = bytes *. cluster.Cluster.read_byte_ns *. 1e-9 /. w in
    let materialize = bytes *. cache_write_byte_ns *. 1e-9 /. w in
    (* first iteration reads + materializes; later ones skip the read *)
    one +. materialize
    +. (float_of_int (max 0 (iters - 1)) *. (one -. one_read))

let run_iterative ~cluster ~scale ~iters (run : Engine.run) : float * bool =
  let d = decide ~cluster ~scale ~iters run in
  if d.cache then (iterative_time ~cluster ~scale ~iters ~cached:true run, true)
  else (iterative_time ~cluster ~scale ~iters run, false)
