module Value = Casper_common.Value
module Plan = Mapreduce.Plan
module Engine = Mapreduce.Engine

let add_f a b = Value.Float (Value.as_float a +. Value.as_float b)

(** One PageRank iteration with cached, co-partitioned links: the
    contributions shuffle only moves the (page, contribution) pairs —
    the edge records themselves stay put. *)
let pagerank_iteration : Plan.t =
  Plan.(
    data "edges"
    |>> map_to_pair ~label:"contribs (co-partitioned)" (fun e ->
            ( Value.field "dst" e,
              Value.Float
                (Value.as_float (Value.field "srcRank" e)
                /. float_of_int (Value.as_int (Value.field "srcOutdeg" e)))
            ))
    |>> reduce_by_key ~label:"reduceByKey(+)" add_f
    |>> map_values ~label:"mapValues rank" (fun c ->
            Value.Float (0.15 +. (0.85 *. Value.as_float c))))

let pagerank_time ~cluster ~scale ~iters
    (datasets : (string * Value.t list) list) : float =
  let run = Engine.run_plan ~cluster ~datasets pagerank_iteration in
  let one = Engine.simulate_time ~cluster ~scale run in
  let read_once =
    float_of_int run.Engine.input_bytes
    *. scale *. cluster.Mapreduce.Cluster.read_byte_ns *. 1e-9
    /. float_of_int cluster.Mapreduce.Cluster.workers
  in
  (* iterations after the first reuse the cached RDD *)
  one +. (float_of_int (iters - 1) *. (one -. read_once))

(** One logistic-regression gradient iteration (tutorial style). *)
let logreg_iteration ~w0 ~w1 : Plan.t =
  Plan.(
    data "points"
    |>> map ~label:"map gradient" (fun p ->
            let x0 = Value.as_float (Value.field "x0" p) in
            let x1 = Value.as_float (Value.field "x1" p) in
            let label = Value.as_float (Value.field "label" p) in
            let h = 1.0 /. (1.0 +. exp (-.((w0 *. x0) +. (w1 *. x1)))) in
            Value.Tuple
              [ Value.Float ((h -. label) *. x0); Value.Float ((h -. label) *. x1) ])
    |>> global_reduce ~label:"reduce (grad sum)" (fun a b ->
            match (a, b) with
            | Value.Tuple [ a0; a1 ], Value.Tuple [ b0; b1 ] ->
                Value.Tuple [ add_f a0 b0; add_f a1 b1 ]
            | _ -> a))

let logreg_time ~cluster ~scale ~iters
    (datasets : (string * Value.t list) list) : float =
  let run =
    Engine.run_plan ~cluster ~datasets (logreg_iteration ~w0:0.5 ~w1:(-0.3))
  in
  let one = Engine.simulate_time ~cluster ~scale run in
  float_of_int iters *. one
