(** Hand-written Spark reference implementations (§7.2).

    The paper hired Spark developers through UpWork to rewrite the
    non-SQL benchmarks (Appendix E.2 lists the hiring bar). These plans
    play that role: idiomatic single-pass implementations, including the
    one case where the human beat Casper by exploiting domain knowledge
    — the 3D Histogram developer knew RGB values are bounded by 256·3
    and used Spark's [aggregate] with a fixed-size array, avoiding the
    per-key shuffle Casper generates. *)

module Value = Casper_common.Value
module Plan = Mapreduce.Plan

let add_f a b = Value.Float (Value.as_float a +. Value.as_float b)
let add_i a b = Value.Int (Value.as_int a + Value.as_int b)

(** WordCount: the canonical mapToPair + reduceByKey. *)
let word_count : Plan.t =
  Plan.(
    data "words"
    |>> map_to_pair ~label:"mapToPair" (fun w -> (w, Value.Int 1))
    |>> reduce_by_key ~label:"reduceByKey(+)" add_i)

(** StringMatch: emit only on match (the paper's efficient encoding). *)
let string_match ~key1 ~key2 : Plan.t =
  Plan.(
    data "words"
    |>> flat_map ~label:"flatMapToPair (on match)" (fun w ->
            let hits = ref [] in
            if Value.equal w key1 then
              hits := Value.Tuple [ key1; Value.Bool true ] :: !hits;
            if Value.equal w key2 then
              hits := Value.Tuple [ key2; Value.Bool true ] :: !hits;
            !hits)
    |>> reduce_by_key ~label:"reduceByKey(||)" (fun a b ->
            Value.Bool (Value.as_bool a || Value.as_bool b)))

(** Linear regression: one pass folding the five sums as a tuple. *)
let linear_regression : Plan.t =
  Plan.(
    data "points"
    |>> map ~label:"map to sums tuple" (fun p ->
            let x = Value.as_float (Value.field "x" p) in
            let y = Value.as_float (Value.field "y" p) in
            Value.Tuple
              [
                Value.Float x;
                Value.Float y;
                Value.Float (x *. x);
                Value.Float (y *. y);
                Value.Float (x *. y);
              ])
    |>> global_reduce ~label:"reduce (tuple sum)" (fun a b ->
            match (a, b) with
            | Value.Tuple xs, Value.Tuple ys ->
                Value.Tuple (List.map2 add_f xs ys)
            | _ -> a))

(** 3D Histogram via the developer's [aggregate] trick: each partition
    folds into a bounded 768-slot array, only the per-partition arrays
    are combined — modeled as a map stage emitting per-partition
    pre-combined entries and a cheap keyed merge. *)
let histogram_aggregate : Plan.t =
  Plan.(
    data "pixels"
    |>> flat_map ~label:"aggregate (768-bin partials)" (fun p ->
            let c name = Value.as_int (Value.field name p) in
            [
              Value.Tuple [ Value.Int (c "r"); Value.Int 1 ];
              Value.Tuple [ Value.Int (c "g" + 256); Value.Int 1 ];
              Value.Tuple [ Value.Int (c "b" + 512); Value.Int 1 ];
            ])
    |>> reduce_by_key ~label:"combine partials" add_i)

(** Wikipedia page count: classic keyed sum. *)
let wikipedia_pagecount : Plan.t =
  Plan.(
    data "log"
    |>> map_to_pair ~label:"mapToPair" (fun v ->
            (Value.field "page" v, Value.field "views" v))
    |>> reduce_by_key ~label:"reduceByKey(+)" add_i)

(** Anscombe transform: a pure map. *)
let anscombe : Plan.t =
  Plan.(
    data "pa"
    |>> map ~label:"map anscombe" (fun v ->
            Value.Float (2.0 *. sqrt (Value.as_float v +. 0.375))))
