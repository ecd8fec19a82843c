(** Batch-equivalence properties for the array-backed engine data plane:
    every batched stage must produce the same output as the reference
    list semantics, and the final stage's volume accounting — fused
    into the producing loop — must equal the output's own count and
    byte size; a map fused with the shuffle after it must account both
    stages as the list semantics do. *)

module Plan = Mapreduce.Plan
module Engine = Mapreduce.Engine
module Cluster = Mapreduce.Cluster
module Value = Casper_common.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_batched plan datasets =
  Engine.run_plan ~config:Testenv.config ~cluster:Cluster.spark ~datasets plan

(* the run agrees with [expected] structurally, and its last stage
   accounts exactly the records and bytes it produced *)
let agrees plan datasets expected =
  let r = run_batched plan datasets in
  r.Engine.output = expected
  &&
  match List.rev r.Engine.stages with
  | [] -> false
  | last :: _ ->
      last.Engine.records_out = List.length expected
      && last.Engine.bytes_out = Value.size_of_list expected

(* ---------------- reference list semantics ---------------- *)

let as_kv = function
  | Value.Tuple [ k; v ] -> (k, v)
  | _ -> assert false

(* group under [Value.equal] with per-key arrival order, the first
   arrival as the key, output in ascending [Value.compare] order of the
   keys — the documented semantics of the batched grouped stages *)
let ref_group (pairs : (Value.t * Value.t) list) :
    (Value.t * Value.t list) list =
  List.fold_left
    (fun groups (k, v) ->
      if List.exists (fun (k', _) -> Value.equal k k') groups then
        List.map
          (fun (k', vs) -> if Value.equal k k' then (k', v :: vs) else (k', vs))
          groups
      else (k, [ v ]) :: groups)
    [] pairs
  |> List.map (fun (k, vs) -> (k, List.rev vs))
  |> List.sort (fun (a, _) (b, _) -> Value.compare a b)

let ref_reduce_by_key f records =
  ref_group (List.map as_kv records)
  |> List.map (fun (k, vs) ->
         match vs with
         | [] -> assert false
         | v0 :: rest -> Value.Tuple [ k; List.fold_left f v0 rest ])

let ref_group_by_key records =
  ref_group (List.map as_kv records)
  |> List.map (fun (k, vs) -> Value.Tuple [ k; Value.List vs ])

let ref_global_reduce f = function
  | [] -> []
  | v0 :: rest -> [ List.fold_left f v0 rest ]

(* ---------------- generators ---------------- *)

(* deterministic per-record functions with branching on the value *)
let fm v =
  if Value.size_of v mod 2 = 0 then [ v; Value.Int (Value.size_of v) ]
  else []

let pred v = Value.size_of v mod 3 <> 0
let mv v = Value.Tuple [ v; Value.Int (Value.size_of v) ]

(* a non-commutative combiner: any reordering or re-association the
   engine might sneak in changes the result structurally *)
let combine a b = Value.Tuple [ a; b ]

let key_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_bound 5);
        map (fun i -> Value.Str (String.make 1 (Char.chr (97 + i))))
          (int_bound 3);
      ])

let bag_arb =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map Value.to_string l))
    QCheck.Gen.(list_size (int_bound 60) Test_common.value_gen)

let kv_bag_arb =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map Value.to_string l))
    QCheck.Gen.(
      list_size (int_bound 60)
        (map
           (fun (k, v) -> Value.Tuple [ k; v ])
           (pair key_gen Test_common.value_gen)))

let mk_prop name arb plan_of expected_of =
  QCheck.Test.make ~name ~count:20 arb (fun records ->
      agrees (plan_of ()) [ ("d", records) ] (expected_of records))

(* ---------------- stage properties ---------------- *)

let prop_flat_map =
  mk_prop "flatMap = list semantics and accounting" bag_arb
    (fun () -> Plan.(data "d" |>> flat_map fm))
    (List.concat_map fm)

let prop_filter =
  mk_prop "filter = list semantics" bag_arb
    (fun () -> Plan.(data "d" |>> filter pred))
    (List.filter pred)

let prop_map_values =
  mk_prop "mapValues = list semantics" kv_bag_arb
    (fun () -> Plan.(data "d" |>> map_values mv))
    (List.map (fun r ->
         let k, v = as_kv r in
         Value.Tuple [ k; mv v ]))

let prop_reduce_by_key =
  mk_prop "reduceByKey = hash-group + key sort" kv_bag_arb
    (fun () -> Plan.(data "d" |>> reduce_by_key combine))
    (ref_reduce_by_key combine)

let prop_reduce_by_key_no_ca =
  mk_prop "reduceByKey (no combiner) = hash-group + key sort" kv_bag_arb
    (fun () -> Plan.(data "d" |>> reduce_by_key ~comm_assoc:false combine))
    (ref_reduce_by_key combine)

let prop_group_by_key =
  mk_prop "groupByKey = hash-group + key sort" kv_bag_arb
    (fun () -> Plan.(data "d" |>> group_by_key ()))
    ref_group_by_key

let prop_global_reduce =
  mk_prop "globalReduce = left fold" bag_arb
    (fun () -> Plan.(data "d" |>> global_reduce combine))
    (ref_global_reduce combine)

let prop_pipeline =
  mk_prop "flatMap |> filter |> reduceByKey pipeline" kv_bag_arb
    (fun () ->
      Plan.(
        data "d" |>> flat_map fm |>> filter pred
        |>> map_to_pair (fun v -> (Value.Int (Value.size_of v mod 4), v))
        |>> reduce_by_key combine))
    (fun records ->
      List.concat_map fm records |> List.filter pred
      |> List.map (fun v ->
             Value.Tuple [ Value.Int (Value.size_of v mod 4); v ])
      |> ref_reduce_by_key combine)

(* a map directly followed by a shuffle runs as one fused pass; every
   stage of the pair, not just the last, must still account exactly
   what the list semantics produce, in memory and under a spill budget *)
let fm_kv v =
  List.map
    (fun x -> Value.Tuple [ Value.Int (Value.size_of x mod 4); x ])
    (fm v)

let prop_fused_accounting =
  QCheck.Test.make ~name:"flatMap |> shuffle: every stage's accounting"
    ~count:20 bag_arb (fun records ->
      let emitted = List.concat_map fm_kv records in
      let pairs =
        [
          (Plan.reduce_by_key combine, ref_reduce_by_key combine emitted);
          ( Plan.reduce_by_key ~comm_assoc:false combine,
            ref_reduce_by_key combine emitted );
          (Plan.group_by_key (), ref_group_by_key emitted);
          (Plan.global_reduce combine, ref_global_reduce combine emitted);
        ]
      in
      let accounts (m : Engine.stage_metrics) ins outs =
        m.Engine.records_in = List.length ins
        && m.Engine.bytes_in = Value.size_of_list ins
        && m.Engine.records_out = List.length outs
        && m.Engine.bytes_out = Value.size_of_list outs
      in
      List.for_all
        (fun (shuffle, expected) ->
          List.for_all
            (fun memory_budget ->
              let r =
                Engine.run_plan
                  ~config:{ Testenv.config with Testenv.Config.memory_budget }
                  ~cluster:Cluster.spark
                  ~datasets:[ ("d", records) ]
                  Plan.(data "d" |>> flat_map fm_kv |>> shuffle)
              in
              r.Engine.output = expected
              &&
              match r.Engine.stages with
              | [ map; grouped ] ->
                  accounts map records emitted
                  && accounts grouped emitted expected
              | _ -> false)
            [ None; Some 64 ])
        pairs)

(* ---------------- edge cases ---------------- *)

let edge_plans =
  [
    ("flatMap", Plan.(data "d" |>> flat_map fm));
    ("filter", Plan.(data "d" |>> filter pred));
    ("mapValues", Plan.(data "d" |>> map_values mv));
    ("reduceByKey", Plan.(data "d" |>> reduce_by_key combine));
    ("groupByKey", Plan.(data "d" |>> group_by_key ()));
    ("globalReduce", Plan.(data "d" |>> global_reduce combine));
  ]

let edge_expected name records =
  match name with
  | "flatMap" -> List.concat_map fm records
  | "filter" -> List.filter pred records
  | "mapValues" ->
      List.map
        (fun r ->
          let k, v = as_kv r in
          Value.Tuple [ k; mv v ])
        records
  | "reduceByKey" -> ref_reduce_by_key combine records
  | "groupByKey" -> ref_group_by_key records
  | "globalReduce" -> ref_global_reduce combine records
  | _ -> assert false

let test_empty_input () =
  List.iter
    (fun (name, plan) ->
      check (name ^ " on empty input") true
        (agrees plan [ ("d", []) ] (edge_expected name [])))
    edge_plans

let test_single_record () =
  let records = [ Value.Tuple [ Value.Int 1; Value.Str "x" ] ] in
  List.iter
    (fun (name, plan) ->
      check (name ^ " on one record") true
        (agrees plan [ ("d", records) ] (edge_expected name records)))
    edge_plans

(* the output of a grouped stage is sorted by [Value.compare] of its keys,
   so key 10 follows key 9 (as a string it would sort after "1") *)
let test_grouped_output_sorted () =
  let records =
    List.map
      (fun i -> Value.Tuple [ Value.Int (10 - i); Value.Int i ])
      (List.init 10 (fun i -> i))
  in
  let r =
    run_batched Plan.(data "d" |>> reduce_by_key combine) [ ("d", records) ]
  in
  let keys = List.map (fun v -> fst (as_kv v)) r.Engine.output in
  check "keys sorted" true
    (keys = List.init 10 (fun i -> Value.Int (i + 1)));
  check_int "all keys present" 10 (List.length keys)

let suite =
  [
    Testenv.qsuite "batch.props"
      [
        prop_flat_map;
        prop_filter;
        prop_map_values;
        prop_reduce_by_key;
        prop_reduce_by_key_no_ca;
        prop_group_by_key;
        prop_global_reduce;
        prop_pipeline;
        prop_fused_accounting;
      ];
    ( "batch.edges",
      [
        Alcotest.test_case "empty input" `Quick test_empty_input;
        Alcotest.test_case "single record" `Quick test_single_record;
        Alcotest.test_case "grouped output key-sorted" `Quick
          test_grouped_output_sorted;
      ] );
  ]
