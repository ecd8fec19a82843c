module F = Casper_analysis.Fragment
module Value = Casper_common.Value
module Plan = Mapreduce.Plan
open Minijava.Ast

type result =
  | Translated of translation
  | Out_of_memory
      (** a rule fired but the plan groups unboundedly; it dies on the
          cluster *)
  | No_rule  (** no rewrite rule matches this loop shape *)

and translation = {
  plans : (string * (Minijava.Interp.env -> Plan.t)) list;
      (** one plan per output variable (MOLD splits jobs per output),
          closed over the entry environment for free variables *)
  zip_preprocess : bool;  (** the zipWithIndex inefficiency *)
  describe : string;
}

(* Does the loop body match "flag |= (elem equals KEY)" for each boolean
   output?  (StringMatch shape.) *)
let flag_scan_rule (frag : F.t) : result option =
  match frag.schema with
  | F.SList { elem; _ } ->
      let bool_outputs =
        List.filter (fun (_, t, _) -> t = TBool) frag.outputs
      in
      if
        List.length bool_outputs = List.length frag.outputs
        && not (List.is_empty bool_outputs)
      then
        (* find, per output, the key variable it is compared against *)
        let key_of out =
          fold_stmts
            ~expr:(fun acc _ -> acc)
            ~stmt:(fun acc s ->
              match s with
              | If
                  ( MethodCall (Var e, "equals", [ Var key ]),
                    [ Assign (LVar v, BoolLit true) ],
                    [] )
                when String.equal e elem && String.equal v out ->
                  Some key
              | _ -> acc)
            None frag.body
        in
        let pairs =
          List.filter_map
            (fun (v, _, _) ->
              Option.map (fun k -> (v, k)) (key_of v))
            frag.outputs
        in
        if List.length pairs = List.length frag.outputs then
          let d = F.primary_dataset frag in
          Some
            (Translated
               {
                 plans =
                   (* one full job per keyword; every record emits *)
                   List.map
                     (fun (out, key) ->
                       ( out,
                         fun entry ->
                           let key_v =
                             match List.assoc_opt key entry with
                             | Some v -> v
                             | None -> Value.Str key
                           in
                           Plan.(
                             data d
                             |>> map_to_pair ~label:"mapToPair (every word)"
                                   (fun w ->
                                     (key_v, Value.Bool (Value.equal w key_v)))
                             |>> reduce_by_key ~label:"reduceByKey(||)"
                                   (fun a b ->
                                     Value.Bool
                                       (Value.as_bool a || Value.as_bool b)))
                       ))
                     pairs;
                 zip_preprocess = false;
                 describe =
                   "per-keyword jobs, one emit per input word";
               })
        else None
      else None
  | _ -> None

(* "map.put(key, map.getOrDefault(key, 0) + expr)" — WordCount shape *)
let counter_map_rule (frag : F.t) : result option =
  match (frag.schema, frag.outputs) with
  | F.SList _, [ (_out, TMap _, _) ] ->
      let d = F.primary_dataset frag in
      Some
        (Translated
           {
             plans =
               [
                 ( _out,
                   fun _ ->
                     Plan.(
                       data d
                       |>> map_to_pair ~label:"mapToPair" (fun w ->
                               (w, Value.Int 1))
                       |>> reduce_by_key ~label:"reduceByKey(+)" (fun a b ->
                               Value.Int (Value.as_int a + Value.as_int b)))
                 );
               ];
             zip_preprocess = false;
             describe = "mapToPair + reduceByKey";
           })
  | _ -> None

(* numeric accumulations over indexed arrays / record lists — MOLD's
   array-to-RDD conversion zips every element with its index first *)
let numeric_acc_rule (frag : F.t) : result option =
  let scalar_numeric =
    List.for_all
      (fun (_, t, _) -> match t with TInt | TLong | TFloat -> true | _ -> false)
      frag.outputs
    && not (List.is_empty frag.outputs)
  in
  match frag.schema with
  | (F.SArrays _ | F.SList _) when scalar_numeric ->
      let d = F.primary_dataset frag in
      let outs = List.map (fun (v, _, _) -> v) frag.outputs in
      Some
        (Translated
           {
             plans =
               [
                 ( String.concat "," outs,
                   fun _ ->
                   Plan.(
                     data d
                     (* zipWithIndex: (index, element) pairs double the
                        volume before the real map *)
                     |>> flat_map ~label:"zipWithIndex"
                           (let i = ref (-1) in
                            fun e ->
                              incr i;
                              [ Value.Tuple [ Value.Int !i; e ] ])
                     |>> flat_map ~label:"flatMapToPair (per output)"
                           (fun r ->
                             let e =
                               match r with
                               | Value.Tuple [ _; e ] -> e
                               | e -> e
                             in
                             let payload =
                               (* the numeric value MOLD's emit carries *)
                               match e with
                               | Value.Int _ | Value.Float _ -> e
                               | Value.Struct (_, (_, v) :: _) -> v
                               | _ -> Value.Float 0.0
                             in
                             List.map
                               (fun o ->
                                 Value.Tuple [ Value.Str o; payload ])
                               outs)
                     |>> reduce_by_key ~label:"reduceByKey(+)" (fun a b ->
                             match (a, b) with
                             | Value.Int x, Value.Int y -> Value.Int (x + y)
                             | _ ->
                                 Value.Float
                                   (Value.as_float a +. Value.as_float b)))
                 );
               ];
             zip_preprocess = true;
             describe = "zipWithIndex preprocessing + per-output emits";
           })
  | _ -> None

(* keyed collection outputs: MOLD groups all updates per key on the
   driver — correct on a multicore, OOM at cluster scale *)
let group_all_rule (frag : F.t) : result option =
  match frag.outputs with
  | [ (_, (TArray _ | TMap _), _) ] -> Some Out_of_memory
  | _ -> None

let rules = [ flag_scan_rule; counter_map_rule; numeric_acc_rule; group_all_rule ]

let translate_fragment (frag : F.t) : result =
  if frag.unsupported <> None then No_rule
  else
    let rec go = function
      | [] -> No_rule
      | r :: rest -> ( match r frag with Some res -> res | None -> go rest)
    in
    go rules
