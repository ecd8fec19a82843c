module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Eval = Casper_ir.Eval
module Value = Casper_common.Value
module Plan = Mapreduce.Plan

exception Codegen_error of string

let err fmt = Fmt.kstr (fun s -> raise (Codegen_error s)) fmt

(** Compile a pipeline node to a plan. λm and λr are staged once per
    plan ([Eval.push_lam_m], which pushes each emit to the next stage as
    it fires, and [Eval.apply_lam_r]). [env] carries the fragment's free
    scalars (Casper broadcasts these in the generated glue code). *)
let rec compile_node (env : Eval.env) (tenv : Casper_ir.Infer.tenv)
    (record_ty : string -> Ir.ty) (n : Ir.node) : Plan.t =
  match n with
  | Ir.Data d -> Plan.data d
  | Ir.Map (src, lm) ->
      let open Plan in
      compile_node env tenv record_ty src
      |>> Flat_map { label = "flatMapToPair"; f = Eval.push_lam_m env lm }
  | Ir.Reduce (src, lr) ->
      let open Plan in
      let plan = compile_node env tenv record_ty src in
      let f = Eval.apply_lam_r env lr in
      let keyed =
        match Casper_ir.Infer.infer_node tenv record_ty src with
        | `KVs _ -> true
        | _ -> false
        | exception Casper_ir.Infer.Ill_typed _ -> true
      in
      let ca = Casper_cost.Cost.reduce_comm_assoc tenv record_ty src lr in
      if keyed then
        if ca then plan |>> reduce_by_key ~comm_assoc:true f
        else
          (* safe translation: group, then fold each group sequentially *)
          plan
          |>> group_by_key ~label:"groupByKey" ()
          |>> map_values ~label:"foldValues" (fun v ->
                  match v with
                  | Value.List (v0 :: rest) -> List.fold_left f v0 rest
                  | Value.List [] -> err "empty group"
                  | _ -> err "groupByKey produced non-list")
      else plan |>> global_reduce ~comm_assoc:ca f
  | Ir.Join (a, b) ->
      let open Plan in
      compile_node env tenv record_ty a
      |>> join_with (compile_node env tenv record_ty b)

(** Rebuild the fragment's output variables from a plan's output records
    by {!Casper_ir.Eval.extract_binding}, the reader verification uses:
    a [Proj] binding reads the records as values, any other binding as
    key-value pairs. *)
let read_outputs (s : Ir.summary) (shapes : (string * Eval.out_shape) list)
    (init : Eval.env) (output : Value.t list) : (string * Value.t) list =
  let pairs =
    lazy
      (Eval.Pairs
         (List.map
            (function
              | Value.Tuple [ k; v ] -> (k, v)
              | v -> err "expected key-value output, got %a" Value.pp v)
            output))
  in
  List.map
    (fun ((var, ex) as b) ->
      let bag =
        match ex with
        | Ir.Proj _ -> Eval.Vals output
        | Ir.AtKey _ | Ir.Whole -> Lazy.force pairs
      in
      match Eval.extract_binding bag init shapes b with
      | v -> (var, v)
      | exception Eval.Eval_error m -> err "%s" m)
    s.Ir.bindings

type translated = {
  plan : Plan.t;
  summary : Ir.summary;
  read_outputs : Value.t list -> (string * Value.t) list;
}

let compile (prog : Minijava.Ast.program) (frag : F.t) (entry : Eval.env)
    (s : Ir.summary) : translated =
  let tenv = Casper_synth.Cegis.tenv_of_frag prog frag in
  let record_ty = Casper_synth.Lift.record_ty_of frag in
  let plan = compile_node entry tenv record_ty s.Ir.pipeline in
  let shapes = Casper_vcgen.Vc.shapes_of frag in
  {
    plan;
    summary = s;
    read_outputs = read_outputs s shapes entry;
  }
