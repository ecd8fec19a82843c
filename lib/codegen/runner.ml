(** Running translated fragments on the simulated cluster, end to end:
    convert the live inputs into records (the generated glue code's
    RDD/DataSet conversion), execute the compiled plan, rebuild the
    output variables, and report the engine's volume metrics and the
    modeled wall-clock. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Value = Casper_common.Value
module Vc = Casper_vcgen.Vc

type result = {
  outputs : (string * Value.t) list;
  run : Mapreduce.Engine.run;
  time_s : float;
}

(** Datasets of a fragment at an entry state, in record form. *)
let datasets_of (prog : Minijava.Ast.program) (frag : F.t)
    (entry : Minijava.Interp.env) : (string * Value.t list) list =
  Vc.datasets_at prog frag entry (Vc.outer_count prog frag entry)

(** Execute one verified summary for [frag] on [cluster]. [scale] maps
    the in-memory sample to the nominal workload size. *)
let run_summary ?config ~(cluster : Mapreduce.Cluster.t) ~(scale : float)
    (prog : Minijava.Ast.program) (frag : F.t)
    (entry : Minijava.Interp.env) (s : Ir.summary) : result =
  let translated = Compile.compile prog frag entry s in
  let datasets = datasets_of prog frag entry in
  let run =
    Mapreduce.Engine.run_plan ?config ~cluster ~datasets translated.plan
  in
  {
    outputs = translated.read_outputs run.output;
    run;
    time_s = Mapreduce.Engine.simulate_time ~cluster ~scale run;
  }

(** Execute the sequential original on the same entry state; returns the
    final outputs and the modeled single-core wall-clock. *)
let run_sequential ~(scale : float) ?(passes = 1)
    (prog : Minijava.Ast.program) (frag : F.t) (entry : Minijava.Interp.env)
    : (string * Value.t) list * float =
  let final = Minijava.Interp.run_stmts prog entry [ frag.loop ] in
  let outputs =
    List.map (fun (v, _, _) -> (v, List.assoc v final)) frag.outputs
  in
  let datasets = datasets_of prog frag entry in
  let records =
    List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 datasets
  in
  let bytes =
    List.fold_left (fun acc (_, rs) -> acc + Value.size_of_list rs) 0 datasets
  in
  ( outputs,
    Mapreduce.Engine.sequential_time ~scale ~passes ~records ~bytes () )

(** Correctness cross-check: does the translated plan produce the same
    outputs as the sequential original on this state? *)
let outputs_agree (frag : F.t) (seq : (string * Value.t) list)
    (mr : (string * Value.t) list) : bool =
  List.for_all
    (fun (v, _, kind) ->
      match (List.assoc_opt v seq, List.assoc_opt v mr) with
      | Some a, Some b ->
          let canon = Vc.canon_output kind in
          Value.equal_approx (canon a) (canon b)
      | _ -> false)
    frag.outputs
