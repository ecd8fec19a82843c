(** Verification conditions for program summaries (paper §3.3, Figure 4).

    For a fragment that iterates a dataset, Casper synthesizes the loop
    invariant in the standard prefix form

      Inv(σ, i)  ≡  bounds(i) ∧ outputs(σ) = ⟦MR⟧(data[0..i])

    which turns the three Hoare clauses into executable checks:

    - initiation:   outputs at loop entry  = ⟦MR⟧ over the empty prefix
    - continuation: if outputs = ⟦MR⟧(data[0..k]) then after one more
      iteration outputs = ⟦MR⟧(data[0..k+1])
    - termination:  outputs at loop exit = ⟦MR⟧ over all data — the
      program summary itself.

    Because the loop body is deterministic, checking that the outputs
    after executing the loop over every prefix of the data equal the IR
    denotation over that prefix discharges all three clauses for the
    given program state. The bounded and full verifiers quantify over
    states; this module provides the per-state check. *)

module F = Casper_analysis.Fragment
module Value = Casper_common.Value
module Multiset = Casper_common.Multiset
module Ir = Casper_ir.Lang
module Eval = Casper_ir.Eval
open Minijava.Ast

exception Vc_error of string

let err fmt = Fmt.kstr (fun s -> raise (Vc_error s)) fmt

type env = Minijava.Interp.env

(** Run the fragment's preceding statements to establish the entry state
    from a generated parameter environment. *)
let entry_of_params (prog : program) (frag : F.t) (params_env : env) : env =
  Minijava.Interp.run_stmts prog params_env frag.pre

(** Number of outer iteration units in the entry state. *)
let outer_count (prog : program) (frag : F.t) (entry : env) : int =
  match frag.schema with
  | F.SList { data; _ } | F.SJoin { d1 = data; _ } ->
      List.length (Value.as_list (List.assoc data entry))
  | F.SArrays { bound; _ } | F.SMatrix { rows = bound; _ } ->
      Value.as_int (Minijava.Interp.eval_expr prog entry bound)

let take k l = List.filteri (fun i _ -> i < k) l

(** The IR-side datasets of the entry state, truncated to the first [k]
    outer units. Records follow the iteration schema: list elements as
    themselves, counted arrays as (i, a[i], …), matrices as (i, j, v). *)
let datasets_at (prog : program) (frag : F.t) (entry : env) (k : int) :
    (string * Value.t list) list =
  match frag.schema with
  | F.SList { data; _ } ->
      [ (data, take k (Value.as_list (List.assoc data entry))) ]
  | F.SArrays { arrays; _ } ->
      let cols =
        List.map
          (fun (a, _) -> Value.as_list (List.assoc a entry))
          arrays
      in
      let records =
        List.init k (fun i ->
            Value.Tuple
              (Value.Int i
              :: List.map
                   (fun col ->
                     match List.nth_opt col i with
                     | Some v -> v
                     | None -> err "array shorter than iteration bound")
                   cols))
      in
      let primary = match arrays with (a, _) :: _ -> a | [] -> err "no arrays" in
      [ (primary, records) ]
  | F.SMatrix { data; cols; _ } ->
      let m = Value.as_list (List.assoc data entry) in
      let ncols = Value.as_int (Minijava.Interp.eval_expr prog entry cols) in
      let records =
        List.concat
          (List.init k (fun i ->
               let row = Value.as_list (List.nth m i) in
               List.init ncols (fun j ->
                   match List.nth_opt row j with
                   | Some v -> Value.Tuple [ Value.Int i; Value.Int j; v ]
                   | None -> err "matrix row shorter than cols")))
      in
      [ (data, records) ]
  | F.SJoin { d1; d2; _ } ->
      [
        (d1, take k (Value.as_list (List.assoc d1 entry)));
        (d2, Value.as_list (List.assoc d2 entry));
      ]

(** Execute the loop over the first [k] outer units only. *)
let run_prefix (prog : program) (frag : F.t) (entry : env) (k : int) : env =
  let loop =
    match (frag.loop, frag.schema) with
    | ForEach (t, x, Var d, body), (F.SList _ | F.SJoin _) ->
        (* iterate a truncated copy; the body still sees the full dataset
           under its own name *)
        let tmp = "__prefix_" ^ d in
        Block
          [
            Decl (TList t, tmp, None);
            ForEach (t, x, Var tmp, body);
          ]
        |> fun b -> (b, Some (d, tmp))
    | For (init, _, upd, body), (F.SArrays { idx; _ } | F.SMatrix { i = idx; _ })
      ->
        (For (init, Some (Binop (Lt, Var idx, IntLit k)), upd, body), None)
    | While (Binop (Lt, Var idx, _), body), F.SArrays { idx = idx'; _ }
      when String.equal idx idx' ->
        (* counted while-loop: stop after k iterations *)
        (While (Binop (Lt, Var idx, IntLit k), body), None)
    | l, _ -> (l, None)
  in
  match loop with
  | For _ as l, None -> Minijava.Interp.run_stmts prog entry [ l ]
  | Block [ Decl (t, tmp, None); fe ], Some (d, tmp') ->
      assert (String.equal tmp tmp');
      let truncated = Value.List (take k (Value.as_list (List.assoc d entry))) in
      let env = (tmp, truncated) :: entry in
      ignore t;
      Minijava.Interp.run_stmts prog env [ fe ]
  | l, _ -> Minijava.Interp.run_stmts prog entry [ l ]

let shapes_of (frag : F.t) : (string * Eval.out_shape) list =
  List.map
    (fun (v, _, kind) ->
      ( v,
        match kind with
        | F.KScalar -> Eval.Scalar
        | F.KArray -> Eval.Arr
        | F.KMap -> Eval.MapAssoc ))
    frag.outputs

(** Canonicalize a Java [Map] value (bag of key-value tuples) for
    comparison. *)
let canon_output kind (v : Value.t) : Value.t =
  match (kind, v) with
  | F.KMap, Value.List pairs -> Value.List (List.sort Value.compare pairs)
  | _ -> v

type check_result =
  | Holds
  | Fails of { prefix : int; var : string; expected : Value.t; got : Value.t }
  | Ir_error of string  (** the summary itself is not evaluable *)
  | State_skipped of string  (** the sequential code faulted on this state *)

(* first output whose sequential value disagrees with the IR denotation *)
let output_mismatch (frag : F.t) (seq_env : env) (mr_out : Eval.env) :
    (string * Value.t * Value.t) option =
  List.find_map
    (fun (v, _, kind) ->
      let expected = canon_output kind (List.assoc v seq_env) in
      match List.assoc_opt v mr_out with
      | None -> Some (v, expected, Value.Str "<missing>")
      | Some got ->
          let got = canon_output kind got in
          if Value.equal_approx expected got then None
          else Some (v, expected, got))
    frag.outputs

(** Check all three VC clauses of the candidate summary on one entry
    state: compare sequential execution against the IR denotation on
    every prefix of the data (prefix 0 = initiation, successive prefixes
    = continuation, full data = termination). [lr_ran], when given, is
    set by every λr application, as in {!check_prepared}. *)
let check_state ?lr_ran (prog : program) (frag : F.t) (summary : Ir.summary)
    (entry : env) : check_result =
  let shapes = shapes_of frag in
  match outer_count prog frag entry with
  | exception e -> State_skipped (Printexc.to_string e)
  | n -> (
      let apply = Eval.stage_summary ?lr_ran entry shapes summary in
      let rec go k =
        if k > n then Holds
        else
          let seq_env =
            try Some (run_prefix prog frag entry k) with
            | Minijava.Interp.Runtime_error _ -> None
          in
          match seq_env with
          | None -> State_skipped (Fmt.str "sequential fault at prefix %d" k)
          | Some seq_env -> (
              let datasets = datasets_at prog frag entry k in
              match apply datasets entry with
              | exception Eval.Eval_error m -> Ir_error m
              | exception Value.Type_error m -> Ir_error m
              | mr_out -> (
                  match output_mismatch frag seq_env mr_out with
                  | Some (var, expected, got) ->
                      Fails { prefix = k; var; expected; got }
                  | None -> go (k + 1)))
      in
      try go 0 with Vc_error m -> Ir_error m)

(* ------------------------------------------------------------------ *)
(* Prepared states: the candidate-independent work of [check_state].

   [run_prefix] and [datasets_at] depend only on the entry state and the
   prefix length, never on the candidate — yet [check_state] recomputes
   both for every prefix of every state for every candidate, which
   dominates synthesis time. A prepared state computes each prefix once,
   lazily, and [check_prepared] replays [check_state]'s exact semantics
   against the cached cells: laziness preserves exception behaviour (a
   prefix whose sequential execution faults, or whose truncation raises
   [Vc_error], only surfaces if a candidate survives all earlier
   prefixes), and raised exceptions are stored and re-raised so repeated
   checks observe the same outcome. *)

type prefix_cell =
  | PReady of env * (string * Value.t list) list
      (** sequential env after the prefix, and the truncated datasets *)
  | PSeq_fault  (** the sequential code faulted on this prefix *)
  | PRaise of exn  (** any other exception, re-raised at the same point *)

type prepared_state = {
  p_entry : env;
  p_cenv : Casper_ir.Memo.cenv;
      (** [p_entry] wrapped once, keying the memoized emit evaluations *)
  p_shapes : (string * Eval.out_shape) list;
  p_outer : (int, exn) result Lazy.t;
  p_cells : prefix_cell Lazy.t array Lazy.t;
      (** one cell per prefix 0..n when [p_outer] is [Ok n] *)
}

let fp_counters = Casper_ir.Fastpath.counters

let prepare_state (prog : program) (frag : F.t) (entry : env) :
    prepared_state =
  let outer =
    lazy
      (match outer_count prog frag entry with
      | n -> Ok n
      | exception e -> Error e)
  in
  let cells =
    lazy
      (match Lazy.force outer with
      | Error _ -> [||]
      | Ok n ->
          Array.init (n + 1) (fun k ->
              lazy
                (fp_counters.prefix_forced <-
                   fp_counters.prefix_forced + 1;
                 match run_prefix prog frag entry k with
                 | exception Minijava.Interp.Runtime_error _ -> PSeq_fault
                 | exception e -> PRaise e
                 | seq_env -> (
                     match datasets_at prog frag entry k with
                     | datasets -> PReady (seq_env, datasets)
                     | exception e -> PRaise e))))
  in
  {
    p_entry = entry;
    p_cenv = Casper_ir.Memo.wrap entry;
    p_shapes = shapes_of frag;
    p_outer = outer;
    p_cells = cells;
  }

(** [check_state], against a prepared state. Identical outcomes: both
    walk prefixes 0..n in order and stop at the first failure, so a
    cached cell is only ever consulted at the same point the plain check
    would have computed it.

    The flag says whether any λr was applied before the result was
    decided. When it is [false], every summary that differs from this one
    only in its λrs gets the same result on this state: the prefixes up
    to the deciding one produce the same bags for all of them (see
    {!Casper_ir.Memo.stage_summary}). *)
let check_prepared (frag : F.t) (summary : Ir.summary)
    (ps : prepared_state) : check_result * bool =
  let lr_ran = ref false in
  let result =
    match Lazy.force ps.p_outer with
    | Error e -> State_skipped (Printexc.to_string e)
    | Ok n -> (
        let cells = Lazy.force ps.p_cells in
        let apply =
          Casper_ir.Memo.stage_summary ~lr_ran ps.p_cenv ps.p_shapes summary
        in
        let rec go k =
          if k > n then Holds
          else (
            if Lazy.is_val cells.(k) then
              fp_counters.prefix_reused <- fp_counters.prefix_reused + 1;
            match Lazy.force cells.(k) with
            | PSeq_fault ->
                State_skipped (Fmt.str "sequential fault at prefix %d" k)
            | PRaise e -> raise e
            | PReady (seq_env, datasets) -> (
                match apply datasets ps.p_entry with
                | exception Eval.Eval_error m -> Ir_error m
                | exception Value.Type_error m -> Ir_error m
                | mr_out -> (
                    match output_mismatch frag seq_env mr_out with
                    | Some (var, expected, got) ->
                        Fails { prefix = k; var; expected; got }
                    | None -> go (k + 1))))
        in
        try go 0 with Vc_error m -> Ir_error m)
  in
  (result, !lr_ran)

(** Render the symbolic VC clauses for documentation / debugging output
    (the shape of Figure 4(b)). *)
let pp_clauses ppf (frag : F.t) =
  let d = F.primary_dataset frag in
  let outs = String.concat ", " (List.map (fun (v, _, _) -> v) frag.outputs) in
  Fmt.pf ppf
    "@[<v>Inv(%s, i) ≡ 0 <= i <= |%s| ∧ (%s) = ⟦MR⟧(%s[0..i])@,\
     Initiation:   (i = 0) → Inv(%s, i)@,\
     Continuation: Inv(%s, i) ∧ i < |%s| → Inv(step(%s), i+1)@,\
     Termination:  Inv(%s, i) ∧ ¬(i < |%s|) → PS(%s)@]"
    outs d outs d outs outs d outs outs d outs
