module F = Casper_analysis.Fragment
module Value = Casper_common.Value
module Ir = Casper_ir.Lang
module Eval = Casper_ir.Eval
open Minijava.Ast

exception Vc_error of string

let err fmt = Fmt.kstr (fun s -> raise (Vc_error s)) fmt

type env = Minijava.Interp.env

let entry_of_params (prog : program) (frag : F.t) (params_env : env) : env =
  Minijava.Interp.run_stmts prog params_env frag.pre

let outer_count (prog : program) (frag : F.t) (entry : env) : int =
  match frag.schema with
  | F.SList { data; _ } | F.SJoin { d1 = data; _ } ->
      List.length (Value.as_list (List.assoc data entry))
  | F.SArrays { bound; _ } | F.SMatrix { rows = bound; _ } ->
      Value.as_int (Minijava.Interp.eval_expr prog entry bound)

let take k l = List.filteri (fun i _ -> i < k) l

(* [grow row k] is the records of the first [k] outer units, [row i]
   being unit [i]'s. Each unit is built once, at the first [k] above it,
   so the records of prefix [k] are physically the first records of
   prefix [k + 1]. [row] is called on 0, 1, 2, … in order; a unit that
   raises is not kept, and is asked for again at the next call. *)
let grow (row : int -> Value.t list) : int -> Value.t list =
  let rows = ref [||] and built = ref 0 in
  fun k ->
    while !built < k do
      let r = row !built in
      if !built = Array.length !rows then
        rows := Array.append !rows (Array.make (max 8 !built) []);
      !rows.(!built) <- r;
      incr built
    done;
    let acc = ref [] in
    for i = k - 1 downto 0 do
      acc := !rows.(i) @ !acc
    done;
    !acc

let datasets_at (prog : program) (frag : F.t) (entry : env) :
    int -> (string * Value.t list) list =
  match frag.schema with
  | F.SList { data; _ } ->
      fun k -> [ (data, take k (Value.as_list (List.assoc data entry))) ]
  | F.SArrays { arrays; _ } ->
      let cols =
        lazy
          (List.map (fun (a, _) -> Value.as_list (List.assoc a entry)) arrays)
      in
      (* the columns from the next unit on *)
      let tails = ref None in
      let records =
        grow (fun i ->
            let ts = Option.value !tails ~default:(Lazy.force cols) in
            let r =
              Value.Tuple
                (Value.Int i
                :: List.map
                     (function
                       | v :: _ -> v
                       | [] -> err "array shorter than iteration bound")
                     ts)
            in
            tails := Some (List.map List.tl ts);
            [ r ])
      in
      fun k ->
        ignore (Lazy.force cols);
        let records = records k in
        let primary =
          match arrays with (a, _) :: _ -> a | [] -> err "no arrays"
        in
        [ (primary, records) ]
  | F.SMatrix { data; cols; _ } ->
      let dims =
        lazy
          (let m = Value.as_list (List.assoc data entry) in
           (m, Value.as_int (Minijava.Interp.eval_expr prog entry cols)))
      in
      (* the rows from the next unit on *)
      let rest = ref None in
      let records =
        grow (fun i ->
            let m, ncols = Lazy.force dims in
            let rs = Option.value !rest ~default:m in
            (* [List.nth m i], walking [m] once over all units *)
            let row =
              Value.as_list (match rs with r :: _ -> r | [] -> failwith "nth")
            in
            let records =
              List.init ncols (fun j ->
                  match List.nth_opt row j with
                  | Some v -> Value.Tuple [ Value.Int i; Value.Int j; v ]
                  | None -> err "matrix row shorter than cols")
            in
            rest := Some (List.tl rs);
            records)
      in
      fun k ->
        ignore (Lazy.force dims);
        [ (data, records k) ]
  | F.SJoin { d1; d2; _ } ->
      fun k ->
        [
          (d1, take k (Value.as_list (List.assoc d1 entry)));
          (d2, Value.as_list (List.assoc d2 entry));
        ]

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

let canon_output kind (v : Value.t) : Value.t =
  match (kind, v) with
  | F.KMap, Value.List pairs -> Value.List (List.sort Value.compare pairs)
  | _ -> v

type check_result =
  | Holds
  | Fails of { prefix : int; var : string }
      (** the first prefix, and on it the first output, that disagree *)
  | Ir_error of string  (** the summary itself is not evaluable *)
  | State_skipped of string  (** the sequential code faulted on this state *)

let output_mismatch (outputs : (string * ty * F.out_kind) list)
    (seq_env : env) (mr_out : Eval.env) : string option =
  List.find_map
    (fun (v, _, kind) ->
      let expected = canon_output kind (List.assoc v seq_env) in
      match List.assoc_opt v mr_out with
      | None -> Some v
      | Some got ->
          if Value.equal_approx expected (canon_output kind got) then None
          else Some v)
    outputs

let check_denotation (prog : program) (frag : F.t) (entry : env)
    (denote : (string * Value.t list) list -> Eval.env) : check_result =
  match outer_count prog frag entry with
  | exception e -> State_skipped (Printexc.to_string e)
  | n -> (
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
              match denote datasets with
              | exception Eval.Eval_error m -> Ir_error m
              | exception Value.Type_error m -> Ir_error m
              | mr_out -> (
                  match output_mismatch frag.outputs seq_env mr_out with
                  | Some var -> Fails { prefix = k; var }
                  | None -> go (k + 1)))
      in
      try go 0 with Vc_error m -> Ir_error m)

let check_state ?lr_ran (prog : program) (frag : F.t) (summary : Ir.summary)
    (entry : env) : check_result =
  let apply = Eval.stage_summary ?lr_ran entry (shapes_of frag) summary in
  check_denotation prog frag entry (fun datasets -> apply datasets entry)

(* ------------------------------------------------------------------ *)
(* Sparse array outputs.

   An array output's IR value is its initial array with the pipeline's
   pairs written over it, and its sequential value on one prefix is
   candidate-independent. So the prepared path never rebuilds the array:
   it keeps the writes ([Sparse]) and compares them against the
   positions where the expected array differs from the initial one
   ([expect]), computed once per prefix. *)

type extracted =
  | Dense of Value.t
  | Sparse of { init : Value.t list; len : int; writes : (int * Value.t) list }

let extract_sparse ~(init_len : string -> Value.t list -> int)
    (result : Eval.bag) (init : Eval.env)
    (shapes : (string * Eval.out_shape) list) (s : Ir.summary) :
    (string * extracted) list =
  List.map
    (fun ((var, ex) as b) ->
      match (ex, result, Eval.shape_of shapes var) with
      | Ir.Whole, Eval.Pairs kvs, Eval.Arr ->
          let l = Value.as_list (Eval.init_value init var) in
          let len = init_len var l in
          let writes =
            List.fold_left
              (fun acc (k, v) -> (Eval.array_pos len k, v) :: acc)
              [] kvs
          in
          (var, Sparse { init = l; len; writes })
      | _ -> (var, Dense (Eval.extract_binding result init shapes b)))
    s.bindings

type expect =
  | Diff of { exp : Value.t array; diff : int list }
      (** the expected array, as long as the initial one, and the
          positions where the two differ under [Value.equal_approx] *)
  | Whole_value of Value.t  (** any other expected value *)

let expect_of (seq_env : env) (init : Eval.env) (var : string) : expect =
  let expected = List.assoc var seq_env in
  match (expected, List.assoc_opt var init) with
  | Value.List el, Some (Value.List il)
    when List.length el = List.length il ->
      let exp = Array.of_list el in
      let diff =
        List.concat
          (List.mapi
             (fun i x -> if Value.equal_approx exp.(i) x then [] else [ i ])
             il)
      in
      Diff { exp; diff }
  | _ -> Whole_value expected

(* the array [init] with [writes] applied equals the expected value [x],
   made by [expect_of] against the same [init] (so a [Diff] is [len]
   long). The newest write to a position is the one in force; a position
   nobody wrote holds its initial value, which equals the expected one
   unless the position is in [diff]. *)
let sparse_equal (x : expect) ~(init : Value.t list) ~len
    ~(writes : (int * Value.t) list) : bool =
  match x with
  | Diff { exp; diff } ->
      let seen = Bytes.make len '\000' in
      List.for_all
        (fun (i, v) ->
          Bytes.get seen i <> '\000'
          || (Bytes.set seen i '\001';
              Value.equal_approx exp.(i) v))
        writes
      && List.for_all (fun i -> Bytes.get seen i <> '\000') diff
  | Whole_value expected ->
      let arr = Array.of_list init in
      List.iter (fun (i, v) -> arr.(i) <- v) (List.rev writes);
      Value.equal_approx expected (Value.List (Array.to_list arr))

let sparse_mismatch (outputs : (string * ty * F.out_kind) list)
    (seq_env : env) (expect : string -> expect)
    (outs : (string * extracted) list) : string option =
  List.find_map
    (fun ((v, _, _) as o) ->
      match List.assoc_opt v outs with
      | Some (Sparse { init; len; writes }) ->
          if sparse_equal (expect v) ~init ~len ~writes then None else Some v
      | Some (Dense got) -> output_mismatch [ o ] seq_env [ (v, got) ]
      | None -> output_mismatch [ o ] seq_env [])
    outputs

(* ------------------------------------------------------------------ *)
(* Prepared states: the candidate-independent work of [check_state].

   [run_prefix] and [datasets_at] depend only on the entry state and the
   prefix length, never on the candidate — yet [check_state] recomputes
   both for every prefix of every state for every candidate, which
   dominates synthesis time. A prepared state computes each prefix once,
   lazily, by resuming the previous prefix's loop ({!seq_steps};
   verify.incremental checks it against [run_prefix]), and
   [check_prepared] replays [check_state]'s exact semantics against the
   cached cells: laziness preserves exception behaviour (a prefix whose
   sequential execution faults, or whose truncation raises [Vc_error],
   only surfaces if a candidate survives all earlier prefixes), and
   raised exceptions are stored and re-raised so repeated checks observe
   the same outcome. *)

type prefix_cell =
  | PReady of {
      seq_env : env;  (** sequential env after the prefix *)
      datasets : (string * Value.t list) list;  (** the truncated datasets *)
      expects : (string * expect Lazy.t) list;
          (** per array output, what it must equal on this prefix *)
    }
  | PSeq_fault  (** the sequential code faulted on this prefix *)
  | PRaise of exn  (** any other exception, re-raised at the same point *)

type prepared_state = {
  p_entry : env;
  p_shapes : (string * Eval.out_shape) list;
  p_init_lens : (string, int) Hashtbl.t;
      (** length of each array output's initial value in [p_entry] *)
  p_outer : (int, exn) result Lazy.t;
  p_cells : prefix_cell Lazy.t array Lazy.t;
      (** one cell per prefix 0..n when [p_outer] is [Ok n] *)
  mutable p_loop_units : int;
      (** outer loop units run for [p_cells]: one per cell resumed from
          its predecessor, which runs at most one *)
}

(* [run_prefix]'s run over one prefix, and the run over the next prefix
   made from it *)
type seq_step = { s_env : env; s_next : unit -> seq_step }

let seq_steps (prog : program) (frag : F.t) (entry : env) :
    unit -> seq_step =
  let module I = Minijava.Interp in
  let step (p : I.paused) next = { s_env = p.env; s_next = next } in
  let counted ~init ~idx ~upd ~body () =
    let rec at k p =
      step p (fun () ->
          at (k + 1) (I.counted_resume prog p ~idx ~upd ~body (k + 1)))
    in
    at 0 (I.counted_prefix prog entry ~init ~idx ~upd ~body 0)
  in
  match (frag.loop, frag.schema) with
  | ForEach (_, x, Var d, body), (F.SList _ | F.SJoin _) ->
      fun () ->
        let items = Value.as_list (List.assoc d entry) in
        let tmp = "__prefix_" ^ d in
        let rec at rest p =
          step p (fun () ->
              let xs, rest =
                match rest with v :: rest -> ([ v ], rest) | [] -> ([], [])
              in
              at rest (I.items_resume prog p ~var:x ~body xs))
        in
        at items
          (I.items_prefix prog
             ((tmp, Value.List []) :: entry)
             ~coll:(Var tmp) ~var:x ~body)
  | For (init, _, upd, body), (F.SArrays { idx; _ } | F.SMatrix { i = idx; _ })
    ->
      counted ~init ~idx ~upd ~body
  | While (Binop (Lt, Var idx, _), body), F.SArrays { idx = idx'; _ }
    when String.equal idx idx' ->
      counted ~init:[] ~idx ~upd:[] ~body
  | l, _ ->
      fun () ->
        let env = I.run_stmts prog entry [ l ] in
        let rec s = { s_env = env; s_next = (fun () -> s) } in
        s

let prepare_state (prog : program) (frag : F.t) (entry : env) :
    prepared_state =
  let outer =
    lazy
      (match outer_count prog frag entry with
      | n -> Ok n
      | exception e -> Error e)
  in
  let arrays =
    List.filter_map
      (fun (v, _, kind) -> if kind = F.KArray then Some v else None)
      frag.outputs
  in
  let rec ps =
    {
      p_entry = entry;
      p_shapes = shapes_of frag;
      p_init_lens = Hashtbl.create 4;
      p_outer = outer;
      p_cells = cells;
      p_loop_units = 0;
    }
  and cells =
    lazy
      (match Lazy.force outer with
      | Error _ -> [||]
      | Ok n ->
          let datasets_at = datasets_at prog frag entry in
          let steps =
            Array.make (n + 1) (lazy (seq_steps prog frag entry ()))
          in
          for k = 1 to n do
            steps.(k) <-
              lazy
                (let prev = Lazy.force steps.(k - 1) in
                 ps.p_loop_units <- ps.p_loop_units + 1;
                 prev.s_next ())
          done;
          let seq_at k = (Lazy.force steps.(k)).s_env in
          Array.init (n + 1) (fun k ->
              lazy
                (match seq_at k with
                 | exception Minijava.Interp.Runtime_error _ -> PSeq_fault
                 | exception e -> PRaise e
                 | seq_env -> (
                     match datasets_at k with
                     | datasets ->
                         PReady
                           {
                             seq_env;
                             datasets;
                             expects =
                               List.map
                                 (fun v -> (v, lazy (expect_of seq_env entry v)))
                                 arrays;
                           }
                     | exception e -> PRaise e))))
  in
  ps

(* [p_entry] binds each output to one initial value, so one length per
   output *)
let init_len (ps : prepared_state) (var : string) (l : Value.t list) : int =
  match Hashtbl.find_opt ps.p_init_lens var with
  | Some n -> n
  | None ->
      let n = List.length l in
      Hashtbl.add ps.p_init_lens var n;
      n

let check_prepared (frag : F.t) (summary : Ir.summary)
    (ps : prepared_state) : check_result * bool =
  let lr_ran = ref false in
  let result =
    match Lazy.force ps.p_outer with
    | Error e -> State_skipped (Printexc.to_string e)
    | Ok n -> (
        let cells = Lazy.force ps.p_cells in
        let run =
          Casper_ir.Memo.stage_prefixes ~lr_ran ps.p_entry summary.Ir.pipeline
        in
        let rec go k =
          if k > n then Holds
          else
            match Lazy.force cells.(k) with
            | PSeq_fault ->
                State_skipped (Fmt.str "sequential fault at prefix %d" k)
            | PRaise e -> raise e
            | PReady { seq_env; datasets; expects } -> (
                match
                  extract_sparse ~init_len:(init_len ps) (run datasets)
                    ps.p_entry ps.p_shapes summary
                with
                | exception Eval.Eval_error m -> Ir_error m
                | exception Value.Type_error m -> Ir_error m
                | outs -> (
                    let expect v = Lazy.force (List.assoc v expects) in
                    match sparse_mismatch frag.outputs seq_env expect outs with
                    | Some var -> Fails { prefix = k; var }
                    | None -> go (k + 1)))
        in
        try go 0 with Vc_error m -> Ir_error m)
  in
  (result, !lr_ran)

let pp_clauses ppf (frag : F.t) =
  let d = F.primary_dataset frag in
  let outs = String.concat ", " (List.map (fun (v, _, _) -> v) frag.outputs) in
  Fmt.pf ppf
    "@[<v>Inv(%s, i) ≡ 0 <= i <= |%s| ∧ (%s) = ⟦MR⟧(%s[0..i])@,\
     Initiation:   (i = 0) → Inv(%s, i)@,\
     Continuation: Inv(%s, i) ∧ i < |%s| → Inv(step(%s), i+1)@,\
     Termination:  Inv(%s, i) ∧ ¬(i < |%s|) → PS(%s)@]"
    outs d outs d outs outs d outs outs d outs
