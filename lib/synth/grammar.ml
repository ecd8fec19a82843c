module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Value = Casper_common.Value
module Eval = Casper_ir.Eval
module Memo = Casper_ir.Memo
module H = Casper_ir.Hashcons
module Statesgen = Casper_verify.Statesgen
module Vc = Casper_vcgen.Vc

type klass = {
  k_id : int;
  max_ops : int;
  max_emits : int;
  allow_tuples : bool;
  max_len : int;
}

let classes (frag : F.t) : klass list =
  match frag.schema with
  | F.SJoin _ ->
      [ { k_id = 9; max_ops = 5; max_emits = 2; allow_tuples = true;
          max_len = 12 } ]
  | _ ->
      [
        { k_id = 1; max_ops = 1; max_emits = 1; allow_tuples = false;
          max_len = 6 };
        { k_id = 2; max_ops = 2; max_emits = 2; allow_tuples = false;
          max_len = 9 };
        { k_id = 3; max_ops = 3; max_emits = 3; allow_tuples = true;
          max_len = 12 };
        (* wide λm bodies: one emit per output variable for fragments
           that fold many aggregates in one pass (Phoenix Linear
           Regression emits five) *)
        { k_id = 4; max_ops = 3; max_emits = 6; allow_tuples = true;
          max_len = 14 };
      ]

let flat_class (frag : F.t) : klass =
  match classes frag with
  | [] -> assert false
  | l ->
      let top = List.nth l (List.length l - 1) in
      { top with k_id = 0; max_len = top.max_len + 3 }

(* ------------------------------------------------------------------ *)
(* Probe-based observational dedup                                     *)

type probe = Eval.env list
(** environments binding λ parameters and free scalars *)

let dedupe_c ?(keep = fun _ -> false) ?(size = Ir.expr_size) ?limit
    (cprobes : Memo.probe_set) (exprs : Ir.expr list) : Ir.expr list =
  let sorted =
    (* order by grammar length (harvested productions count as leaves),
       input-dependent expressions before constants, dropping exact
       structural duplicates *)
    let const e = List.is_empty (Ir.expr_vars e) in
    List.sort_uniq
      (fun a b -> compare (size a, const a, a) (size b, const b, b))
      exprs
  in
  let lim = Option.value limit ~default:max_int in
  let seen = Memo.Fp_tbl.create 64 in
  let out = ref [] in
  let n = ref 0 in
  let rec go = function
    | [] -> ()
    | _ :: _ when !n >= lim -> ()
    | e :: rest ->
        (* expressions harvested from the fragment body are explicit
           productions of the specialized grammar (Appendix D); they are
           never folded into an observationally-equivalent substitute *)
        (if keep e then (
           out := e :: !out;
           incr n)
         else
           let fp = Memo.cells cprobes e in
           if not (Memo.Fp_tbl.mem seen fp) then (
             Memo.Fp_tbl.add seen fp ();
             out := e :: !out;
             incr n));
        go rest
  in
  go sorted;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Typed expression pools                                              *)

type pools = {
  params : (string * Ir.ty) list;  (** λm parameters for record stages *)
  scalars : (string * Ir.ty) list;  (** free input variables *)
  ints : Ir.expr list;
  floats : Ir.expr list;
  bools : Ir.expr list;  (** guard candidates *)
  strings : Ir.expr list;
  probes : probe;
  cprobes : Memo.probe_set;
      (** [probes] with their fingerprint cells; its counts are the
          search's *)
  hc : H.t;
      (** the search's interner: pool expressions are its canonical
          representatives, and candidate keys are its ids *)
  ops : Ir.binop list;
  structs : (string * (string * Ir.ty) list) list;
  harvested : (Ir.expr, unit) Hashtbl.t;
      (** sub-expressions lifted from the fragment body; these are leaf
          productions of the generated grammar (Appendix D), so the
          class expression-length bound treats them as size 1 *)
}

let glen (p : pools) (e : Ir.expr) : int =
  if Hashtbl.mem p.harvested e then 1 else Ir.expr_size e

let cap n l = List.filteri (fun i _ -> i < n) l

let tenv_of (pools : pools) : Casper_ir.Infer.tenv =
  { Casper_ir.Infer.vars = pools.params @ pools.scalars;
    structs = pools.structs }

let ty_of (pools : pools) (e : Ir.expr) : Ir.ty option =
  try Some (Casper_ir.Infer.infer (tenv_of pools) e)
  with Casper_ir.Infer.Ill_typed _ -> None

let is_arith = function
  | Ir.Add | Ir.Sub | Ir.Mul | Ir.Div | Ir.Mod | Ir.Min | Ir.Max -> true
  | _ -> false

let is_cmp = function
  | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne -> true
  | _ -> false

(** Probe environments for observational dedup: λm-parameter bindings
    drawn from real fragment states.

    Probe selection is coverage-guided: for every boolean sub-expression
    harvested from the fragment body we make sure the probe set contains
    states where it fires and states where it does not — otherwise a
    guard that is rarely true (TPC-H Q6's five-way conjunction) would be
    observationally equal to [false] and deduplicated out of its own
    grammar. The booleans are [harvested], the fragment's lifted
    sub-expressions. *)
let make_probes prog (frag : F.t) (harvested : Ir.expr list) : probe =
  let dom = Statesgen.full_domain frag in
  let batch = Statesgen.gen_batch ~seed:97 ~count:30 dom prog frag in
  let params =
    match frag.F.schema with
    (* join fragments: records of d1 bind x1; x2 is bound from d2 in a
       separate pass below *)
    | F.SJoin { x1; _ } -> [ (x1, Ir.TInt) ]
    | _ -> Lift.record_params frag
  in
  let probes =
    List.concat_map
      (fun penv ->
        match Vc.entry_of_params prog frag penv with
        | exception _ -> []
        | entry -> (
            match
              Vc.datasets_at prog frag entry (Vc.outer_count prog frag entry)
            with
            | exception _ -> []
            | dsets ->
                let records =
                  match dsets with (_, rs) :: _ -> rs | [] -> []
                in
                List.filteri
                  (fun i _ -> i < 3)
                  (List.map
                     (fun r ->
                       try Eval.bind_params entry (List.map fst params) r
                       with _ -> entry)
                     records)))
      batch
  in
  (* join fragments additionally need x2 bound from d2; cycle through the
     right side's records so x2 varies across probes *)
  let probes =
    match frag.schema with
    | F.SJoin { d2; x2; _ } ->
        List.mapi
          (fun i env ->
            match List.assoc_opt d2 env with
            | Some (Value.List (_ :: _ as es)) ->
                (x2, List.nth es (i mod List.length es)) :: env
            | _ -> env)
          probes
    | _ -> probes
  in
  match probes with
  | [] -> [ [] ]
  | pool ->
      let base = List.filteri (fun i _ -> i < 16) pool in
      (* coverage pass: for each harvested boolean, add probes until it
         has at least two firing and two non-firing states (when the
         pool contains any) *)
      let bools =
        List.filter
          (fun e ->
            match e with
            | Ir.Binop ((Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.Eq | Ir.Ne
                        | Ir.And | Ir.Or), _, _)
            | Ir.Unop (Ir.Not, _) | Ir.Call _ ->
                true
            | _ -> false)
          harvested
      in
      let eval_bool env e =
        match Eval.eval_expr env e with
        | Value.Bool b -> Some b
        | _ -> None
        | exception _ -> None
      in
      let selected = ref base in
      List.iter
        (fun b ->
          let count v =
            List.length
              (List.filter (fun env -> eval_bool env b = Some v) !selected)
          in
          List.iter
            (fun want ->
              let missing = 2 - count want in
              if missing > 0 then
                let extra =
                  List.filter
                    (fun env ->
                      eval_bool env b = Some want
                      && not (List.memq env !selected))
                    pool
                in
                selected :=
                  !selected @ List.filteri (fun i _ -> i < missing) extra)
            [ true; false ])
        bools;
      List.filteri (fun i _ -> i < 48) !selected

let build (prog : Minijava.Ast.program) (frag : F.t) : pools =
  let params = Lift.record_params frag in
  let scalars =
    List.map
      (fun (v, t) -> (v, Casper_analysis.Analyze.ir_ty t))
      frag.input_scalars
  in
  let structs = Casper_analysis.Analyze.struct_table prog in
  let raw = Lift.harvest prog frag in
  let probes = make_probes prog frag raw in
  let hc = H.create () in
  let harvested = List.map (H.intern_deep hc) raw in
  (* terminals: params, scalars, record fields, constants *)
  let field_accesses =
    List.concat_map
      (fun (p, t) ->
        match t with
        | Ir.TRecord name -> (
            match List.assoc_opt name structs with
            | Some fields ->
                List.map (fun (f, _) -> H.field hc (H.var hc p) f) fields
            | None -> [])
        | _ -> [])
      (params @ scalars)
  in
  let const_exprs =
    List.filter_map
      (function
        | Value.Int n -> Some (H.cint hc n)
        | Value.Float f -> Some (H.cfloat hc f)
        | Value.Str s -> Some (H.cstr hc s)
        | Value.Bool b -> Some (H.cbool hc b)
        | _ -> None)
      frag.constants
  in
  let terminals =
    List.map (fun (p, _) -> H.var hc p) (params @ scalars)
    @ field_accesses @ const_exprs
    @ [ H.cint hc 0; H.cint hc 1; H.cfloat hc 1.0 ]
    @ harvested
  in
  let harvested_tbl = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace harvested_tbl e ()) harvested;
  let cprobes =
    Memo.probe_set { Memo.cell_hits = 0; cell_misses = 0 } probes
  in
  let dummy =
    {
      params;
      scalars;
      ints = [];
      floats = [];
      bools = [];
      strings = [];
      probes;
      cprobes;
      hc;
      ops = frag.operators;
      structs;
      harvested = harvested_tbl;
    }
  in
  let typed =
    List.filter_map
      (fun e -> match ty_of dummy e with Some t -> Some (e, t) | None -> None)
      terminals
  in
  let of_ty t =
    List.filter_map
      (fun (e, t') -> if Ir.ty_equal t t' then Some e else None)
      typed
  in
  let ints0 = of_ty Ir.TInt @ of_ty Ir.TDate in
  let floats0 = of_ty Ir.TFloat in
  let bools0 = of_ty Ir.TBool in
  let strings0 = of_ty Ir.TString in
  (* one closure layer of the fragment's arithmetic operators; a combined
     expression must mention at least one variable — constant folding is
     the verifier's job, not the grammar's *)
  let non_const e = not (List.is_empty (Ir.expr_vars e)) in
  let arith_ops = List.filter is_arith frag.operators in
  let combine pool =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                let e = H.binop hc op a b in
                if non_const e then Some e else None)
              (cap 10 pool))
          (cap 10 pool))
      arith_ops
  in
  let keep e = Hashtbl.mem harvested_tbl e in
  let size e = if keep e then 1 else Ir.expr_size e in
  let ints = dedupe_c ~keep ~size ~limit:40 cprobes (ints0 @ combine ints0) in
  let floats =
    dedupe_c ~keep ~size ~limit:48 cprobes
      (floats0 @ combine floats0
      @ (* cross int→float promotion for mixed arithmetic *)
      List.concat_map
        (fun op ->
          List.concat_map
            (fun a ->
              List.filter_map
                (fun b ->
                  let e = H.binop hc op a b in
                  if non_const e then Some e else None)
                (cap 8 ints0))
            (cap 8 floats0))
        arith_ops)
  in
  (* guards: harvested booleans first, then comparisons *)
  let cmp_ops = List.filter is_cmp frag.operators in
  let cmps pool =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                let e = H.binop hc op a b in
                if non_const e then Some e else None)
              (cap 8 pool))
          (cap 8 pool))
      cmp_ops
  in
  let bools =
    dedupe_c ~keep ~size ~limit:32 cprobes
      (bools0 @ cmps ints0 @ cmps floats0 @ cmps strings0)
  in
  let strings = dedupe_c ~keep ~size ~limit:16 cprobes strings0 in
  {
    params;
    scalars;
    ints;
    floats;
    bools;
    strings;
    probes;
    cprobes;
    hc;
    ops = frag.operators;
    structs;
    harvested = harvested_tbl;
  }

let dedupe (p : pools) ?keep ?size ?limit (probes : probe)
    (exprs : Ir.expr list) : Ir.expr list =
  dedupe_c ?keep ?size ?limit
    (Memo.probe_set p.cprobes.Memo.ps_counts probes)
    exprs

let exprs_of_ty (p : pools) : Ir.ty -> Ir.expr list = function
  | Ir.TInt | Ir.TDate -> p.ints
  | Ir.TFloat -> p.floats
  | Ir.TBool -> p.bools @ [ Ir.CBool true; Ir.CBool false ]
  | Ir.TString -> p.strings
  | _ -> []

let guards (p : pools) ~(max_len : int) : Ir.expr option list =
  None
  :: List.filter_map
       (fun g -> if glen p g <= max_len then Some (Some g) else None)
       p.bools

(* ------------------------------------------------------------------ *)
(* Reducer pools                                                       *)

let reducer_ops_for (p : pools) (t : Ir.ty) : Ir.binop list =
  match t with
  | Ir.TInt | Ir.TFloat ->
      let base = [ Ir.Add ] in
      let mul = if List.mem Ir.Mul p.ops then [ Ir.Mul ] else [] in
      let minmax =
        if
          List.exists
            (fun o -> is_cmp o || o = Ir.Min || o = Ir.Max)
            p.ops
        then [ Ir.Min; Ir.Max ]
        else []
      in
      base @ mul @ minmax
  | Ir.TBool -> [ Ir.And; Ir.Or ]
  | Ir.TString -> []
  | _ -> []

let reducers (p : pools) (t : Ir.ty) : Ir.lam_r list =
  let v1 = "v1" and v2 = "v2" in
  let mk body = { Ir.r_left = v1; r_right = v2; r_body = body } in
  let base = [ mk (Ir.Var v1); mk (Ir.Var v2) ] in
  match t with
  | Ir.TInt | Ir.TFloat | Ir.TBool | Ir.TString ->
      base
      @ List.map
          (fun op -> mk (Ir.Binop (op, Ir.Var v1, Ir.Var v2)))
          (reducer_ops_for p t)
  | Ir.TTuple ts ->
      let slot_ops = List.map (fun t -> reducer_ops_for p t) ts in
      (* cartesian product of per-slot operators, capped *)
      let rec cart = function
        | [] -> [ [] ]
        | ops :: rest ->
            let tails = cart rest in
            List.concat_map
              (fun op -> List.map (fun tl -> op :: tl) tails)
              ops
      in
      let combos = cap 32 (cart slot_ops) in
      base
      @ List.map
          (fun ops ->
            mk
              (Ir.MkTuple
                 (List.mapi
                    (fun i op ->
                      Ir.Binop
                        ( op,
                          Ir.TupleGet (Ir.Var v1, i),
                          Ir.TupleGet (Ir.Var v2, i) ))
                    ops)))
          combos
  | _ -> base
