module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
open Minijava.Ast

let record_params (frag : F.t) : (string * Ir.ty) list =
  let ir = Casper_analysis.Analyze.ir_ty in
  match frag.schema with
  | F.SList { elem; elem_ty; _ } -> [ (elem, ir elem_ty) ]
  | F.SArrays { idx; arrays; _ } ->
      (idx, Ir.TInt) :: List.map (fun (a, t) -> (a, ir t)) arrays
  | F.SMatrix { i; j; elem_ty; _ } ->
      let v = "v" in
      [ (i, Ir.TInt); (j, Ir.TInt); (v, ir elem_ty) ]
  | F.SJoin { x1; ty1; x2; ty2; _ } -> [ (x1, ir ty1); (x2, ir ty2) ]

let record_ty_of (frag : F.t) (d : string) : Ir.ty =
  let ir = Casper_analysis.Analyze.ir_ty in
  match frag.schema with
  | F.SList { elem_ty; _ } -> ir elem_ty
  | F.SArrays { arrays; _ } ->
      Ir.TTuple (Ir.TInt :: List.map (fun (_, t) -> ir t) arrays)
  | F.SMatrix { elem_ty; _ } -> Ir.TTuple [ Ir.TInt; Ir.TInt; ir elem_ty ]
  | F.SJoin { d1; ty1; ty2; _ } ->
      if String.equal d d1 then ir ty1 else ir ty2

let binop_map : (binop * Ir.binop) list =
  [
    (Add, Ir.Add);
    (Sub, Ir.Sub);
    (Mul, Ir.Mul);
    (Div, Ir.Div);
    (Mod, Ir.Mod);
    (Lt, Ir.Lt);
    (Le, Ir.Le);
    (Gt, Ir.Gt);
    (Ge, Ir.Ge);
    (Eq, Ir.Eq);
    (Ne, Ir.Ne);
    (And, Ir.And);
    (Or, Ir.Or);
  ]

(* substitute argument expressions for parameters, for method inlining *)
let rec subst_expr (m : (string * expr) list) (e : expr) : expr =
  match e with
  | Var v -> ( match List.assoc_opt v m with Some a -> a | None -> e)
  | IntLit _ | FloatLit _ | BoolLit _ | StrLit _ -> e
  | Unop (op, a) -> Unop (op, subst_expr m a)
  | Binop (op, a, b) -> Binop (op, subst_expr m a, subst_expr m b)
  | Index (a, b) -> Index (subst_expr m a, subst_expr m b)
  | Field (a, f) -> Field (subst_expr m a, f)
  | ArrLen a -> ArrLen (subst_expr m a)
  | Call (f, args) -> Call (f, List.map (subst_expr m) args)
  | MethodCall (r, n, args) ->
      MethodCall (subst_expr m r, n, List.map (subst_expr m) args)
  | NewArray (t, dims) -> NewArray (t, List.map (subst_expr m) dims)
  | NewObj (n, args) -> NewObj (n, List.map (subst_expr m) args)
  | Ternary (a, b, c) ->
      Ternary (subst_expr m a, subst_expr m b, subst_expr m c)
  | Cast (t, a) -> Cast (t, subst_expr m a)

(** A user-defined method whose body is a single [return <expr>] can be
    inlined by substitution — §6.1: "Casper handles methods by inlining
    their bodies". *)
let inlinable_body (prog : program) (name : string) : (string list * expr) option =
  match find_method prog name with
  | Some { params; body = [ Return (Some e) ]; _ } ->
      Some (List.map snd params, e)
  | _ -> None

let lift (frag : F.t) (prog : program) : expr -> Ir.expr option =
  let scalars = List.map fst frag.input_scalars in
  let env = Minijava.Typecheck.method_env frag.meth in
  let rec go (e : expr) : Ir.expr option =
    let open Option in
    match e with
    | IntLit n -> Some (Ir.CInt n)
    | FloatLit f -> Some (Ir.CFloat f)
    | BoolLit b -> Some (Ir.CBool b)
    | StrLit s -> Some (Ir.CStr s)
    | Var v -> (
        match frag.schema with
        | F.SList { elem; _ } when String.equal v elem -> Some (Ir.Var v)
        | F.SArrays { idx; _ } when String.equal v idx -> Some (Ir.Var v)
        | F.SMatrix { i; j; _ } when String.equal v i || String.equal v j ->
            Some (Ir.Var v)
        | F.SJoin { x1; x2; _ } when String.equal v x1 || String.equal v x2
          ->
            Some (Ir.Var v)
        | _ -> if List.mem v scalars then Some (Ir.Var v) else None)
    | Index (Var a, Var i) -> (
        match frag.schema with
        | F.SArrays { idx; arrays; _ }
          when String.equal i idx && List.mem_assoc a arrays ->
            Some (Ir.Var a)
        | _ -> None)
    | Index (Index (Var m, Var i'), Var j') -> (
        match frag.schema with
        | F.SMatrix { data; i; j; _ }
          when String.equal m data && String.equal i' i
               && String.equal j' j ->
            Some (Ir.Var "v")
        | _ -> None)
    | Field (r, f) -> bind (go r) (fun r' -> Some (Ir.Field (r', f)))
    | Unop (Neg, a) -> bind (go a) (fun a' -> Some (Ir.Unop (Ir.Neg, a')))
    | Unop (Not, a) -> bind (go a) (fun a' -> Some (Ir.Unop (Ir.Not, a')))
    | Unop (BitNot, _) -> None
    | Binop (op, a, b) -> (
        match List.assoc_opt op binop_map with
        | None -> None
        | Some op' ->
            bind (go a) (fun a' ->
                bind (go b) (fun b' -> Some (Ir.Binop (op', a', b')))))
    | Call ("Math.min", [ a; b ]) ->
        bind (go a) (fun a' ->
            bind (go b) (fun b' -> Some (Ir.Binop (Ir.Min, a', b'))))
    | Call ("Math.max", [ a; b ]) ->
        bind (go a) (fun a' ->
            bind (go b) (fun b' -> Some (Ir.Binop (Ir.Max, a', b'))))
    | Call (name, args) when Casper_common.Library.is_known name ->
        let args' = List.filter_map go args in
        if List.length args' = List.length args then
          Some (Ir.Call (name, args'))
        else None
    | Call (name, args) -> (
        (* user-defined method: inline the body (§6.1) *)
        match inlinable_body prog name with
        | Some (params, body) when List.length params = List.length args ->
            go (subst_expr (List.combine params args) body)
        | _ -> None)
    | MethodCall (recv, name, args) -> (
        let recv_ty =
          try Some (Minijava.Typecheck.infer prog env recv)
          with Minijava.Typecheck.Type_error _ -> None
        in
        match recv_ty with
        | Some TString ->
            let all = recv :: args in
            let all' = List.filter_map go all in
            if List.length all' = List.length all then
              Some (Ir.Call ("String." ^ name, all'))
            else None
        | Some TDate when String.equal name "before" || String.equal name "after"
          ->
            let all = recv :: args in
            let all' = List.filter_map go all in
            if List.length all' = List.length all then
              Some (Ir.Call ("Date." ^ name, all'))
            else None
        | Some (TClass _) when List.is_empty args ->
            bind (go recv) (fun r' -> Some (Ir.Field (r', name)))
        | _ -> None)
    | Ternary (c, a, b) ->
        bind (go c) (fun c' ->
            bind (go a) (fun a' ->
                bind (go b) (fun b' -> Some (Ir.If (c', a', b')))))
    | Cast ((TInt | TLong), a) -> go a
    | Cast (TFloat, a) ->
        (* numeric promotion is implicit in the IR *)
        go a
    | _ -> None
  in
  go

let harvest (prog : program) (frag : F.t) : Ir.expr list =
  let lift1 = lift frag prog in
  let acc =
    fold_stmts
      ~expr:(fun acc e ->
        match lift1 e with Some ir -> ir :: acc | None -> acc)
      ~stmt:(fun acc _ -> acc)
      [] frag.body
  in
  List.sort_uniq Stdlib.compare acc
