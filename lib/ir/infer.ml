open Lang
module Library = Casper_common.Library

exception Ill_typed of string

let err fmt = Fmt.kstr (fun s -> raise (Ill_typed s)) fmt

type tenv = {
  vars : (string * ty) list;
  structs : (string * (string * ty) list) list;
      (** user-defined record types *)
}

let lookup_var tenv v =
  match List.assoc_opt v tenv.vars with
  | Some t -> t
  | None -> err "unbound %s" v

let library_ret name args_ty =
  match (Library.kind name, args_ty) with
  | Some K_numeric_arg, t :: _ -> t
  | Some K_int, _ -> TInt
  | Some K_float, _ -> TFloat
  | Some K_bool, _ -> TBool
  | Some K_string, _ -> TString
  | Some K_date, _ -> TDate
  | Some K_strings, _ -> TBag TString
  | (Some K_numeric_arg | None), _ -> err "unknown library method %s" name

let is_num = function TInt | TFloat -> true | _ -> false

let rec infer (tenv : tenv) (e : expr) : ty =
  match e with
  | CInt _ -> TInt
  | CFloat _ -> TFloat
  | CBool _ -> TBool
  | CStr _ -> TString
  | Var v -> lookup_var tenv v
  | Unop (Neg, a) -> infer tenv a
  | Unop (Not, _) -> TBool
  | Binop ((Add | Sub | Mul | Div | Mod | Min | Max), a, b) -> (
      match (infer tenv a, infer tenv b) with
      | TString, _ | _, TString -> TString
      | TFloat, t when is_num t -> TFloat
      | t, TFloat when is_num t -> TFloat
      | TInt, TInt -> TInt
      | ta, tb ->
          err "arithmetic on %s and %s" (Fmt.str "%a" pp_ty ta)
            (Fmt.str "%a" pp_ty tb))
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne | And | Or), _, _) -> TBool
  | Call (f, args) -> library_ret f (List.map (infer tenv) args)
  | MkTuple es -> TTuple (List.map (infer tenv) es)
  | TupleGet (a, i) -> (
      match infer tenv a with
      | TTuple ts when i < List.length ts -> List.nth ts i
      | TPair (k, _) when i = 0 -> k
      | TPair (_, v) when i = 1 -> v
      | t -> err "projection %d of %s" i (Fmt.str "%a" pp_ty t))
  | Field (a, f) -> (
      match infer tenv a with
      | TRecord name -> (
          match List.assoc_opt name tenv.structs with
          | Some fields -> (
              match List.assoc_opt f fields with
              | Some t -> t
              | None -> err "record %s has no field %s" name f)
          | None -> err "unknown record type %s" name)
      | t -> err "field %s of non-record %s" f (Fmt.str "%a" pp_ty t))
  | If (_, t, _) -> infer tenv t

let rec infer_node (tenv : tenv) (record_ty : string -> ty) (n : node) :
    [ `Recs of ty | `KVs of ty * ty | `Plain of ty ] =
  match n with
  | Data d -> `Recs (record_ty d)
  | Map (src, lm) -> (
      let elt_ty =
        match infer_node tenv record_ty src with
        | `Recs t | `Plain t -> t
        | `KVs (k, v) -> TTuple [ k; v ]
      in
      let env_params =
        match (lm.m_params, elt_ty) with
        | [ p ], t -> [ (p, t) ]
        | ps, TTuple ts when List.length ps = List.length ts ->
            List.combine ps ts
        | ps, t ->
            err "λm params %d vs record %s" (List.length ps)
              (Fmt.str "%a" pp_ty t)
      in
      let tenv' = { tenv with vars = env_params @ tenv.vars } in
      match lm.emits with
      | [] -> err "λm with no emits"
      | { payload = KV (k, v); _ } :: _ ->
          `KVs (infer tenv' k, infer tenv' v)
      | { payload = Val v; _ } :: _ -> `Plain (infer tenv' v))
  | Reduce (src, _) -> infer_node tenv record_ty src
  | Join (a, b) -> (
      match (infer_node tenv record_ty a, infer_node tenv record_ty b) with
      | `KVs (k, v1), `KVs (_, v2) -> `KVs (k, TTuple [ v1; v2 ])
      | _ -> err "join over non-keyed inputs")
