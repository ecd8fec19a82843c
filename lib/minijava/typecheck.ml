open Ast
module Library = Casper_common.Library

exception Type_error of string

let err fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

type env = (string * ty) list

let lookup env v =
  match List.assoc_opt v env with
  | Some t -> t
  | None -> err "unbound variable %s" v

let field_ty prog cls f =
  match find_class prog cls with
  | None -> err "unknown class %s" cls
  | Some c -> (
      match List.find_opt (fun (_, n) -> String.equal n f) c.cfields with
      | Some (t, _) -> t
      | None -> err "class %s has no field %s" cls f)

let is_numeric = function TInt | TLong | TFloat -> true | _ -> false

let join_num a b =
  match (a, b) with
  | TFloat, _ | _, TFloat -> TFloat
  | TLong, _ | _, TLong -> TLong
  | _ -> TInt

(* the type of a library method's result; [args] are needed only when
   it follows the arguments (Math.min/max/abs) *)
let library_ret (kind : Library.kind) (args : ty list Lazy.t) =
  match kind with
  | K_numeric_arg -> List.fold_left join_num TInt (Lazy.force args)
  | K_int -> TInt
  | K_float -> TFloat
  | K_bool -> TBool
  | K_string -> TString
  | K_date -> TDate
  | K_strings -> TList TString

let rec infer prog (env : env) (e : expr) : ty =
  match e with
  | IntLit _ -> TInt
  | FloatLit _ -> TFloat
  | BoolLit _ -> TBool
  | StrLit _ -> TString
  | Var v -> lookup env v
  | Unop (Neg, a) -> infer prog env a
  | Unop (Not, _) -> TBool
  | Unop (BitNot, _) -> TInt
  | Binop (op, a, b) -> (
      let ta = infer prog env a and tb = infer prog env b in
      match op with
      | Add when ta = TString || tb = TString -> TString
      | Add | Sub | Mul | Div | Mod ->
          if is_numeric ta && is_numeric tb then join_num ta tb
          else err "arithmetic on non-numeric types"
      | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> TBool
      | BitAnd | BitOr | BitXor | Shl | Shr -> TInt)
  | Index (a, _) -> (
      match infer prog env a with
      | TArray t | TList t -> t
      | t -> err "indexing non-array type %s" (ty_to_string t))
  | Field (a, f) -> (
      match infer prog env a with
      | TClass c -> field_ty prog c f
      | t -> err "field access on %s" (ty_to_string t))
  | ArrLen _ -> TInt
  | Call (name, args) -> (
      match Library.kind name with
      | Some kind -> library_ret kind (lazy (List.map (infer prog env) args))
      | None -> (
          (* user-defined method *)
          match find_method prog name with
          | Some m -> m.ret
          | None ->
              (* unmodeled external library call (ImageJ etc.):
                 typed leniently so the analyzer can report the
                 fragment as untranslatable rather than the front
                 end rejecting the file *)
              if String.contains name '.' then TFloat
              else err "unknown method %s" name))
  | MethodCall (recv, name, args) -> (
      match (infer prog env recv, name) with
      | TString, _ -> (
          match Library.kind ("String." ^ name) with
          | Some kind -> library_ret kind (lazy [])
          | None -> err "unknown String method %s" name)
      | TDate, ("before" | "after") -> TBool
      | TList t, ("get" | "remove") -> t
      | TList _, ("size" | "indexOf") -> TInt
      | TList _, ("contains" | "isEmpty" | "add") -> TBool
      | TList t, "set" -> t
      | TMap (_, v), ("get" | "getOrDefault" | "put") -> v
      | TMap _, "containsKey" -> TBool
      | TMap _, "size" -> TInt
      | TClass c, _ when List.is_empty args -> field_ty prog c name
      | t, _ -> err "unknown method %s on %s" name (ty_to_string t))
  | NewArray (t, dims) ->
      List.fold_left (fun acc _ -> TArray acc) t (List.rev dims) |> fun x ->
      (* dims applied outside-in: new int[r][c] : int[][] *)
      ignore x;
      List.fold_left (fun acc _ -> TArray acc) t dims
  | NewObj (name, _) -> (
      match name with
      | "ArrayList" | "LinkedList" -> TList TInt (* refined by decl *)
      | "HashMap" | "TreeMap" -> TMap (TInt, TInt)
      | _ -> TClass name)
  | Ternary (_, a, _) -> infer prog env a
  | Cast (t, _) -> t

let method_env (m : meth) : env =
  let rec of_stmts env stmts =
    List.fold_left
      (fun env s ->
        match s with
        | Decl (t, v, _) -> (v, t) :: env
        | If (_, a, b) -> of_stmts (of_stmts env a) b
        | While (_, b) | DoWhile (b, _) -> of_stmts env b
        | For (i, _, u, b) -> of_stmts (of_stmts (of_stmts env i) u) b
        | ForEach (t, v, _, b) -> of_stmts ((v, t) :: env) b
        | Block b -> of_stmts env b
        | _ -> env)
      env stmts
  in
  of_stmts (List.map (fun (t, v) -> (v, t)) m.params) m.body

(** Sanity-check a whole method: every expression must type-check in the
    method environment. Raises {!Type_error} otherwise. *)
let check_method prog (m : meth) : unit =
  let env = method_env m in
  let check_e () e = ignore (infer prog env e) in
  ignore (fold_stmts ~expr:check_e ~stmt:(fun () _ -> ()) () m.body)

let check_program prog = List.iter (check_method prog) prog.methods
