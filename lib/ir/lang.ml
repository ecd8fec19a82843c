type ty =
  | TInt
  | TFloat
  | TBool
  | TString
  | TDate
  | TTuple of ty list
  | TRecord of string  (** user-defined struct, by class name *)
  | TBag of ty
  | TPair of ty * ty

let rec pp_ty ppf = function
  | TInt -> Fmt.string ppf "int"
  | TFloat -> Fmt.string ppf "float"
  | TBool -> Fmt.string ppf "bool"
  | TString -> Fmt.string ppf "string"
  | TDate -> Fmt.string ppf "date"
  | TTuple ts -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:comma pp_ty) ts
  | TRecord n -> Fmt.string ppf n
  | TBag t -> Fmt.pf ppf "mset[%a]" pp_ty t
  | TPair (k, v) -> Fmt.pf ppf "(%a,%a)" pp_ty k pp_ty v

let ty_equal (a : ty) (b : ty) = a = b

let rec size_of_ty = function
  | TInt | TDate -> 12
  | TFloat -> 16
  | TBool -> 10
  | TString -> 40
  | TTuple ts -> 8 + List.fold_left (fun a t -> a + size_of_ty t) 0 ts
  | TPair (k, v) -> 8 + size_of_ty k + size_of_ty v
  | TRecord _ -> 48
  | TBag t -> 8 + (4 * size_of_ty t)

type unop = Neg | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or
  | Min
  | Max  (** surfaced as binops so grammar enumeration treats them uniformly *)

type expr =
  | CInt of int
  | CFloat of float
  | CBool of bool
  | CStr of string
  | Var of string  (** λ parameter or free fragment input *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list  (** modeled library method *)
  | MkTuple of expr list
  | TupleGet of expr * int
  | Field of expr * string
  | If of expr * expr * expr

type payload = KV of expr * expr | Val of expr
type emit = { guard : expr option; payload : payload }

type lam_m = {
  m_params : string list;
      (** bound positionally to the components of each input record; a
          single parameter binds the whole record *)
  emits : emit list;
}

type lam_r = { r_left : string; r_right : string; r_body : expr }

type node =
  | Data of string  (** a named input dataset of the fragment *)
  | Map of node * lam_m
  | Reduce of node * lam_r
      (** keyed reduction when the input is a bag of pairs, global
          reduction otherwise (Appendix C picks the API variant the same
          way) *)
  | Join of node * node
      (** all pairs of elements with matching keys: (k,v1) ⋈ (k,v2) →
          (k,(v1,v2)) *)

type extract =
  | Whole
      (** the variable (an array or map) is the whole associative result *)
  | AtKey of Casper_common.Value.t
      (** scalar at a fixed key — [MR\[vid\]] *)
  | Proj of int option
      (** from a global reduction: the value itself, or one tuple slot *)

type summary = {
  pipeline : node;
  bindings : (string * extract) list;  (** output variable → extraction *)
}

(* ------------------------------------------------------------------ *)

let rec node_depth = function
  | Data _ -> 0
  | Map (n, _) | Reduce (n, _) -> 1 + node_depth n
  | Join (a, b) -> 1 + max (node_depth a) (node_depth b)

let rec node_datasets = function
  | Data d -> [ d ]
  | Map (n, _) | Reduce (n, _) -> node_datasets n
  | Join (a, b) -> node_datasets a @ node_datasets b

let rec op_count = function
  | Data _ -> 0
  | Map (n, _) | Reduce (n, _) -> 1 + op_count n
  | Join (a, b) -> 1 + op_count a + op_count b

let rec expr_size = function
  | CInt _ | CFloat _ | CBool _ | CStr _ | Var _ -> 1
  | Unop (_, a) -> 1 + expr_size a
  | Binop (_, a, b) -> 1 + expr_size a + expr_size b
  | Call (_, args) -> 1 + List.fold_left (fun s a -> s + expr_size a) 0 args
  | MkTuple es -> List.fold_left (fun s a -> s + expr_size a) 1 es
  | TupleGet (a, _) | Field (a, _) -> 1 + expr_size a
  | If (a, b, c) -> 1 + expr_size a + expr_size b + expr_size c

let rec expr_vars = function
  | CInt _ | CFloat _ | CBool _ | CStr _ -> []
  | Var v -> [ v ]
  | Unop (_, a) | TupleGet (a, _) | Field (a, _) -> expr_vars a
  | Binop (_, a, b) -> expr_vars a @ expr_vars b
  | Call (_, args) | MkTuple args -> List.concat_map expr_vars args
  | If (a, b, c) -> expr_vars a @ expr_vars b @ expr_vars c

(* ------------------------------------------------------------------ *)
(* Pretty printing in the paper's notation                              *)

let unop_str = function Neg -> "-" | Not -> "!"

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"
  | Min -> "min"
  | Max -> "max"

let rec pp_expr ppf = function
  | CInt n -> Fmt.int ppf n
  | CFloat f -> Fmt.float ppf f
  | CBool b -> Fmt.bool ppf b
  | CStr s -> Fmt.pf ppf "%S" s
  | Var v -> Fmt.string ppf v
  | Unop (op, a) -> Fmt.pf ppf "%s%a" (unop_str op) pp_atom a
  | Binop ((Min | Max) as op, a, b) ->
      Fmt.pf ppf "%s(%a, %a)" (binop_str op) pp_expr a pp_expr b
  | Binop (op, a, b) ->
      Fmt.pf ppf "%a %s %a" pp_atom a (binop_str op) pp_atom b
  | Call (f, args) ->
      Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:comma pp_expr) args
  | MkTuple es -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:comma pp_expr) es
  | TupleGet (a, i) -> Fmt.pf ppf "%a.%d" pp_atom a i
  | Field (a, f) -> Fmt.pf ppf "%a.%s" pp_atom a f
  | If (c, t, e) ->
      Fmt.pf ppf "if %a then %a else %a" pp_expr c pp_expr t pp_expr e

and pp_atom ppf e =
  match e with
  | CInt _ | CFloat _ | CBool _ | CStr _ | Var _ | Call _ | MkTuple _
  | TupleGet _ | Field _ ->
      pp_expr ppf e
  | _ -> Fmt.pf ppf "(%a)" pp_expr e

let pp_emit ppf { guard; payload } =
  let pp_payload ppf = function
    | KV (k, v) -> Fmt.pf ppf "emit(%a, %a)" pp_expr k pp_expr v
    | Val v -> Fmt.pf ppf "emit(%a)" pp_expr v
  in
  match guard with
  | None -> pp_payload ppf payload
  | Some g -> Fmt.pf ppf "if (%a) %a" pp_expr g pp_payload payload

let pp_lam_m ppf lm =
  Fmt.pf ppf "(%a) -> {%a}"
    Fmt.(list ~sep:comma string)
    lm.m_params
    Fmt.(list ~sep:(any "; ") pp_emit)
    lm.emits

let pp_lam_r ppf lr =
  Fmt.pf ppf "(%s, %s) -> %a" lr.r_left lr.r_right pp_expr lr.r_body

let rec pp_node ppf = function
  | Data d -> Fmt.string ppf d
  | Map (n, lm) -> Fmt.pf ppf "map(%a, %a)" pp_node n pp_lam_m lm
  | Reduce (n, lr) -> Fmt.pf ppf "reduce(%a, %a)" pp_node n pp_lam_r lr
  | Join (a, b) -> Fmt.pf ppf "join(%a, %a)" pp_node a pp_node b

let pp_extract ppf = function
  | Whole -> Fmt.string ppf "MR"
  | AtKey k -> Fmt.pf ppf "MR[%a]" Casper_common.Value.pp k
  | Proj None -> Fmt.string ppf "MR (scalar)"
  | Proj (Some i) -> Fmt.pf ppf "MR.%d" i

let pp_summary ppf s =
  Fmt.pf ppf "@[<v>MR := %a@,%a@]" pp_node s.pipeline
    Fmt.(
      list ~sep:cut (fun ppf (v, ex) ->
          Fmt.pf ppf "%s = %a" v pp_extract ex))
    s.bindings

let summary_to_string s = Fmt.str "%a" pp_summary s
