(** Casper's high-level intermediate representation for program summaries
    (paper §3.1, Figure 3, Appendix B).

    A program summary (PS) asserts that every output variable of a code
    fragment equals the result of a [map]/[reduce]/[join] pipeline over
    the fragment's input data. Transformer functions λm and λr are
    restricted exactly as in the paper: λm bodies are sequences of
    (optionally guarded) [emit] statements producing key-value pairs or
    plain values; λr bodies are single expressions. *)

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

val pp_ty : ty Fmt.t

(** Structural equality of types. *)
val ty_equal : ty -> ty -> bool

(** Byte size of a value of this type — the cost model's [sizeOf]
    (paper §7.4: 40 for String, 10 for Boolean, 28 for a Boolean pair). *)
val size_of_ty : ty -> int

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

(** One emit statement of a λm body: an optional guard, and a payload that
    is either a key-value pair (feeding keyed reduction) or a plain value
    (feeding a global reduction). *)
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

(** How an output variable reads its value out of the pipeline result
    (Figure 3: [∀v. v = MR] or [∀v. v = MR\[vid\]]). *)
type extract =
  | Whole
      (** the variable (an array or map) is the whole associative result *)
  | AtKey of Casper_common.Value.t
      (** scalar at a fixed key — [MR\[vid\]] *)
  | Proj of int option

type summary = {
  pipeline : node;
  bindings : (string * extract) list;  (** output variable → extraction *)
}

(** Longest chain of operations from a dataset to the node. *)
val node_depth : node -> int

(** The datasets a pipeline reads, left to right, with repeats. *)
val node_datasets : node -> string list

(** Number of map/reduce/join operations — the "Mean # Op" metric of
    Table 2. *)
val op_count : node -> int

(** Number of nodes of an expression: the grammar's expression length. *)
val expr_size : expr -> int

(** The variables an expression reads, in order, with repeats. *)
val expr_vars : expr -> string list

(** The operator's concrete syntax. *)
val binop_str : binop -> string

(** {2 Printers} In the paper's notation. *)

val pp_expr : expr Fmt.t

val pp_lam_m : Format.formatter -> lam_m -> unit

val pp_lam_r : Format.formatter -> lam_r -> unit

val pp_node : Format.formatter -> node -> unit

val pp_extract : Format.formatter -> extract -> unit

val pp_summary : Format.formatter -> summary -> unit

val summary_to_string : summary -> string
