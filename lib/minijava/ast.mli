(** Abstract syntax for MiniJava — the sequential Java subset Casper's
    front-end accepts (paper §6.1: basic types and operators, primitive
    arrays and collections, user-defined types, conditionals, all loop
    forms, inlined methods, modeled library methods). *)

type ty =
  | TInt
  | TLong
  | TFloat  (** covers Java [float] and [double] *)
  | TBool
  | TString
  | TDate  (** modeled as a day count *)
  | TArray of ty
  | TList of ty
  | TMap of ty * ty
  | TClass of string
  | TVoid

(** Print a type in Java syntax. *)
val pp_ty : Format.formatter -> ty -> unit

(** A type in Java syntax. *)
val ty_to_string : ty -> string

type unop = Neg | Not | BitNot

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
  | BitAnd
  | BitOr
  | BitXor
  | Shl
  | Shr

(** The operator's Java syntax. *)
val binop_to_string : binop -> string

type expr =
  | IntLit of int
  | FloatLit of float
  | BoolLit of bool
  | StrLit of string
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Index of expr * expr  (** a[i] *)
  | Field of expr * string  (** l.l_discount *)
  | Call of string * expr list
      (** static / library call, receiver folded into the name:
          [Math.min(a,b)] *)
  | MethodCall of expr * string * expr list  (** list.get(i), d.after(dt) *)
  | NewArray of ty * expr list  (** new int[n], new double[r][c] *)
  | NewObj of string * expr list  (** new Point(x, y); new ArrayList<>() *)
  | Ternary of expr * expr * expr
  | Cast of ty * expr
  | ArrLen of expr  (** a.length *)

type lvalue =
  | LVar of string
  | LIndex of expr * expr  (** base expression, index *)
  | LField of expr * string

type stmt =
  | Decl of ty * string * expr option
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | DoWhile of stmt list * expr
  | For of stmt list * expr option * stmt list * stmt list
      (** init statements, condition, update statements, body *)
  | ForEach of ty * string * expr * stmt list
  | Break
  | Continue
  | Return of expr option
  | ExprStmt of expr
  | Block of stmt list

type meth = {
  mname : string;
  ret : ty;
  params : (ty * string) list;
  body : stmt list;
}

type class_decl = { cname : string; cfields : (ty * string) list }

type program = { classes : class_decl list; methods : meth list }

(** The program's method of this name, if any. *)
val find_method : program -> string -> meth option

(** The program's class of this name, if any. *)
val find_class : program -> string -> class_decl option

(** Fold [stmt] over every statement and [expr] over every expression of
    a statement list, nested ones included. *)
val fold_stmts :
  expr:('a -> expr -> 'a) -> stmt:('a -> stmt -> 'a) -> 'a -> stmt list -> 'a

(** Variables read anywhere in an expression. *)
val vars_of_expr : expr -> string list

(** Variables assigned (as lvalue roots) anywhere in a statement list. *)
val assigned_vars : stmt list -> string list

(** Variables read anywhere in a statement list. *)
val read_vars : stmt list -> string list
