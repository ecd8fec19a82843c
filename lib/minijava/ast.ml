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

let rec pp_ty ppf = function
  | TInt -> Fmt.string ppf "int"
  | TLong -> Fmt.string ppf "long"
  | TFloat -> Fmt.string ppf "double"
  | TBool -> Fmt.string ppf "boolean"
  | TString -> Fmt.string ppf "String"
  | TDate -> Fmt.string ppf "Date"
  | TArray t -> Fmt.pf ppf "%a[]" pp_ty t
  | TList t -> Fmt.pf ppf "List<%a>" pp_ty t
  | TMap (k, v) -> Fmt.pf ppf "Map<%a,%a>" pp_ty k pp_ty v
  | TClass n -> Fmt.string ppf n
  | TVoid -> Fmt.string ppf "void"

let ty_to_string t = Fmt.str "%a" pp_ty t

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

let binop_to_string = function
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
  | BitAnd -> "&"
  | BitOr -> "|"
  | BitXor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"

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

let find_method prog name =
  List.find_opt (fun m -> String.equal m.mname name) prog.methods

let find_class prog name =
  List.find_opt (fun c -> String.equal c.cname name) prog.classes

(* ------------------------------------------------------------------ *)
(* Traversals used throughout the analyses.                            *)

let rec fold_expr (f : 'a -> expr -> 'a) (acc : 'a) (e : expr) : 'a =
  let acc = f acc e in
  match e with
  | IntLit _ | FloatLit _ | BoolLit _ | StrLit _ | Var _ -> acc
  | Unop (_, a) | Cast (_, a) | ArrLen a | Field (a, _) -> fold_expr f acc a
  | Binop (_, a, b) | Index (a, b) -> fold_expr f (fold_expr f acc a) b
  | Ternary (a, b, c) ->
      fold_expr f (fold_expr f (fold_expr f acc a) b) c
  | Call (_, args) | NewArray (_, args) | NewObj (_, args) ->
      List.fold_left (fold_expr f) acc args
  | MethodCall (r, _, args) ->
      List.fold_left (fold_expr f) (fold_expr f acc r) args

let exprs_of_lvalue = function
  | LVar _ -> []
  | LIndex (b, i) -> [ b; i ]
  | LField (b, _) -> [ b ]

let rec fold_stmt ~(expr : 'a -> expr -> 'a) ~(stmt : 'a -> stmt -> 'a)
    (acc : 'a) (s : stmt) : 'a =
  let acc = stmt acc s in
  let fe = fold_expr expr in
  let fss acc l = List.fold_left (fold_stmt ~expr ~stmt) acc l in
  match s with
  | Decl (_, _, None) | Break | Continue | Return None -> acc
  | Decl (_, _, Some e) | ExprStmt e | Return (Some e) -> fe acc e
  | Assign (lv, e) -> fe (List.fold_left fe acc (exprs_of_lvalue lv)) e
  | If (c, t, f) -> fss (fss (fe acc c) t) f
  | While (c, b) -> fss (fe acc c) b
  | DoWhile (b, c) -> fe (fss acc b) c
  | For (init, c, upd, b) ->
      let acc = fss acc init in
      let acc = match c with Some c -> fe acc c | None -> acc in
      fss (fss acc upd) b
  | ForEach (_, _, e, b) -> fss (fe acc e) b
  | Block b -> fss acc b

let fold_stmts ~expr ~stmt acc l =
  List.fold_left (fold_stmt ~expr ~stmt) acc l

let vars_of_expr e =
  fold_expr
    (fun acc -> function Var v -> v :: acc | _ -> acc)
    [] e
  |> List.sort_uniq String.compare

let assigned_vars (stmts : stmt list) : string list =
  let rec lv_root = function
    | LVar v -> Some v
    | LIndex (b, _) | LField (b, _) -> root_of_expr b
  and root_of_expr = function
    | Var v -> Some v
    | Index (b, _) | Field (b, _) -> root_of_expr b
    | _ -> None
  in
  fold_stmts
    ~expr:(fun acc _ -> acc)
    ~stmt:(fun acc -> function
      | Assign (lv, _) -> (
          match lv_root lv with Some v -> v :: acc | None -> acc)
      | Decl (_, v, _) -> v :: acc
      | ExprStmt (MethodCall (Var v, ("put" | "add" | "set" | "remove"), _))
        ->
          (* collection mutation counts as assignment to the receiver *)
          v :: acc
      | _ -> acc)
    [] stmts
  |> List.sort_uniq String.compare

let read_vars (stmts : stmt list) : string list =
  fold_stmts
    ~expr:(fun acc -> function Var v -> v :: acc | _ -> acc)
    ~stmt:(fun acc _ -> acc)
    [] stmts
  |> List.sort_uniq String.compare
