module Tbl = Hashtbl.Make (struct
  type t = Lang.expr

  (* smart constructors hand back canonical representatives, so the
     overwhelmingly common lookup is resolved by pointer equality *)
  let equal (a : t) (b : t) = a == b || a = b

  (* [expr_id] runs on every construction key, and the fingerprint
     cells are keyed by expression, so the hash must be O(1)-bounded:
     the default polymorphic hash examines at most 10 meaningful words.
     Pool expressions are small (≲10 nodes), so collisions are rare, and
     the structural comparison that resolves them fails fast. *)
  let hash (e : t) = Hashtbl.hash e
end)

(* Both tables start small and grow with the search: over the Table-2
   fragments a search interns at most about 600 expressions and up to
   31,000 candidate keys, most searches far fewer. Growth doubles, so a
   large search rehashes each entry about once on average. Nothing is
   ever removed, so a table's size is its next id. *)
type t = { exprs : (Lang.expr * int) Tbl.t; keys : (int list, int) Hashtbl.t }

let create () : t = { exprs = Tbl.create 1024; keys = Hashtbl.create 4096 }

(* canonical representative and id of [e]'s structural class *)
let intern (h : t) (e : Lang.expr) : Lang.expr * int =
  match Tbl.find_opt h.exprs e with
  | Some entry -> entry
  | None ->
      let entry = (e, Tbl.length h.exprs) in
      Tbl.add h.exprs e entry;
      entry

(** Canonical representative of an expression: structurally equal
    expressions share one physical value, so later interning and
    comparison hit the pointer-equality fast path. *)
let expr (h : t) (e : Lang.expr) : Lang.expr = fst (intern h e)

let expr_id (h : t) (e : Lang.expr) : int = snd (intern h e)

(* ------------------------------------------------------------------ *)
(* Smart constructors: build interned nodes so that grammar pools and
   enumerated candidates physically share common subtrees. *)

open Lang

let cint h n = expr h (CInt n)
let cfloat h f = expr h (CFloat f)
let cbool h b = expr h (CBool b)
let cstr h s = expr h (CStr s)
let var h v = expr h (Var v)
let unop h op a = expr h (Unop (op, a))
let binop h op a b = expr h (Binop (op, a, b))
let call h f args = expr h (Call (f, args))
let mktuple h es = expr h (MkTuple es)
let tupleget h a i = expr h (TupleGet (a, i))
let field h a f = expr h (Field (a, f))
let ite h c t e = expr h (If (c, t, e))

let rec intern_deep (h : t) (e : Lang.expr) : Lang.expr =
  let deep = intern_deep h in
  match e with
  | CInt _ | CFloat _ | CBool _ | CStr _ | Var _ -> expr h e
  | Unop (op, a) -> unop h op (deep a)
  | Binop (op, a, b) -> binop h op (deep a) (deep b)
  | Call (f, args) -> call h f (List.map deep args)
  | MkTuple es -> mktuple h (List.map deep es)
  | TupleGet (a, i) -> tupleget h (deep a) i
  | Field (a, f) -> field h (deep a) f
  | If (c, t, e') -> ite h (deep c) (deep t) (deep e')

(* ------------------------------------------------------------------ *)
(* Construction-time candidate keys.

   Enumeration shapes assemble every candidate from a handful of
   already-interned components (emits, reducers, post-map expressions),
   so a candidate is identified by its shape tag plus the ids of its
   components — no hash of the assembled summary record is ever needed.
   [key_of] interns the component-id list of one candidate; [emit_id]
   interns an emit as the list [-3; guard id; key id; value id]. Both
   are injective: expression ids are bijective with interned
   expressions, the sentinel slots (-1 no guard, -2 value payload)
   cannot collide with real ids, and each shape uses a distinct leading
   tag (the shapes' are positive) with a fixed component layout. *)

let key_of (h : t) (components : int list) : int =
  match Hashtbl.find_opt h.keys components with
  | Some i -> i
  | None ->
      let i = Hashtbl.length h.keys in
      Hashtbl.add h.keys components i;
      i

let emit_id (h : t) ({ guard; payload } : Lang.emit) : int =
  let gid = match guard with None -> -1 | Some g -> expr_id h g in
  key_of h
    (match payload with
    | Lang.KV (k, v) -> [ -3; gid; expr_id h k; expr_id h v ]
    | Lang.Val v -> [ -3; gid; -2; expr_id h v ])
