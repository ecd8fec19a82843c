(** Hash-consing for IR expressions.

    Every structurally distinct expression gets a stable small integer
    id for the lifetime of one synthesis run. Ids are what make the fast
    path cheap: fingerprint cells are cached by [(expr id, probe-set
    id)], observational fingerprints are arrays of interned value ids,
    and the CEGIS blocked set Ω ∪ Δ is a hash set of construction keys —
    [key_of] interns the list [shape tag :: component ids] each
    enumeration shape assembles its candidate from, so no candidate is
    ever deep-hashed or pretty-printed during the search.

    Domain-safety: all interner state is a per-domain shard
    ([Domain.DLS]), so ids are only meaningful within the domain that
    interned them — which is exactly how they are used: every id-keyed
    cache (fingerprint cells, the blocked set) lives in the same domain
    as the interner that produced its keys. Nothing is shared, so
    nothing needs a lock, and the single-domain fast path pays only a
    [Domain.DLS.get] (an array read) per intern. See DESIGN.md §10 for
    why sharding was chosen over a shared atomic table.

    Interning uses structural equality over the bounded polymorphic
    hash ([Hashtbl.hash], which examines at most 10 meaningful words:
    pool expressions are small). Float corner cases: an expression
    containing a NaN constant is never equal to itself under [(=)], so
    it re-interns under a fresh id each time — caches miss but every id
    still denotes one structural class, so results are unaffected (and
    no MiniJava suite produces NaN literals).

    [clear] empties the calling domain's tables (called at the top of
    each [find_summary] so memory stays bounded by one fragment's
    search) but never reuses ids: counters are monotonic per domain, so
    a stale id can never collide with a post-clear one. *)

module Tbl = Hashtbl.Make (struct
  type t = Lang.expr

  (* smart constructors hand back canonical representatives, so the
     overwhelmingly common lookup is resolved by pointer equality *)
  let equal (a : t) (b : t) = a == b || a = b

  (* [expr_id] runs on every fingerprint cell lookup and every
     construction key, so its hash must be O(1)-bounded: the default
     polymorphic hash examines at most 10 meaningful words. Pool
     expressions are small (≲10 nodes), so collisions are rare, and the
     structural comparison that resolves them fails fast. *)
  let hash (e : t) = Hashtbl.hash e
end)

type shard = { tbl : (Lang.expr * int) Tbl.t; mutable next : int }

(* small, and grown by the search that needs more: [clear] runs at the
   top of every fragment search and [Tbl.reset] shrinks the table back
   to this initial size, so a large one would be reallocated by every
   search, most of which intern a few thousand expressions. Growth
   doubles, so a large search rehashes each entry about once on
   average. *)
let shard : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tbl = Tbl.create 4096; next = 0 })

(* canonical representative and id of [e]'s structural class, in the
   calling domain's shard *)
let intern (e : Lang.expr) : Lang.expr * int =
  let s = Domain.DLS.get shard in
  match Tbl.find_opt s.tbl e with
  | Some entry -> entry
  | None ->
      let i = s.next in
      s.next <- i + 1;
      Tbl.add s.tbl e (e, i);
      (e, i)

(** Canonical representative of an expression: structurally equal
    expressions share one physical value, so later interning and
    comparison hit the pointer-equality fast path. *)
let expr (e : Lang.expr) : Lang.expr = fst (intern e)

let expr_id (e : Lang.expr) : int = snd (intern e)

(* ------------------------------------------------------------------ *)
(* Smart constructors: build interned nodes so that grammar pools,
   lifted sub-expressions and enumerated candidates physically share
   common subtrees. *)

open Lang

let cint n = expr (CInt n)
let cfloat f = expr (CFloat f)
let cbool b = expr (CBool b)
let cstr s = expr (CStr s)
let var v = expr (Var v)
let unop op a = expr (Unop (op, a))
let binop op a b = expr (Binop (op, a, b))
let call f args = expr (Call (f, args))
let mktuple es = expr (MkTuple es)
let tupleget a i = expr (TupleGet (a, i))
let field a f = expr (Field (a, f))
let ite c t e = expr (If (c, t, e))

(** Rebuild an arbitrary expression bottom-up through the smart
    constructors, maximizing physical sharing. *)
let rec intern_deep (e : Lang.expr) : Lang.expr =
  match e with
  | CInt _ | CFloat _ | CBool _ | CStr _ | Var _ -> expr e
  | Unop (op, a) -> unop op (intern_deep a)
  | Binop (op, a, b) -> binop op (intern_deep a) (intern_deep b)
  | Call (f, args) -> call f (List.map intern_deep args)
  | MkTuple es -> mktuple (List.map intern_deep es)
  | TupleGet (a, i) -> tupleget (intern_deep a) i
  | Field (a, f) -> field (intern_deep a) f
  | If (c, t, e') -> ite (intern_deep c) (intern_deep t) (intern_deep e')

(* ------------------------------------------------------------------ *)
(* Construction-time candidate keys.

   Enumeration shapes assemble every candidate from a handful of
   already-interned components (emits, reducers, post-map expressions),
   so a candidate is identified by its shape tag plus the ids of its
   components — no hash of the assembled summary record is ever needed.
   [emit_id] interns an emit as the triple of its component expression
   ids; [key_of] interns the component-id list of one candidate. Both
   are injective: expression ids are bijective with interned
   expressions, the sentinel slots (-1 no guard, -2 value payload)
   cannot collide with real ids, and each shape uses a distinct leading
   tag with a fixed component layout. Per-domain like the interners. *)

type key_shard = {
  emit_tbl : (int * int * int, int) Hashtbl.t;
  mutable emit_next : int;
  key_tbl : (int list, int) Hashtbl.t;
  mutable key_next : int;
}

(* sized like the interners, small and grown by the search: [clear]
   shrinks both tables back to this size *)
let key_shard : key_shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        emit_tbl = Hashtbl.create 4096;
        emit_next = 0;
        key_tbl = Hashtbl.create 4096;
        key_next = 0;
      })

let emit_id ({ guard; payload } : Lang.emit) : int =
  let s = Domain.DLS.get key_shard in
  let gid = match guard with None -> -1 | Some g -> expr_id g in
  let triple =
    match payload with
    | Lang.KV (k, v) -> (gid, expr_id k, expr_id v)
    | Lang.Val v -> (gid, -2, expr_id v)
  in
  match Hashtbl.find_opt s.emit_tbl triple with
  | Some i -> i
  | None ->
      let i = s.emit_next in
      s.emit_next <- i + 1;
      Hashtbl.add s.emit_tbl triple i;
      i

let key_of (components : int list) : int =
  let s = Domain.DLS.get key_shard in
  match Hashtbl.find_opt s.key_tbl components with
  | Some i -> i
  | None ->
      let i = s.key_next in
      s.key_next <- i + 1;
      Hashtbl.add s.key_tbl components i;
      i

let clear () =
  Tbl.reset (Domain.DLS.get shard).tbl;
  let s = Domain.DLS.get key_shard in
  Hashtbl.reset s.emit_tbl;
  Hashtbl.reset s.key_tbl
