(** Hash-consing for IR expressions.

    An interner ({!t}) gives every structurally distinct expression a
    small integer id. One search makes one interner ([Grammar.build]
    does, and keeps it in the pools the enumerator reads), and its ids
    mean something only to the tables of that search: construction keys
    are interned as the list [shape tag :: component ids] each
    enumeration shape assembles its candidate from, so the CEGIS
    blocked set Ω ∪ Δ is a hash set of ints and no candidate is ever
    deep-hashed or pretty-printed during the search. Nothing here is
    shared between searches, so nothing needs a lock, and an interner
    is freed with the search that made it.

    Interning uses structural equality over the bounded polymorphic
    hash ([Hashtbl.hash], which examines at most 10 meaningful words:
    pool expressions are small). Float corner cases: an expression
    containing a NaN constant is never equal to itself under [(=)], so
    it re-interns under a fresh id each time — caches miss but every id
    still denotes one structural class, so results are unaffected (and
    no MiniJava suite produces NaN literals). *)

(** Tables keyed by expression, hashed by [Hashtbl.hash]. *)
module Tbl : Hashtbl.S with type key = Lang.expr

(** An interner: expressions with their ids, and candidate keys with
    theirs. *)
type t = { exprs : (Lang.expr * int) Tbl.t; keys : (int list, int) Hashtbl.t }

(** A fresh interner, for one search. *)
val create : unit -> t

(** The id of [e]'s structural class, interning [e] on first sight. *)
val expr_id : t -> Lang.expr -> int

(** {2 Smart constructors}

    Each returns the interned representative of the node it builds, so
    grammar pools and enumerated candidates physically share common
    subtrees. *)

val cint : t -> int -> Lang.expr

val cfloat : t -> float -> Lang.expr

val cbool : t -> bool -> Lang.expr

val cstr : t -> string -> Lang.expr

val var : t -> string -> Lang.expr

val unop : t -> Lang.unop -> Lang.expr -> Lang.expr

val binop : t -> Lang.binop -> Lang.expr -> Lang.expr -> Lang.expr

val call : t -> string -> Lang.expr list -> Lang.expr

val mktuple : t -> Lang.expr list -> Lang.expr

val tupleget : t -> Lang.expr -> int -> Lang.expr

val field : t -> Lang.expr -> string -> Lang.expr

val ite : t -> Lang.expr -> Lang.expr -> Lang.expr -> Lang.expr

(** Rebuild an arbitrary expression bottom-up through the smart
    constructors, maximizing physical sharing. *)
val intern_deep : t -> Lang.expr -> Lang.expr

(** The id of one candidate's construction key: its shape tag followed
    by its component ids. Injective: each shape uses its own leading tag
    and a fixed component layout. *)
val key_of : t -> int list -> int

(** The id of an emit, interned as the key [-3; guard id; key id; value
    id] ([-1] for no guard, [-2] for a value payload). *)
val emit_id : t -> Lang.emit -> int
