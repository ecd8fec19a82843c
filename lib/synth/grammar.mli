(** Search-space grammars, generated per fragment and organized as the
    incremental hierarchy of §4.2 / Figure 6.

    A grammar class bounds four syntactic features: the number of
    MapReduce operations, the number of emits per λm, whether tuple
    keys/values are allowed, and the expression length. Every summary
    expressible in class Gᵢ is expressible in Gⱼ for j > i.

    Expression pools are built from the fragment's own terminals —
    record components, in-scope inputs, constants — closed under the
    operators and library methods the code uses (§3.2), with the loop
    body's lifted sub-expressions as additional productions (the
    Appendix D generator specializes its grammar to the fragment the
    same way). Pools are deduplicated *observationally*: two productions
    with identical behaviour on a set of probe states are the same
    production. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang
module Eval = Casper_ir.Eval
module Memo = Casper_ir.Memo
module H = Casper_ir.Hashcons

(** A grammar class: the bounds on its summaries' operations, emits per
    λm, tuple keys/values and expression length. *)
type klass = {
  k_id : int;
  max_ops : int;
  max_emits : int;
  allow_tuples : bool;
  max_len : int;
}

(** The grammar hierarchy for a fragment. Join-shaped fragments get a
    single join class (their pipelines need the join operator from the
    start); everything else climbs G1 → G2 → G3. *)
val classes : F.t -> klass list

(** The flat (non-incremental) grammar used by the Table 3 ablation: the
    most expressive class only, with generous bounds. *)
val flat_class : F.t -> klass

(** Probe states: each binds every λm parameter and input scalar. *)
type probe = Eval.env list

(** Keep the structurally smallest expression per behaviour, capped at
    [limit] survivors. The result is sorted by expression size —
    enumeration visits cheap productions first, which is what biases the
    search towards inexpensive summaries (§4.2). The cap is applied
    *during* filtering, so expressions past it never pay fingerprint
    cost; the output is identical to filtering everything and capping
    afterwards. *)
val dedupe_c :
  ?keep:(Ir.expr -> bool) ->
  ?size:(Ir.expr -> int) ->
  ?limit:int -> Memo.probe_set -> Ir.expr list -> Ir.expr list

type pools = {
  params : (string * Ir.ty) list;  (** λm parameters for record stages *)
  scalars : (string * Ir.ty) list;  (** free input variables *)
  ints : Ir.expr list;
  floats : Ir.expr list;
  bools : Ir.expr list;  (** guard candidates *)
  strings : Ir.expr list;
  probes : probe;
  cprobes : Memo.probe_set;
      (** [probes] with their fingerprint cells; its counts are the
          search's *)
  hc : H.t;
      (** the search's interner: pool expressions are its canonical
          representatives, and candidate keys are its ids *)
  ops : Ir.binop list;
  structs : (string * (string * Ir.ty) list) list;
  harvested : (Ir.expr, unit) Hashtbl.t;
      (** sub-expressions lifted from the fragment body; these are leaf
          productions of the generated grammar (Appendix D), so the
          class expression-length bound treats them as size 1 *)
}

(** Grammar length of an expression: harvested productions are leaves. *)
val glen : pools -> Ir.expr -> int

(** The first [n] elements of a list. *)
val cap : int -> 'a list -> 'a list

(** The type environment of the pools' λm parameters, scalars and record
    types. *)
val tenv_of : pools -> Casper_ir.Infer.tenv

(** Whether an operator is arithmetic ([Add], [Sub], [Mul], [Div], [Mod],
    [Min], [Max]). *)
val is_arith : Ir.binop -> bool

(** Build the pools for a fragment, with their probes: one harvest of
    the loop body feeds both the probes' coverage pass and the pools'
    productions. *)
val build : Minijava.Ast.program -> F.t -> pools

(** [dedupe_c] on other probes, whose cells count as [p]'s search's. *)
val dedupe :
  pools ->
  ?keep:(Ir.expr -> bool) ->
  ?size:(Ir.expr -> int) ->
  ?limit:int -> probe -> Ir.expr list -> Ir.expr list

(** The pool of expressions of type [t]; empty for a type with no pool. *)
val exprs_of_ty : pools -> Ir.ty -> Ir.expr list

(** Guard alternatives for an emit: unguarded first. *)
val guards : pools -> max_len:int -> Ir.expr option list

(** λr candidates for value type [t]. Includes the degenerate "keep one
    side" reducers — genuine members of the search space that the
    verifier must reject. *)
val reducers : pools -> Ir.ty -> Ir.lam_r list
