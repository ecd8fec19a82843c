(** Type inference for IR expressions and pipelines.

    Grammar generation is type-directed (§3.2: "Casper also uses type
    information of variables to prune invalid production rules"), and the
    code generator dispatches on λ types to select API variants
    (Appendix C). *)

open Lang

exception Ill_typed of string

type tenv = {
  vars : (string * ty) list;
  structs : (string * (string * ty) list) list;
      (** user-defined record types *)
}

(** The type of an expression; raises [Ill_typed]. *)
val infer : tenv -> Lang.expr -> Lang.ty

(** Element type produced by a pipeline, given the record type of each
    named dataset. [`KVs (k,v)] for keyed stages, [`Plain t] otherwise. *)
val infer_node :
  tenv ->
  (string -> Lang.ty) ->
  Lang.node ->
  [ `KVs of Lang.ty * Lang.ty | `Plain of Lang.ty | `Recs of Lang.ty ]
