(** Code fragments and their iteration schemas.

    A fragment is a loop nest that Casper's analyzer selected for
    translation (§6.2), together with the statements preceding it in the
    enclosing method (which establish the entry state: accumulator
    initializations, parsed constants, output allocations).

    The iteration schema describes how the loop consumes data — which
    dataset(s) it reads and what a *record* looks like to the IR mapper.
    This is what lets verification truncate the data to a prefix
    (Figure 4's [mat\[0..i\]]) and lets the engine convert live inputs
    into key-value records. *)

open Minijava.Ast

type schema =
  | SList of { data : string; elem : string; elem_ty : ty }
      (** [for (T x : data)] — records are the list elements *)
  | SArrays of {
      idx : string;
      bound : expr;  (** iteration count, evaluable at loop entry *)
      arrays : (string * ty) list;  (** arrays indexed by [idx]; elem types *)
    }
      (** counted loop over parallel arrays — records are
          (i, a\[i\], b\[i\], …) *)
  | SMatrix of {
      data : string;
      i : string;
      j : string;
      rows : expr;
      cols : expr;
      elem_ty : ty;
    }  (** doubly-nested loop over a 2-D array — records are (i, j, v) *)
  | SJoin of {
      d1 : string;
      x1 : string;
      ty1 : ty;
      d2 : string;
      x2 : string;
      ty2 : ty;
    }  (** nested iteration over two datasets — join-shaped fragment *)

(** Syntactic features of a fragment (Appendix E.1). *)
type feature =
  | FConditionals
  | FUserDefinedTypes
  | FNestedLoops
  | FMultipleDatasets
  | FMultidimDataset

(** The feature's column name in Appendix E.1's table. *)
val feature_name : feature -> string

(** Why a fragment cannot be translated (§7.1 failure taxonomy). *)
type unsupported =
  | Unmodeled_method of string
      (** library method with no IR model (Fiji/ImageJ failures) *)
  | Transformer_needs_loop
      (** cross-record access / variable-size kernels — would require
          loops inside λm (Phoenix & Stats failures) *)
  | Broadcast_mapper
      (** one input record feeding many reducers (Bigλ failures) *)
  | Early_exit  (** break/continue escaping the loop *)
  | No_iteration_space  (** loop does not iterate a data structure *)

(** A one-line reason, for reports. *)
val unsupported_to_string : unsupported -> string

(** The kind of an output variable. *)
type out_kind = KScalar | KArray | KMap

type t = {
  frag_id : string;  (** "<method>#<n>" *)
  suite : string;  (** benchmark suite name, filled by the driver *)
  benchmark : string;
  meth : meth;
  pre : stmt list;  (** statements before the loop in the method body *)
  loop : stmt;
  body : stmt list;  (** the loop's body *)
  schema : schema;
  input_scalars : (string * ty) list;
      (** scalar/string/date variables live at loop entry and read in the
          loop — free variables of the summary *)
  outputs : (string * ty * out_kind) list;
  constants : Casper_common.Value.t list;
  operators : Casper_ir.Lang.binop list;
  methods : string list;  (** modeled library methods used *)
  features : feature list;
  unsupported : unsupported option;
  loc : int;  (** source lines of the fragment, for Table 2 *)
}

(** The datasets a loop reads, in schema order. *)
val datasets_of_schema : schema -> string list

(** The dataset whose prefix the loop invariant truncates. *)
val primary_dataset : t -> string

(** How an output of this type is compared: arrays and maps whole, every
    other type as a scalar. *)
val out_kind_of_ty : Minijava.Ast.ty -> out_kind
