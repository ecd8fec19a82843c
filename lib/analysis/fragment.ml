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

type feature =
  | FConditionals
  | FUserDefinedTypes
  | FNestedLoops
  | FMultipleDatasets
  | FMultidimDataset

let feature_name = function
  | FConditionals -> "Conditionals"
  | FUserDefinedTypes -> "User Defined Types"
  | FNestedLoops -> "Nested Loops"
  | FMultipleDatasets -> "Multiple Datasets"
  | FMultidimDataset -> "Multidim. Dataset"

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

let unsupported_to_string = function
  | Unmodeled_method m -> "unmodeled library method " ^ m
  | Transformer_needs_loop -> "transformer functions would require loops"
  | Broadcast_mapper -> "mapper would broadcast to many reducers"
  | Early_exit -> "loop has data-dependent early exit"
  | No_iteration_space -> "loop does not iterate a dataset"

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

let datasets_of_schema = function
  | SList { data; _ } -> [ data ]
  | SArrays { arrays; _ } -> List.map fst arrays
  | SMatrix { data; _ } -> [ data ]
  | SJoin { d1; d2; _ } -> [ d1; d2 ]

let primary_dataset f =
  match f.schema with
  | SList { data; _ } | SMatrix { data; _ } -> data
  | SArrays { arrays; _ } -> (
      match arrays with (d, _) :: _ -> d | [] -> "?")
  | SJoin { d1; _ } -> d1

let out_kind_of_ty = function
  | TArray _ -> KArray
  | TMap _ -> KMap
  | _ -> KScalar
