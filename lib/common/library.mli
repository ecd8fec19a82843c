(** Semantic models of external library methods (paper §6.1, Appendix B).

    Casper supports library methods "by modeling their semantics explicitly
    using the IR". Here each supported method is a named OCaml denotation
    over {!Value.t}; the MiniJava interpreter and the IR evaluator both
    dispatch through this table, so a summary that calls [Math.min] means
    the same thing on both sides of a verification check.

    Dates are modeled as integers (a monotone day count), exactly enough
    for the [before]/[after] comparisons TPC-H queries need. *)

exception Unknown_method of string

(** The monotone day count of year [y], month [m], day [d]. *)
val day_count : int -> int -> int -> int

(** Parse "YYYY-MM-DD" into its {!day_count}; raises
    {!Value.Type_error} on a malformed literal. *)
val parse_date : string -> int

(** The kind of value a method returns. Each type checker maps it to
    its own type: [K_strings] is the IR's [TBag TString] and MiniJava's
    [TList TString]. [K_date] values are {!day_count} integers.
    [K_numeric_arg] ([Math.min]/[max]/[abs]) follows the numeric type
    of the arguments. *)
type kind =
  | K_int
  | K_float
  | K_bool
  | K_string
  | K_date
  | K_strings
  | K_numeric_arg

(** [resolve name] is the denotation of library method [name], looked up
    once: callers that apply one method many times (staged IR code)
    resolve it outside the loop. Arguments of the wrong arity or kind
    raise {!Unknown_method} ["name/arity"], as an unknown name does;
    out-of-range or malformed arguments raise {!Value.Type_error}. *)
val resolve : string -> Value.t list -> Value.t

(** [apply name args] evaluates library method [name]. *)
val apply : string -> Value.t list -> Value.t

(** Methods known to the IR / grammar generator, with arities. Methods not
    in this table make a fragment untranslatable (paper: Fiji failures due
    to unmodeled ImageJ methods). *)
val known : (string * int) list

(** Whether [name] is a modeled method. *)
val is_known : string -> bool

(** [kind name] is the kind of value method [name] returns; [None] for
    an unknown method. *)
val kind : string -> kind option
