(** Runtime values shared by the MiniJava interpreter, the IR evaluator
    and the MapReduce engine. A single value universe keeps verification
    honest: candidate summaries are checked by evaluating both sides to
    values of this type and comparing. *)

type t =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Tuple of t list
  | List of t list  (** arrays, Java Lists, and Map association bags *)
  | Struct of string * (string * t) list
      (** constructor name, fields in declaration order *)

(** Total structural order (numeric kinds compare by constructor tag —
    an [Int] never equals a [Float]). *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Agrees with {!equal}: equal values hash alike. It reads every
    component of a tuple, list or struct, a struct's name and field
    values but not its field names (which {!compare} ignores); both
    zeros hash alike, and so do all NaNs. *)
val hash : t -> int

(** Hash tables keyed by value under {!equal}: the one key identity of
    the engine's shuffles and joins, the spill grouper and the IR
    evaluator's reduce. *)
module Tbl : Hashtbl.S with type key = t

(** Structural equality with float tolerance. Infinities compare equal
    to themselves, and NaN to NaN (both sides diverging identically is
    agreement for verification purposes). *)
val equal_approx : t -> t -> bool

(** Byte-size model used by the cost model and the engine's volume
    accounting (§7.4's constants: 40-byte Strings, 10-byte Booleans,
    28-byte Boolean pairs). *)
val size_of : t -> int

(** Summed {!size_of} over a whole list in one pass. *)
val size_of_list : t list -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

exception Type_error of string

val terr : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Accessors; raise {!Type_error} on kind mismatch. [as_float]
    additionally widens ints. *)
val as_int : t -> int

val as_float : t -> float
val as_bool : t -> bool
val as_str : t -> string
val as_list : t -> t list
val as_struct : t -> string * (string * t) list

(** [field name v] reads a struct field. *)
val field : string -> t -> t
