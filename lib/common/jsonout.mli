(** A minimal JSON writer — enough to emit Chrome traces and their
    metrics files without an external dependency. Output is plain
    ASCII; floats print with [%.6g] and non-finite values degrade to
    [null] (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** The JSON text of a value, indented, with a final newline. *)
val to_string : t -> string

(** Write {!to_string}'s text to [path], replacing the file. *)
val write_file : string -> t -> unit
