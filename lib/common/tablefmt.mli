(** ASCII table rendering for the benchmark harness, so the experiment
    output reads like the paper's tables. *)

type align = Left | Right

(** Render [rows] (first row is the header) with per-column alignment.
    Missing alignments default to Left. *)
val render : ?aligns:align list -> string list list -> string

(** Print {!render}'s table on stdout, with a newline. *)
val print : ?aligns:align list -> string list list -> unit

(** A ratio with [digits] decimals (default 1) and an [x] suffix, as in
    [1.3x]. *)
val fx : ?digits:int -> float -> string

(** A float with [digits] decimals (default 1). *)
val f : ?digits:int -> float -> string

(** A byte count in MiB, with one decimal. *)
val mb : int -> string
