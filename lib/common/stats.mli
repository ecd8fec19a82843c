(** Small numeric helpers for the bench harness. *)

(** The arithmetic mean; [0.0] for an empty list. *)
val mean : float list -> float

(** The largest element; [0.0] for an empty list. *)
val maximum : float list -> float
