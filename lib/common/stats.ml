(** Small numeric helpers for the bench harness. *)

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let maximum = function
  | [] -> 0.0
  | x :: rest -> List.fold_left Float.max x rest

