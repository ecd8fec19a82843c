(** Multisets (bags) of runtime values.

    The MapReduce operators of the paper (§2.1) are defined over multisets;
    bag equality (order-insensitive) is what summary verification compares
    when an output is itself a dataset. Represented as a plain list — the
    engine cares about element order only for determinism of iteration, and
    all equality checks sort first. *)

type 'a t = 'a list

(** Bag equality of value multisets with float tolerance: sort both sides
    with the exact order, then compare pairwise approximately. Sorting by
    the exact order can pair up slightly-different floats inconsistently
    only when two elements are within tolerance of each other, in which
    case either pairing is accepted. *)
let equal_values (a : Value.t t) (b : Value.t t) =
  List.length a = List.length b
  && List.for_all2 Value.equal_approx
       (List.sort Value.compare a)
       (List.sort Value.compare b)

(** Group a bag of key-value pairs by key under {!Value.equal}; the
    per-key bags preserve first-seen key order for deterministic
    iteration. Accumulates into mutable cells so each pair costs one
    hash lookup. *)
let group_by_key (pairs : (Value.t * Value.t) list) :
    (Value.t * Value.t list) list =
  let tbl : Value.t list ref Value.Tbl.t = Value.Tbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (k, v) ->
      match Value.Tbl.find_opt tbl k with
      | Some cell -> cell := v :: !cell
      | None ->
          let cell = ref [ v ] in
          Value.Tbl.add tbl k cell;
          order := (k, cell) :: !order)
    pairs;
  List.rev_map (fun (k, cell) -> (k, List.rev !cell)) !order
