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
val equal_values : Value.t t -> Value.t t -> bool

(** Group a bag of key-value pairs by key under {!Value.equal}; the
    per-key bags preserve first-seen key order for deterministic
    iteration. Accumulates into mutable cells so each pair costs one
    hash lookup. *)
val group_by_key : (Value.t * Value.t) t -> (Value.t * Value.t t) t
