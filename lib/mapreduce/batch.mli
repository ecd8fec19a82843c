(** Array-backed record batches: the engine's physical data plane.

    A batch is an immutable-by-convention [Value.t array] plus a cached
    total byte size under {!Casper_common.Value.size_of}. Stage kernels
    ([map]/[filter]/[concat_map]) run as tight array loops over the
    whole batch, on the calling domain, and fuse volume accounting into
    the same pass: each kernel returns a batch whose byte size it
    accumulated while producing the records, so the engine never
    re-walks a dataset with a separate [List.length] + [size_of] fold. *)

module Value = Casper_common.Value

type t

(** Wrap an array. [bytes], when the caller already knows it (because
    the producing pass accumulated it), seeds the cache; otherwise the
    first {!bytes} call computes and memoizes it. The array is owned by
    the batch afterwards — callers must not mutate it. *)
val of_array : ?bytes:int -> Value.t array -> t

val of_list : Value.t list -> t
val to_list : t -> Value.t list

(** The backing array, for single-pass consumers (grouping, folds).
    Read-only by convention. *)
val data : t -> Value.t array

val length : t -> int
val get : t -> int -> Value.t

(** Total [Value.size_of] of the records, cached after the first call
    (or seeded at construction by a fused kernel). *)
val bytes : t -> int

val empty : unit -> t

(** [map f b]: [f] over every record, in order, sizes fused. *)
val map : (Value.t -> Value.t) -> t -> t

(** The records satisfying the predicate, in order, sizes fused. *)
val filter : (Value.t -> bool) -> t -> t

(** Each record's outputs, concatenated in record order, sizes fused. *)
val concat_map : (Value.t -> Value.t list) -> t -> t
