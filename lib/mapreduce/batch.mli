(** Array-backed record batches: the engine's physical data plane.

    A batch is an immutable-by-convention [Value.t array] plus a cached
    total byte size under {!Casper_common.Value.size_of}. A {!feed} is
    a per-record iterator: the engine's record stages are feed
    transformers, and a stage's records either land in a batch
    ({!collect}, which accumulates their byte size in the same pass, so
    the engine never re-walks a dataset with a separate [List.length] +
    [size_of] fold) or stream straight into the next stage's grouping. *)

module Value = Casper_common.Value

type t

(** Wrap an array. [bytes], when the caller already knows it (because
    the producing pass accumulated it), seeds the cache; otherwise the
    first {!bytes} call computes and memoizes it. The array is owned by
    the batch afterwards — callers must not mutate it. *)
val of_array : ?bytes:int -> Value.t array -> t

val of_list : Value.t list -> t
val to_list : t -> Value.t list

(** The backing array, for the engine's single-pass record source.
    Read-only by convention. *)
val data : t -> Value.t array

val length : t -> int

(** Total [Value.size_of] of the records, cached after the first call
    (or seeded at construction, as {!collect} does). *)
val bytes : t -> int

val empty : unit -> t

(** A feed hands each of its records, in order, to the sink it is
    given. A batch is one kind of feed; a map kernel over a feed is
    another. *)
type feed = (Value.t -> unit) -> unit

(** Materialize a feed: its records in arrival order, their byte total
    accumulated as they arrive. [capacity] pre-sizes the buffer (it
    doubles when full). *)
val collect : ?capacity:int -> feed -> t
