(** Synthetic workload generators.

    The paper's performance experiments run on synthetic datasets of
    25/50/75 GB with controllable skew (§7.2, §7.4); these helpers
    produce the in-memory samples that stand in for them, with the same
    knobs: record count, match probability, key skew. All generation is
    deterministic given the RNG seed. Each generator does constant work
    per record: what every record draws from, such as the Zipf sampler
    and the word dictionary of {!words}, is built once per call. *)

module Value = Casper_common.Value
module Rng = Casper_common.Rng

(** [n] uniform ints in [\[lo, hi\]]. *)
val ints : Rng.t -> n:int -> lo:int -> hi:int -> Value.t

(** [n] uniform floats in [\[lo, hi)]. *)
val floats : Rng.t -> n:int -> lo:float -> hi:float -> Value.t

(** A [rows] × [cols] matrix of uniform ints in [\[lo, hi\]]. *)
val matrix : Rng.t -> rows:int -> cols:int -> lo:int -> hi:int -> Value.t

(** A [rows] × [cols] matrix of uniform floats in [\[lo, hi)]. *)
val float_matrix :
  Rng.t -> rows:int -> cols:int -> lo:float -> hi:float -> Value.t

(** Words drawn from a vocabulary of [vocab] distinct words with
    Zipf-like skew [s] (s = 0 → uniform). *)
val words : Rng.t -> n:int -> vocab:int -> skew:float -> Value.t

(** Word stream where a fraction [p1] matches [key1] and [p2] matches
    [key2] (the StringMatch skew datasets of §7.4). *)
val match_words :
  Rng.t ->
  n:int -> key1:string -> key2:string -> p1:float -> p2:float -> Value.t

(** A list of [n] records, each drawn by [mk]. *)
val structs : Rng.t -> n:int -> (Rng.t -> Value.t) -> Value.t

(** RGB pixel stream for the image benchmarks: tuples of channel values
    flattened into structs. *)
val pixels : Rng.t -> n:int -> Value.t
