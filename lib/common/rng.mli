(** Deterministic pseudo-random generator (splitmix64).

    Everything in the reproduction that needs randomness — synthetic
    workload generation, the synthesizer's initial program states, the
    full verifier's large-domain sampling — draws from one of these so
    runs are reproducible without touching the global [Random] state. *)

type t = { mutable state : int64 }

(** A generator seeded with [seed]. *)
val create : int -> t

(** The state's increment per draw. *)
val gamma : int64

(** The next 64 random bits. *)
val next_int64 : t -> int64

(** Advance [t] past [k] draws of {!next_int64} in O(1), leaving it as
    [k] draws would: each draw adds [gamma] to the state. *)
val skip : t -> int -> unit

(** Uniform int in [0, bound). [bound] must be positive. *)
val int : t -> int -> int

(** Uniform int in [lo, hi] inclusive. *)
val int_range : t -> int -> int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

(** Uniform float in [lo, hi). *)
val float_range : t -> float -> float -> float

(** A fair coin. *)
val bool : t -> bool

(** Bernoulli draw with probability [p]. *)
val bernoulli : t -> float -> bool

(** A uniform element of a non-empty list; raises [Invalid_argument] on
    an empty one. *)
val pick : t -> 'a list -> 'a

(** A uniform permutation of the list (Fisher–Yates). *)
val shuffle : t -> 'a list -> 'a list

(** Zipf-like skewed choice over [0, n): rank r with weight 1/(r+1)^s.
    Used to generate skewed key distributions for the dynamic-tuning
    experiments (§7.4). [zipf ~n ~s] builds the weight table once and
    returns the sampler; each draw costs one {!float} and O(log n)
    comparisons, and returns the rank a linear scan of the running
    weight sums would: the first [i <= n - 2] whose sum exceeds the
    scaled draw, else [n - 1]. *)
val zipf : n:int -> s:float -> t -> int

(** A lowercase ASCII word of length in [min_len, max_len]. *)
val word : t -> min_len:int -> max_len:int -> string
