(** The Bigλ suite (§7.1): data-analysis tasks — sentiment analysis,
    database-style selection and projection, Wikipedia log processing —
    reimplemented as sequential Java from their textual descriptions (as
    the paper had graduate students do). 8 fragments, 6 translated: the
    two failures fan one input record out to many reducers, which the
    IR's loop-free mappers cannot express. *)

(** The suite's benchmarks. *)
val all : Suite.benchmark list
