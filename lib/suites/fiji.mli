(** The Fiji/ImageJ suite (§7.1): four real image-processing plugins —
    NL Means, Red To Magenta, Temporal Median, Trails. 35 candidate
    fragments, 23 translated. The paper attributes the 12 failures to
    unmodeled ImageJ library methods (3) and synthesis timeouts (9);
    the timeout fragments here are loops (argmax/median-style selection
    with dependent outputs) whose summaries are outside the IR search
    space, so the search exhausts its budget. *)

(** The suite's benchmarks. *)
val all : Suite.benchmark list
