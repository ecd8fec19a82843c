(** Typed random-program generator for the differential tester.

    Emits well-formed MiniJava loop nests drawn from the same shape and
    operator families the synthesis grammar targets — unguarded and
    guarded scalar folds (sum, product, min/max via comparison),
    multi-accumulator folds, keyed folds over strings and record fields,
    string search, counted loops over parallel arrays, doubly-nested
    matrix folds, and nested-loop joins. Every program is well-typed by
    construction (and the oracle re-checks), uses only modeled library
    methods ([put], [getOrDefault], [equals], [Math.min]/[Math.max]),
    and avoids faulting operators (no division or modulo on data), so a
    reference run can only diverge from the lifted run through a real
    pipeline bug.

    All randomness flows through one {!Casper_common.Rng} stream: a
    (seed, index) pair always regenerates the same program. *)

open Minijava.Ast
module Rng = Casper_common.Rng

type generated = { shape : string; prog : program }

(** One random program. Consumes a deterministic amount of [rng] state
    for a given draw sequence, so campaign runs replay exactly. *)
val program : Rng.t -> generated
