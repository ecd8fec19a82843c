(** QCheck-style shrinking of a diverging program to a minimal
    reproducer.

    Greedy descent over one-step syntactic reductions: drop a statement,
    collapse a conditional to one of its arms, replace an operator
    application by one of its operands, shrink literals toward zero.
    A candidate is adopted when it still parses, typechecks, and makes
    the oracle report a divergence (any stage — the minimal form of a
    bug often fails earlier in the pipeline than the original). Each
    adoption restarts the scan, so the result is a local fixed point:
    no single reduction of the reported program still diverges.

    The oracle is expensive (two synthesis runs per candidate), so the
    total number of oracle calls is capped by [budget]; the best program
    found so far is returned when the budget runs out. *)

(** Whether a program's printed source parses and type-checks. *)
val well_formed : Minijava.Ast.program -> bool

(** Shrink [prog] while [still_fails] holds, spending at most [budget]
    oracle calls. Returns the smallest failing program found. *)
val minimize :
  ?budget:int ->
  still_fails:(Minijava.Ast.program -> bool) ->
  Minijava.Ast.program -> Minijava.Ast.program
