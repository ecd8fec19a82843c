(** Lifting MiniJava expressions into the IR.

    The search-space grammar Casper generates is specialized to the input
    fragment (§3.2, Appendix D): its production rules are built from the
    operators, constants and library methods the code uses. We go the
    same way the Appendix D generator does — every sub-expression of the
    loop body that mentions only record components and in-scope inputs is
    lifted into an IR expression and becomes a terminal of the grammar.
    Accesses to the current record (list element, [a\[i\]], [m\[i\]\[j\]])
    become λm parameters. *)

module F = Casper_analysis.Fragment
module Ir = Casper_ir.Lang

(** λm parameter names and IR types for a fragment's records. *)
val record_params : F.t -> (string * Ir.ty) list

(** IR record type of each dataset, as seen by [Data] nodes. *)
val record_ty_of : F.t -> string -> Ir.ty

(** Lift one expression. [scalars] are the in-scope input variables;
    record component accesses are rewritten to λm parameters. Returns
    [None] when the expression reaches outside the IR (outputs, unmapped
    accesses, unmodeled methods). *)
val lift : F.t -> Minijava.Ast.program -> Minijava.Ast.expr -> Ir.expr option

(** All lifted sub-expressions of the fragment body, deduplicated. *)
val harvest : Minijava.Ast.program -> F.t -> Ir.expr list
