(** Recursive-descent parser for MiniJava. The Polyglot substitute: it
    turns Java-like source text into {!Ast.program}. *)

exception Parse_error of string

(** Parse a full program: a sequence of class declarations and methods. *)
val parse_program : string -> Ast.program

(** Parse a single expression (used in tests). *)
val parse_expr_string : string -> Ast.expr
