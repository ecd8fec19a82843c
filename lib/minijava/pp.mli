(** Source printer for MiniJava — the inverse of {!Parser}.

    The printer targets *re-parseability*, not pretty layout: every
    shrunk fuzzer failure and counter-example environment is reported as
    source that [Parser.parse_program] accepts and maps back to the same
    AST. The invariant tested (and the one that matters for reproducers)
    is idempotence: [parse (print (parse src))] equals [parse src]. *)

(** A program's source text, which the parser maps back to the same AST. *)
val program_to_string : Ast.program -> string
