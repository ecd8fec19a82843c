(** Hand-written lexer for MiniJava. Produces a token list with line
    numbers for error reporting. *)

type token =
  | INT of int
  | FLOAT of float
  | STRING of string
  | IDENT of string
  | KEYWORD of string
  | PUNCT of string  (** operators and punctuation *)
  | EOF

exception Lex_error of string

(** Tokenize the whole input. *)
val tokenize : string -> (token * int) list

(** A token's source text, for error messages. *)
val token_to_string : token -> string
