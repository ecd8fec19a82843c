type token =
  | INT of int
  | FLOAT of float
  | STRING of string
  | IDENT of string
  | KEYWORD of string
  | PUNCT of string  (** operators and punctuation *)
  | EOF

exception Lex_error of string

let keywords =
  [
    "class"; "int"; "long"; "double"; "float"; "boolean"; "void"; "if";
    "else"; "while"; "do"; "for"; "return"; "break"; "continue"; "new";
    "true"; "false"; "null"; "static"; "public"; "private"; "final";
  ]

type t = { src : string; mutable pos : int; mutable line : int }

let make src = { src; pos = 0; line = 1 }
let peek_char lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let peek_char2 lx =
  if lx.pos + 1 < String.length lx.src then Some lx.src.[lx.pos + 1] else None

let advance lx =
  (match peek_char lx with Some '\n' -> lx.line <- lx.line + 1 | _ -> ());
  lx.pos <- lx.pos + 1

let error lx fmt =
  Fmt.kstr (fun s -> raise (Lex_error (Fmt.str "line %d: %s" lx.line s))) fmt

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance lx;
      skip_trivia lx
  | Some '/' when peek_char2 lx = Some '/' ->
      let rec to_eol () =
        match peek_char lx with
        | Some '\n' | None -> ()
        | Some _ ->
            advance lx;
            to_eol ()
      in
      to_eol ();
      skip_trivia lx
  | Some '/' when peek_char2 lx = Some '*' ->
      advance lx;
      advance lx;
      let rec to_close () =
        match (peek_char lx, peek_char2 lx) with
        | Some '*', Some '/' ->
            advance lx;
            advance lx
        | None, _ -> error lx "unterminated comment"
        | _ ->
            advance lx;
            to_close ()
      in
      to_close ();
      skip_trivia lx
  | _ -> ()

let lex_number lx =
  let start = lx.pos in
  while (match peek_char lx with Some c -> is_digit c | None -> false) do
    advance lx
  done;
  let is_float =
    match (peek_char lx, peek_char2 lx) with
    | Some '.', Some c when is_digit c ->
        advance lx;
        while (match peek_char lx with Some c -> is_digit c | None -> false) do
          advance lx
        done;
        true
    | _ -> false
  in
  (* exponent *)
  let is_float =
    match peek_char lx with
    | Some ('e' | 'E') ->
        advance lx;
        (match peek_char lx with
        | Some ('+' | '-') -> advance lx
        | _ -> ());
        while (match peek_char lx with Some c -> is_digit c | None -> false) do
          advance lx
        done;
        true
    | _ -> is_float
  in
  (* Java numeric suffixes *)
  let suffix_float =
    match peek_char lx with
    | Some ('f' | 'F' | 'd' | 'D') ->
        advance lx;
        true
    | Some ('l' | 'L') ->
        advance lx;
        false
    | _ -> is_float
  in
  let text = String.sub lx.src start (lx.pos - start) in
  let text =
    match text.[String.length text - 1] with
    | 'f' | 'F' | 'd' | 'D' | 'l' | 'L' ->
        String.sub text 0 (String.length text - 1)
    | _ -> text
  in
  if is_float || suffix_float then FLOAT (float_of_string text)
  else INT (int_of_string text)

let lex_string lx =
  advance lx;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char lx with
    | Some '"' -> advance lx
    | Some '\\' -> (
        advance lx;
        match peek_char lx with
        | Some 'n' ->
            Buffer.add_char buf '\n';
            advance lx;
            go ()
        | Some 't' ->
            Buffer.add_char buf '\t';
            advance lx;
            go ()
        | Some c ->
            Buffer.add_char buf c;
            advance lx;
            go ()
        | None -> error lx "unterminated string")
    | Some c ->
        Buffer.add_char buf c;
        advance lx;
        go ()
    | None -> error lx "unterminated string"
  in
  go ();
  STRING (Buffer.contents buf)

let two_char_ops =
  [ "=="; "!="; "<="; ">="; "&&"; "||"; "+="; "-="; "*="; "/="; "%="; "++";
    "--"; "<<"; ">>"; "->" ]

let lex_punct lx =
  let c1 = Option.get (peek_char lx) in
  match peek_char2 lx with
  | Some c2 when List.mem (Fmt.str "%c%c" c1 c2) two_char_ops ->
      advance lx;
      advance lx;
      PUNCT (Fmt.str "%c%c" c1 c2)
  | _ ->
      advance lx;
      PUNCT (String.make 1 c1)

let next_token lx : token * int =
  skip_trivia lx;
  let line = lx.line in
  match peek_char lx with
  | None -> (EOF, line)
  | Some c when is_digit c -> (lex_number lx, line)
  | Some '"' -> (lex_string lx, line)
  | Some c when is_ident_start c ->
      let start = lx.pos in
      while
        match peek_char lx with Some c -> is_ident_char c | None -> false
      do
        advance lx
      done;
      let text = String.sub lx.src start (lx.pos - start) in
      if List.mem text keywords then (KEYWORD text, line)
      else (IDENT text, line)
  | Some _ -> (lex_punct lx, line)

let tokenize (src : string) : (token * int) list =
  let lx = make src in
  let rec go acc =
    match next_token lx with
    | (EOF, _) as t -> List.rev (t :: acc)
    | t -> go (t :: acc)
  in
  go []

let token_to_string = function
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | STRING s -> Fmt.str "%S" s
  | IDENT s -> s
  | KEYWORD s -> s
  | PUNCT s -> s
  | EOF -> "<eof>"
