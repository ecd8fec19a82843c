(** Semantic models of external library methods (paper §6.1, Appendix B).

    Casper supports library methods "by modeling their semantics explicitly
    using the IR". Here each supported method is a named OCaml denotation
    over {!Value.t}; the MiniJava interpreter and the IR evaluator both
    dispatch through this table, so a summary that calls [Math.min] means
    the same thing on both sides of a verification check.

    Dates are modeled as integers (a monotone day count), exactly enough
    for the [before]/[after] comparisons TPC-H queries need. *)

open Value

exception Unknown_method of string

(** The monotone day count of year [y], month [m], day [d]. *)
let day_count y m d = (y * 372) + (m * 31) + d

(** Parse "YYYY-MM-DD" into its {!day_count}; raises
    {!Value.Type_error} on a malformed literal. *)
let parse_date s =
  let part p =
    match int_of_string_opt p with
    | Some n -> n
    | None -> terr "Util.parseDate: malformed date literal %S" s
  in
  match String.split_on_char '-' s with
  | [ y; m; d ] -> day_count (part y) (part m) (part d)
  | _ -> terr "Util.parseDate: malformed date literal %S" s

let num2 f g a b =
  match (a, b) with
  | Int x, Int y -> Int (f x y)
  | (Float _ | Int _), (Float _ | Int _) -> Float (g (as_float a) (as_float b))
  | _ -> terr "numeric arguments expected"

let num1 f g = function
  | Int x -> Int (f x)
  | Float x -> Float (g x)
  | v -> terr "numeric argument expected, got %a" pp v

(* raised by a method's denotation on arguments of the wrong arity or
   kind; [resolve] reports it as [Unknown_method "name/arity"] *)
exception Bad_args

(* the denotation of each modeled method, dispatched by name *)
let denotation : string -> t list -> t = function
  | "Math.min" -> (
      function [ a; b ] -> num2 min Float.min a b | _ -> raise Bad_args)
  | "Math.max" -> (
      function [ a; b ] -> num2 max Float.max a b | _ -> raise Bad_args)
  | "Math.abs" -> (
      function [ a ] -> num1 abs Float.abs a | _ -> raise Bad_args)
  | "Math.sqrt" -> (
      function [ a ] -> Float (sqrt (as_float a)) | _ -> raise Bad_args)
  | "Math.pow" -> (
      function
      | [ a; b ] -> Float (Float.pow (as_float a) (as_float b))
      | _ -> raise Bad_args)
  | "Math.exp" -> (
      function [ a ] -> Float (exp (as_float a)) | _ -> raise Bad_args)
  | "Math.log" -> (
      function [ a ] -> Float (log (as_float a)) | _ -> raise Bad_args)
  | "Math.floor" -> (
      function [ a ] -> Float (floor (as_float a)) | _ -> raise Bad_args)
  | "Math.ceil" -> (
      function [ a ] -> Float (ceil (as_float a)) | _ -> raise Bad_args)
  | "Math.round" -> (
      function
      | [ a ] -> Int (int_of_float (Float.round (as_float a)))
      | _ -> raise Bad_args)
  | "Math.signum" -> (
      function
      | [ a ] -> Float (Float.of_int (Stdlib.compare (as_float a) 0.0))
      | _ -> raise Bad_args)
  | "Integer.parseInt" -> (
      function
      | [ Str s ] -> (
          match int_of_string_opt s with
          | Some n -> Int n
          | None -> terr "Integer.parseInt: malformed integer %S" s)
      | _ -> raise Bad_args)
  | "Double.parseDouble" -> (
      function
      | [ Str s ] -> (
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> terr "Double.parseDouble: malformed number %S" s)
      | _ -> raise Bad_args)
  | "Util.parseDate" -> (
      function [ Str s ] -> Int (parse_date s) | _ -> raise Bad_args)
  | "String.equals" -> (
      function [ Str a; Str b ] -> Bool (String.equal a b) | _ -> raise Bad_args)
  | "String.equalsIgnoreCase" -> (
      function
      | [ Str a; Str b ] ->
          Bool
            (String.equal (String.lowercase_ascii a) (String.lowercase_ascii b))
      | _ -> raise Bad_args)
  | "String.length" -> (
      function [ Str a ] -> Int (String.length a) | _ -> raise Bad_args)
  | "String.contains" -> (
      function
      | [ Str a; Str b ] ->
          let n = String.length b in
          let rec go i =
            if i + n > String.length a then false
            else String.equal (String.sub a i n) b || go (i + 1)
          in
          Bool (n = 0 || go 0)
      | _ -> raise Bad_args)
  | "String.startsWith" -> (
      function
      | [ Str a; Str b ] ->
          Bool
            (String.length b <= String.length a
            && String.equal (String.sub a 0 (String.length b)) b)
      | _ -> raise Bad_args)
  | "String.toLowerCase" -> (
      function [ Str a ] -> Str (String.lowercase_ascii a) | _ -> raise Bad_args)
  | "String.toUpperCase" -> (
      function [ Str a ] -> Str (String.uppercase_ascii a) | _ -> raise Bad_args)
  | "String.charAt" -> (
      function
      | [ Str a; Int i ] ->
          if i < 0 || i >= String.length a then
            terr "String.charAt: index %d out of range for %S" i a
          else Str (String.make 1 a.[i])
      | _ -> raise Bad_args)
  | "String.isEmpty" -> (
      function [ Str a ] -> Bool (String.length a = 0) | _ -> raise Bad_args)
  | "String.compareTo" -> (
      function [ Str a; Str b ] -> Int (Stdlib.compare a b) | _ -> raise Bad_args)
  | "String.split" -> (
      function
      | [ Str a; Str sep ] when String.length sep = 1 ->
          List (List.map (fun s -> Str s) (String.split_on_char sep.[0] a))
      | _ -> raise Bad_args)
  | "Date.before" -> (
      function [ Int a; Int b ] -> Bool (a < b) | _ -> raise Bad_args)
  | "Date.after" -> (
      function [ Int a; Int b ] -> Bool (a > b) | _ -> raise Bad_args)
  | _ -> raise Not_found

let unknown name args =
  raise (Unknown_method (Fmt.str "%s/%d" name (Stdlib.List.length args)))

(** [resolve name] is the denotation of library method [name], looked up
    once: callers that apply one method many times (staged IR code)
    resolve it outside the loop. Arguments of the wrong arity or kind
    raise {!Unknown_method} ["name/arity"], as an unknown name does;
    out-of-range or malformed arguments raise {!Value.Type_error}. *)
let resolve (name : string) : t list -> t =
  match denotation name with
  | f -> fun args -> ( try f args with Bad_args -> unknown name args)
  | exception Not_found -> unknown name

(** [apply name args] evaluates library method [name]. *)
let apply name (args : t list) : t = resolve name args

(** Methods known to the IR / grammar generator, with arities. Methods not
    in this table make a fragment untranslatable (paper: Fiji failures due
    to unmodeled ImageJ methods). *)
let known : (string * int) list =
  [
    ("Math.min", 2);
    ("Math.max", 2);
    ("Math.abs", 1);
    ("Math.sqrt", 1);
    ("Math.pow", 2);
    ("Math.exp", 1);
    ("Math.log", 1);
    ("Math.floor", 1);
    ("Math.ceil", 1);
    ("Math.round", 1);
    ("Math.signum", 1);
    ("Integer.parseInt", 1);
    ("Double.parseDouble", 1);
    ("Util.parseDate", 1);
    ("String.equals", 2);
    ("String.equalsIgnoreCase", 2);
    ("String.length", 1);
    ("String.contains", 2);
    ("String.startsWith", 2);
    ("String.toLowerCase", 1);
    ("String.toUpperCase", 1);
    ("String.charAt", 2);
    ("String.isEmpty", 1);
    ("String.compareTo", 2);
    ("String.split", 2);
    ("Date.before", 2);
    ("Date.after", 2);
  ]

let is_known name = List.mem_assoc name known
