open Value

exception Unknown_method of string

let day_count y m d = (y * 372) + (m * 31) + d

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

type kind =
  | K_int
  | K_float
  | K_bool
  | K_string
  | K_date
  | K_strings
  | K_numeric_arg

type meth = { arity : int; kind : kind; denote : t list -> t }

(* the one table of modeled methods: name, arity, result kind and
   denotation *)
let methods : (string * meth) list =
  let m arity kind denote = { arity; kind; denote } in
  let str1 f = function [ Str a ] -> f a | _ -> raise Bad_args in
  let str2 f = function [ Str a; Str b ] -> f a b | _ -> raise Bad_args in
  let float1 f = function
    | [ a ] -> Float (f (as_float a))
    | _ -> raise Bad_args
  in
  let date2 f = function
    | [ Int a; Int b ] -> Bool (f a b)
    | _ -> raise Bad_args
  in
  [
    ( "Math.min",
      m 2 K_numeric_arg (function
        | [ a; b ] -> num2 min Float.min a b
        | _ -> raise Bad_args) );
    ( "Math.max",
      m 2 K_numeric_arg (function
        | [ a; b ] -> num2 max Float.max a b
        | _ -> raise Bad_args) );
    ( "Math.abs",
      m 1 K_numeric_arg (function
        | [ a ] -> num1 abs Float.abs a
        | _ -> raise Bad_args) );
    ("Math.sqrt", m 1 K_float (float1 sqrt));
    ( "Math.pow",
      m 2 K_float (function
        | [ a; b ] -> Float (Float.pow (as_float a) (as_float b))
        | _ -> raise Bad_args) );
    ("Math.exp", m 1 K_float (float1 exp));
    ("Math.log", m 1 K_float (float1 log));
    ("Math.floor", m 1 K_float (float1 floor));
    ("Math.ceil", m 1 K_float (float1 ceil));
    ( "Math.round",
      m 1 K_int (function
        | [ a ] -> Int (int_of_float (Float.round (as_float a)))
        | _ -> raise Bad_args) );
    ( "Math.signum",
      m 1 K_float (float1 (fun a -> Float.of_int (Stdlib.compare a 0.0))) );
    ( "Integer.parseInt",
      m 1 K_int
        (str1 (fun s ->
             match int_of_string_opt s with
             | Some n -> Int n
             | None -> terr "Integer.parseInt: malformed integer %S" s)) );
    ( "Double.parseDouble",
      m 1 K_float
        (str1 (fun s ->
             match float_of_string_opt s with
             | Some f -> Float f
             | None -> terr "Double.parseDouble: malformed number %S" s)) );
    ("Util.parseDate", m 1 K_date (str1 (fun s -> Int (parse_date s))));
    ("String.equals", m 2 K_bool (str2 (fun a b -> Bool (String.equal a b))));
    ( "String.equalsIgnoreCase",
      m 2 K_bool
        (str2 (fun a b ->
             Bool
               (String.equal (String.lowercase_ascii a)
                  (String.lowercase_ascii b)))) );
    ("String.length", m 1 K_int (str1 (fun a -> Int (String.length a))));
    ( "String.contains",
      m 2 K_bool
        (str2 (fun a b ->
             let n = String.length b in
             let rec go i =
               if i + n > String.length a then false
               else String.equal (String.sub a i n) b || go (i + 1)
             in
             Bool (n = 0 || go 0))) );
    ( "String.startsWith",
      m 2 K_bool
        (str2 (fun a b ->
             Bool
               (String.length b <= String.length a
               && String.equal (String.sub a 0 (String.length b)) b))) );
    ( "String.toLowerCase",
      m 1 K_string (str1 (fun a -> Str (String.lowercase_ascii a))) );
    ( "String.toUpperCase",
      m 1 K_string (str1 (fun a -> Str (String.uppercase_ascii a))) );
    ( "String.charAt",
      m 2 K_string (function
        | [ Str a; Int i ] ->
            if i < 0 || i >= String.length a then
              terr "String.charAt: index %d out of range for %S" i a
            else Str (String.make 1 a.[i])
        | _ -> raise Bad_args) );
    ("String.isEmpty", m 1 K_bool (str1 (fun a -> Bool (String.length a = 0))));
    ( "String.compareTo",
      m 2 K_int (str2 (fun a b -> Int (Stdlib.compare a b))) );
    ( "String.split",
      m 2 K_strings (function
        | [ Str a; Str sep ] when String.length sep = 1 ->
            List (List.map (fun s -> Str s) (String.split_on_char sep.[0] a))
        | _ -> raise Bad_args) );
    ("Date.before", m 2 K_bool (date2 ( < )));
    ("Date.after", m 2 K_bool (date2 ( > )));
  ]

let unknown name args =
  raise (Unknown_method (Fmt.str "%s/%d" name (Stdlib.List.length args)))

(* the methods by name, each denotation wrapped once so that [Bad_args]
   surfaces as [Unknown_method "name/arity"] *)
let table : (string, meth) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (name, m) ->
      let denote args = try m.denote args with Bad_args -> unknown name args in
      Hashtbl.replace tbl name { m with denote })
    methods;
  tbl

let resolve (name : string) : t list -> t =
  match Hashtbl.find table name with
  | m -> m.denote
  | exception Not_found -> unknown name

let apply name (args : t list) : t = resolve name args

let known : (string * int) list =
  List.map (fun (name, m) -> (name, m.arity)) methods

let is_known name = Hashtbl.mem table name

let kind name =
  match Hashtbl.find table name with
  | m -> Some m.kind
  | exception Not_found -> None
