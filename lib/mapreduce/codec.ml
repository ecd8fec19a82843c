(** Compact binary codec for {!Casper_common.Value.t}. See codec.mli. *)

module Value = Casper_common.Value

exception Codec_error of string

let err fmt = Fmt.kstr (fun s -> raise (Codec_error s)) fmt
let magic = "CSPL"
let version = 1
let header_size = String.length magic + 1

let write_header buf =
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version)

let check_header s =
  if String.length s < header_size then err "truncated header";
  if String.sub s 0 (String.length magic) <> magic then
    err "bad magic %S" (String.sub s 0 (min 4 (String.length s)));
  let v = Char.code s.[String.length magic] in
  if v <> version then err "unsupported codec version %d (want %d)" v version

(* ------------------------------------------------------------------ *)
(* Varints                                                             *)

(* LEB128 over the int's 63-bit pattern; [lsr] keeps the loop finite for
   the all-ones patterns zigzagged negatives produce *)
let write_varint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let varint_size n =
  let n = ref (n lsr 7) and s = ref 1 in
  while !n <> 0 do
    incr s;
    n := !n lsr 7
  done;
  !s

let read_varint s pos =
  let n = String.length s in
  let acc = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= n then err "truncated varint";
    if !shift > 56 then err "varint too long";
    let b = Char.code s.[!pos] in
    incr pos;
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !acc

(* zigzag: small magnitudes of either sign take few bytes; logical
   shifts make [min_int] round-trip too *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (- (z land 1))

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

(* tags: 0 Int, 1 Float, 2 Bool false, 3 Bool true, 4 Str, 5 Tuple,
   6 List, 7 Struct *)

let rec encoded_size : Value.t -> int = function
  | Value.Int n -> 1 + varint_size (zigzag n)
  | Value.Float _ -> 9
  | Value.Bool _ -> 1
  | Value.Str s -> 1 + varint_size (String.length s) + String.length s
  | Value.Tuple xs | Value.List xs ->
      1
      + varint_size (List.length xs)
      + List.fold_left (fun a x -> a + encoded_size x) 0 xs
  | Value.Struct (name, fs) ->
      1
      + varint_size (String.length name)
      + String.length name
      + varint_size (List.length fs)
      + List.fold_left
          (fun a (fname, v) ->
            a
            + varint_size (String.length fname)
            + String.length fname + encoded_size v)
          0 fs

let write_str buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

(* append the encoding of a value (payload only) *)
let rec write buf = function
  | Value.Int n ->
      Buffer.add_char buf '\000';
      write_varint buf (zigzag n)
  | Value.Float f ->
      Buffer.add_char buf '\001';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Bool false -> Buffer.add_char buf '\002'
  | Value.Bool true -> Buffer.add_char buf '\003'
  | Value.Str s ->
      Buffer.add_char buf '\004';
      write_str buf s
  | Value.Tuple xs ->
      Buffer.add_char buf '\005';
      write_seq buf xs
  | Value.List xs ->
      Buffer.add_char buf '\006';
      write_seq buf xs
  | Value.Struct (name, fs) ->
      Buffer.add_char buf '\007';
      write_str buf name;
      write_varint buf (List.length fs);
      List.iter
        (fun (fname, v) ->
          write_str buf fname;
          write buf v)
        fs

and write_seq buf xs =
  write_varint buf (List.length xs);
  List.iter (write buf) xs

let read_str s pos =
  let len = read_varint s pos in
  if len < 0 || !pos + len > String.length s then err "truncated string";
  let r = String.sub s !pos len in
  pos := !pos + len;
  r

(* decode one value at [!pos], advancing [pos] past it *)
let rec read s pos =
  if !pos >= String.length s then err "truncated value";
  let tag = Char.code s.[!pos] in
  incr pos;
  match tag with
  | 0 -> Value.Int (unzigzag (read_varint s pos))
  | 1 ->
      if !pos + 8 > String.length s then err "truncated float";
      let bits = String.get_int64_le s !pos in
      pos := !pos + 8;
      Value.Float (Int64.float_of_bits bits)
  | 2 -> Value.Bool false
  | 3 -> Value.Bool true
  | 4 -> Value.Str (read_str s pos)
  | 5 -> Value.Tuple (read_seq s pos)
  | 6 -> Value.List (read_seq s pos)
  | 7 ->
      let name = read_str s pos in
      let n = read_varint s pos in
      if n < 0 || n > String.length s - !pos then err "truncated struct";
      Value.Struct
        ( name,
          List.init n (fun _ ->
              let fname = read_str s pos in
              (fname, read s pos)) )
  | t -> err "unknown tag %d at offset %d" t (!pos - 1)

and read_seq s pos =
  let n = read_varint s pos in
  (* each element takes at least one byte: reject absurd counts before
     allocating *)
  if n < 0 || n > String.length s - !pos then err "truncated sequence";
  List.init n (fun _ -> read s pos)

let encode v =
  let buf = Buffer.create (encoded_size v) in
  write buf v;
  Buffer.contents buf

let decode s =
  let pos = ref 0 in
  let v = read s pos in
  if !pos <> String.length s then
    err "%d trailing bytes after value" (String.length s - !pos);
  v

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)

let write_framed buf v =
  write_varint buf (encoded_size v);
  write buf v

let read_framed s pos =
  let len = read_varint s pos in
  if len < 0 || !pos + len > String.length s then err "truncated frame";
  let stop = !pos + len in
  let v = read s pos in
  if !pos <> stop then err "frame length %d does not match payload" len;
  v
