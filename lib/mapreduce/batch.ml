(** Array-backed record batches with fused volume accounting. See
    batch.mli. *)

module Value = Casper_common.Value

type t = {
  data : Value.t array;
  mutable bytes_memo : int;  (** total [size_of]; [-1] = not yet computed *)
}

let of_array ?bytes data =
  { data; bytes_memo = (match bytes with Some b -> b | None -> -1) }

let of_list l = of_array (Array.of_list l)
let to_list b = Array.to_list b.data
let data b = b.data
let length b = Array.length b.data
let get b i = b.data.(i)
let empty () = of_array ~bytes:0 [||]

let bytes b =
  if b.bytes_memo >= 0 then b.bytes_memo
  else begin
    let s = ref 0 in
    Array.iter (fun v -> s := !s + Value.size_of v) b.data;
    b.bytes_memo <- !s;
    !s
  end

(* placeholder for pre-sized buffers; never observable in results *)
let dummy = Value.Int 0

let map f b =
  let by = ref 0 in
  let out =
    Array.map
      (fun r ->
        let v = f r in
        by := !by + Value.size_of v;
        v)
      b.data
  in
  of_array ~bytes:!by out

let filter p b =
  let src = b.data in
  let n = Array.length src in
  let out = Array.make n dummy in
  let count = ref 0 and by = ref 0 in
  for i = 0 to n - 1 do
    let v = src.(i) in
    if p v then begin
      out.(!count) <- v;
      incr count;
      by := !by + Value.size_of v
    end
  done;
  of_array ~bytes:!by (if !count = n then out else Array.sub out 0 !count)

let concat_map f b =
  let src = b.data in
  let cap = ref (max 8 (Array.length src)) in
  let buf = ref (Array.make !cap dummy) in
  let count = ref 0 and by = ref 0 in
  let push v =
    if !count = !cap then begin
      let grown = Array.make (2 * !cap) dummy in
      Array.blit !buf 0 grown 0 !count;
      buf := grown;
      cap := 2 * !cap
    end;
    !buf.(!count) <- v;
    incr count;
    by := !by + Value.size_of v
  in
  for i = 0 to Array.length src - 1 do
    List.iter push (f src.(i))
  done;
  of_array ~bytes:!by
    (if !count = !cap then !buf else Array.sub !buf 0 !count)
