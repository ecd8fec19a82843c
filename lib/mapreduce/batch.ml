(** Array-backed record batches and record feeds. See batch.mli. *)

module Value = Casper_common.Value

type t = {
  data : Value.t array;
  mutable bytes_memo : int;  (** total [size_of]; [-1] = not yet computed *)
}

type feed = (Value.t -> unit) -> unit

let of_array ?bytes data =
  { data; bytes_memo = (match bytes with Some b -> b | None -> -1) }

let of_list l = of_array (Array.of_list l)
let to_list b = Array.to_list b.data
let data b = b.data
let length b = Array.length b.data
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

let collect ?(capacity = 8) (feed : feed) =
  let cap = ref (max 8 capacity) in
  let buf = ref (Array.make !cap dummy) in
  let count = ref 0 and by = ref 0 in
  feed (fun v ->
      if !count = !cap then begin
        let grown = Array.make (2 * !cap) dummy in
        Array.blit !buf 0 grown 0 !count;
        buf := grown;
        cap := 2 * !cap
      end;
      !buf.(!count) <- v;
      incr count;
      by := !by + Value.size_of v);
  of_array ~bytes:!by
    (if !count = !cap then !buf else Array.sub !buf 0 !count)
