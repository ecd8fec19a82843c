(** Compact binary codec for {!Casper_common.Value.t} records.

    The out-of-core shuffle serializes spilled records with this codec:
    one tag byte per constructor, zigzag varints for ints and lengths,
    IEEE-754 bits for floats (NaN payloads and signed zeros round-trip
    bit-exactly). Every frame is length-prefixed so a reader can skip or
    validate a record without decoding it, and run files start with a
    versioned header ({!write_header}) so a format change can never
    be misread as data.

    [decode (encode v)] is structurally identical to [v] for every
    value, and {!encoded_size} is exact: it returns precisely the number
    of bytes {!encode} returns (the QCheck properties in [test_codec.ml]
    pin both). For struct-free values the encoding is also no larger
    than the engine's {!Casper_common.Value.size_of} byte model — the
    spill path's disk footprint never exceeds its accounted memory
    footprint. Structs can exceed it because [size_of] ignores
    constructor and field names, which the codec must keep. *)

module Value = Casper_common.Value

exception Codec_error of string

(** [write_header buf] emits the run-file header: 4 magic bytes
    followed by one version byte. *)
val write_header : Buffer.t -> unit

val header_size : int

(** [check_header s] validates a header at the start of [s].
    @raise Codec_error on wrong magic or version. *)
val check_header : string -> unit

(* ------------------------------------------------------------------ *)
(* Varints (used for lengths, counts and zigzagged ints).              *)

(** LEB128 varint of a non-negative count/length. *)
val write_varint : Buffer.t -> int -> unit

(** [read_varint s pos] decodes the varint at [!pos], advancing [pos].
    @raise Codec_error on truncated or oversized input. *)
val read_varint : string -> int ref -> int

val varint_size : int -> int

(* ------------------------------------------------------------------ *)
(* Values.                                                             *)

(** Exact byte length of the encoding of [v] (payload only, no frame). *)
val encoded_size : Value.t -> int

(** The payload of one value as a string. *)
val encode : Value.t -> string

(** Decode a payload produced by {!encode}.
    @raise Codec_error on malformed input or trailing bytes. *)
val decode : string -> Value.t

(* ------------------------------------------------------------------ *)
(* Length-prefixed frames.                                             *)

(** [write_framed buf v]: varint payload length, then the payload. *)
val write_framed : Buffer.t -> Value.t -> unit

(** [read_framed s pos]: decode one frame at [!pos], checking that the
    payload decodes to exactly the prefixed length.
    @raise Codec_error on malformed input. *)
val read_framed : string -> int ref -> Value.t
