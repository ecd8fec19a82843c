(** Synthetic TPC-H data generator (scaled-down dbgen substitute).

    Produces the relations the paper's TPC-H experiments touch —
    lineitem, part, supplier, partsupp — as {!Casper_common.Value}
    structs with the TPC-H value distributions that matter to the
    queries: shipdate spread over 1992–1998, discount in 0.00–0.10,
    quantity 1–50, a small set of brands and containers. *)

module Value = Casper_common.Value
module Rng = Casper_common.Rng

(** The [part] row with key [key]. *)
val part : Rng.t -> key:int -> Value.t

(** The [supplier] row with key [key]. *)
val supplier : Rng.t -> key:int -> Value.t

(** A [partsupp] row over [parts] parts and [suppliers] suppliers. *)
val partsupp : Rng.t -> parts:int -> suppliers:int -> Value.t

type db = {
  lineitem : Value.t list;
  part : Value.t list;
  supplier : Value.t list;
  partsupp : Value.t list;
}

(** Generate a database with ~[lineitems] lineitem rows (the other
    relations scale with TPC-H's ratios). *)
val generate : ?seed:int -> lineitems:int -> unit -> db

(** [datasets (generate ?seed ~lineitems ())] without the lineitem
    relation, which it never draws: part, supplier and partsupp. *)
val dimensions :
  ?seed:int -> lineitems:int -> unit -> (string * Value.t list) list

(** [(generate ?seed ~lineitems:n ()).lineitem] without building the
    other relations: it skips their draws. *)
val lineitems : ?seed:int -> n:int -> unit -> Value.t list

(** The database's relations by name, for the engine. *)
val datasets : db -> (string * Value.t list) list
