(** Synthetic TPC-H data generator (scaled-down dbgen substitute).

    Produces the relations the paper's TPC-H experiments touch —
    lineitem, part, supplier, partsupp — as {!Casper_common.Value}
    structs with the TPC-H value distributions that matter to the
    queries: shipdate spread over 1992–1998, discount in 0.00–0.10,
    quantity 1–50, a small set of brands and containers. *)

module Value = Casper_common.Value
module Rng = Casper_common.Rng
module Library = Casper_common.Library

let date rng =
  let y = 1992 + Rng.int rng 7 in
  let m = 1 + Rng.int rng 12 in
  let d = 1 + Rng.int rng 28 in
  Library.day_count y m d

let brands = [| "Brand#12"; "Brand#23"; "Brand#34"; "Brand#45"; "Brand#55" |]

let containers =
  [| "SM CASE"; "MED BOX"; "LG JAR"; "JUMBO PACK"; "WRAP BAG" |]

let lineitem rng ~(parts : int) ~(suppliers : int) : Value.t =
  Value.Struct
    ( "LineItem",
      [
        ("l_partkey", Value.Int (1 + Rng.int rng parts));
        ("l_suppkey", Value.Int (1 + Rng.int rng suppliers));
        ("l_quantity", Value.Int (1 + Rng.int rng 50));
        ("l_extendedprice", Value.Float (Rng.float_range rng 900.0 100000.0));
        ("l_discount", Value.Float (float_of_int (Rng.int rng 11) /. 100.0));
        ("l_tax", Value.Float (float_of_int (Rng.int rng 9) /. 100.0));
        ( "l_returnflag",
          Value.Str (match Rng.int rng 3 with 0 -> "A" | 1 -> "N" | _ -> "R")
        );
        ( "l_linestatus",
          Value.Str (if Rng.bool rng then "O" else "F") );
        ("l_shipdate", Value.Int (date rng));
      ] )

let part rng ~key : Value.t =
  Value.Struct
    ( "Part",
      [
        ("p_partkey", Value.Int key);
        ("p_brand", Value.Str brands.(Rng.int rng (Array.length brands)));
        ( "p_container",
          Value.Str containers.(Rng.int rng (Array.length containers)) );
        ("p_retailprice", Value.Float (Rng.float_range rng 900.0 2000.0));
      ] )

let supplier rng ~key : Value.t =
  Value.Struct
    ( "Supplier",
      [
        ("s_suppkey", Value.Int key);
        ("s_name", Value.Str (Fmt.str "Supplier#%05d" key));
        ("s_acctbal", Value.Float (Rng.float_range rng (-999.0) 9999.0));
      ] )

let partsupp rng ~(parts : int) ~(suppliers : int) : Value.t =
  Value.Struct
    ( "PartSupp",
      [
        ("ps_partkey", Value.Int (1 + Rng.int rng parts));
        ("ps_suppkey", Value.Int (1 + Rng.int rng suppliers));
        ("ps_availqty", Value.Int (1 + Rng.int rng 9999));
        ("ps_supplycost", Value.Float (Rng.float_range rng 1.0 1000.0));
      ] )

type db = {
  lineitem : Value.t list;
  part : Value.t list;
  supplier : Value.t list;
  partsupp : Value.t list;
}

let sizes lineitems = (max 8 (lineitems / 30), max 4 (lineitems / 300))

let lineitem_rows rng ~n ~parts ~suppliers =
  List.init n (fun _ -> lineitem rng ~parts ~suppliers)

(* part, supplier and partsupp, drawn before lineitem *)
let dimension_rows rng ~parts ~suppliers =
  let partsupp =
    List.init (parts * 2) (fun _ -> partsupp rng ~parts ~suppliers)
  in
  let supplier = List.init suppliers (fun i -> supplier rng ~key:(i + 1)) in
  let part = List.init parts (fun i -> part rng ~key:(i + 1)) in
  (part, supplier, partsupp)

(** Generate a database with ~[lineitems] lineitem rows (the other
    relations scale with TPC-H's ratios). *)
let generate ?(seed = 7) ~(lineitems : int) () : db =
  let rng = Rng.create seed in
  let parts, suppliers = sizes lineitems in
  (* lineitem is drawn last, after the rows [lineitems] skips *)
  let part, supplier, partsupp = dimension_rows rng ~parts ~suppliers in
  {
    lineitem = lineitem_rows rng ~n:lineitems ~parts ~suppliers;
    part;
    supplier;
    partsupp;
  }

(** [datasets (generate ?seed ~lineitems ())] without the lineitem
    relation, which it never draws: part, supplier and partsupp. *)
let dimensions ?(seed = 7) ~(lineitems : int) () :
    (string * Value.t list) list =
  let rng = Rng.create seed in
  let parts, suppliers = sizes lineitems in
  let part, supplier, partsupp = dimension_rows rng ~parts ~suppliers in
  [ ("part", part); ("supplier", supplier); ("partsupp", partsupp) ]

(* the Rng draws of one partsupp, supplier and part row; the
   baselines.tpch "generator shape" test holds [lineitems] to [generate] *)
let partsupp_draws = 4
let supplier_draws = 1
let part_draws = 3

(** [(generate ?seed ~lineitems:n ()).lineitem] without building the
    other relations: it skips their draws. *)
let lineitems ?(seed = 7) ~n () : Value.t list =
  let rng = Rng.create seed in
  let parts, suppliers = sizes n in
  Rng.skip rng
    ((parts * 2 * partsupp_draws)
    + (suppliers * supplier_draws)
    + (parts * part_draws));
  lineitem_rows rng ~n ~parts ~suppliers

let datasets (db : db) : (string * Value.t list) list =
  [
    ("lineitem", db.lineitem);
    ("part", db.part);
    ("supplier", db.supplier);
    ("partsupp", db.partsupp);
  ]
