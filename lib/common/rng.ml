(** Deterministic pseudo-random generator (splitmix64).

    Everything in the reproduction that needs randomness — synthetic
    workload generation, the synthesizer's initial program states, the
    full verifier's large-domain sampling — draws from one of these so
    runs are reproducible without touching the global [Random] state. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* the state's increment per draw *)
let gamma = 0x9E3779B97F4A7C15L

let next_int64 t =
  let open Int64 in
  t.state <- add t.state gamma;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** Advance [t] past [k] draws of {!next_int64} in O(1), leaving it as
    [k] draws would: each draw adds [gamma] to the state. *)
let skip t k = t.state <- Int64.add t.state (Int64.mul (Int64.of_int k) gamma)

(** Uniform int in [0, bound). [bound] must be positive. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's 63-bit int, non-negative *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(** Uniform int in [lo, hi] inclusive. *)
let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range";
  lo + int t (hi - lo + 1)

(** Uniform float in [0, 1). *)
let float t =
  let r = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float r /. 9007199254740992.0 (* 2^53 *)

let float_range t lo hi = lo +. (float t *. (hi -. lo))
let bool t = int t 2 = 0

(** Bernoulli draw with probability [p]. *)
let bernoulli t p = float t < p

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(** Zipf-like skewed choice over [0, n): rank r with weight 1/(r+1)^s.
    Used to generate skewed key distributions for the dynamic-tuning
    experiments (§7.4). [zipf ~n ~s] builds the weight table once and
    returns the sampler; each draw costs one {!float} and O(log n)
    comparisons, and returns the rank a linear scan of the running
    weight sums would: the first [i <= n - 2] whose sum exceeds the
    scaled draw, else [n - 1]. *)
let zipf ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf";
  let weights =
    Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s)
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  (* running sums, added left to right like the scan: nondecreasing, so
     [x < cum.(i)] turns true at most once as [i] grows *)
  let cum = Array.copy weights in
  for i = 1 to n - 1 do
    cum.(i) <- cum.(i - 1) +. weights.(i)
  done;
  fun t ->
    let x = float t *. total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x < cum.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

(** A lowercase ASCII word of length in [min_len, max_len]. *)
let word t ~min_len ~max_len =
  let len = int_range t min_len max_len in
  String.init len (fun _ -> Char.chr (Char.code 'a' + int t 26))
