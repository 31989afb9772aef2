(* State: the four xoshiro256** words s0..s3, native-endian at byte
   offsets 0, 8, 16 and 24. The unboxed Bytes primitives below let a step
   read, mix and write them back as raw 64-bit registers, so no draw
   allocates (an [int64] record field would box every write). *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64: used only for seeding / splitting. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let st = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix_next st)
  done;
  t

let create seed = of_seed64 (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** next: advance the state in place and return the output.
   Inlined into every caller, so the output stays unboxed unless the
   caller itself returns it as an [int64]. *)
let[@inline] step t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tt = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (Int64.logxor s2 tt);
  set64 t 24 (rotl s3 45);
  result

(* The next output shifted right by [sh] (0 <= sh <= 63), as an int: the
   low 63 bits when [sh = 0]. Every non-[int64] draw goes through here. *)
let next_shr t sh = Int64.to_int (Int64.shift_right_logical (step t) sh)

let int64 t = step t

let split t =
  (* Seed a child from two raw outputs folded through splitmix, so parent and
     child streams do not share xoshiro state. *)
  let a = int64 t in
  let b = int64 t in
  of_seed64 (Int64.logxor a (Int64.mul b 0x9E3779B97F4A7C15L))

let copy = Bytes.copy

let bits t = next_shr t 2

(* Rejection sampling on the top multiple of [bound] below 2^62. *)
let rec int_below t bound limit =
  let v = next_shr t 2 in
  if v < limit then v mod bound else int_below t bound limit

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  int_below t bound ((max_int / bound) * bound)

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53 random bits scaled to [0,1). *)
let[@inline] float t = float_of_int (next_shr t 11) *. (1.0 /. 9007199254740992.0)

let bool t = next_shr t 0 land 1 = 1

let bernoulli t p = if p >= 1.0 then true else if p <= 0.0 then false else float t < p

(* [float t < 2^-k] compares v * 2^-53 < 2^-k for the 53-bit draw v; both
   sides are exact, so it is v < 2^(53-k), with the same single draw. *)
let bernoulli_pow2 t k =
  if k < 0 || k > 52 then invalid_arg "Rng.bernoulli_pow2: k must be in [0, 52]";
  k = 0 || next_shr t 11 < 1 lsl (53 - k)

let geometric t p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t in
    (* Inverse CDF: floor(log(1-u) / log(1-p)). *)
    let v = log1p (-.u) /. log1p (-.p) in
    int_of_float (Float.floor v)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let sample_without_replacement t n k =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) draws, exact uniformity over k-subsets. *)
  let chosen = Hashtbl.create (2 * k) in
  let out = Array.make k 0 in
  let idx = ref 0 in
  for j = n - k to n - 1 do
    let v = int t (j + 1) in
    let v = if Hashtbl.mem chosen v then j else v in
    Hashtbl.add chosen v ();
    out.(!idx) <- v;
    incr idx
  done;
  shuffle t out;
  out

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let subset_bernoulli t n p =
  if p <= 0.0 then []
  else if p >= 1.0 then List.init n (fun i -> i)
  else begin
    (* Skip-ahead sampling: jump between included indices with geometric
       gaps, so cost is O(np) rather than O(n) when p is small. *)
    let acc = ref [] in
    let i = ref (geometric t p) in
    while !i < n do
      acc := !i :: !acc;
      i := !i + 1 + geometric t p
    done;
    List.rev !acc
  end
