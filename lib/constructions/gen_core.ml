module Bipartite = Wx_graph.Bipartite
module Floatx = Wx_util.Floatx

type regime = Blow_up_n | Blow_up_s

type t = {
  bip : Bipartite.t;
  core : Core_graph.t;
  regime : regime;
  k : int;
  target_delta : int;
  target_beta : float;
  achieved_delta : int;
  achieved_beta : float;
}

let blow_up_n core k =
  if k < 1 then invalid_arg "Gen_core.blow_up_n: k must be >= 1";
  let b = Core_graph.bip core in
  let n = Bipartite.n_count b in
  (* N-vertex w becomes w*k .. w*k+k-1; the rows stay sorted. *)
  let rows =
    Array.init (Bipartite.s_count b) (fun u ->
        let nbrs = Bipartite.neighbors_s b u in
        Array.init (Array.length nbrs * k) (fun i -> (nbrs.(i / k) * k) + (i mod k)))
  in
  Bipartite.of_rows ~n:(n * k) rows

let blow_up_s core k =
  if k < 1 then invalid_arg "Gen_core.blow_up_s: k must be >= 1";
  let b = Core_graph.bip core in
  (* S-vertex u becomes u*k .. u*k+k-1, each with u's neighbourhood. *)
  let rows =
    Array.init (Bipartite.s_count b * k) (fun x -> Array.copy (Bipartite.neighbors_s b (x / k)))
  in
  Bipartite.of_rows ~n:(Bipartite.n_count b) rows

let e = Float.exp 1.0

let create ~delta_star ~beta_star =
  let fd = float_of_int delta_star in
  if beta_star < 2.0 *. e /. fd -. 1e-9 || beta_star > fd /. (2.0 *. e) +. 1e-9 then
    invalid_arg "Gen_core.create: need 2e/∆* <= β* <= ∆*/(2e)";
  (* Regime choice: write ∆* = 2s·(β*/log 2s); find the largest power of
     two s with 2s·β*/log₂(2s) <= ∆*. If β* > log₂(2s) we are in the
     Lemma 4.7 regime, otherwise Lemma 4.8. *)
  let fits_a s =
    2.0 *. float_of_int s *. beta_star /. Floatx.log2 (2.0 *. float_of_int s) <= fd +. 1e-9
  in
  let rec grow s = if s * 2 <= 4096 && fits_a (s * 2) then grow (s * 2) else s in
  let s_a = if fits_a 1 then grow 1 else 1 in
  let log2s_a = Floatx.log2 (2.0 *. float_of_int s_a) in
  if beta_star > log2s_a then begin
    (* Lemma 4.7: N-side blow-up with k = β*/log 2s. *)
    let k = max 1 (int_of_float (Float.round (beta_star /. log2s_a))) in
    let core = Core_graph.create s_a in
    let bip = blow_up_n core k in
    {
      bip;
      core;
      regime = Blow_up_n;
      k;
      target_delta = delta_star;
      target_beta = beta_star;
      achieved_delta = max (Bipartite.max_deg_s bip) (Bipartite.max_deg_n bip);
      achieved_beta = Bipartite.beta bip;
    }
  end
  else begin
    (* Lemma 4.8: ∆* = 2s'·log(2s')/β_star; find the largest power-of-two s'
       that fits, then blow up the S side by k = log 2s'/β*. *)
    let fits_b s =
      2.0 *. float_of_int s *. Floatx.log2 (2.0 *. float_of_int s) /. beta_star <= fd +. 1e-9
    in
    let rec grow_b s = if s * 2 <= 4096 && fits_b (s * 2) then grow_b (s * 2) else s in
    if not (fits_b 1) then invalid_arg "Gen_core.create: ∆* too small for any core size";
    let s_b = grow_b 1 in
    let log2s_b = Floatx.log2 (2.0 *. float_of_int s_b) in
    let k = max 1 (int_of_float (Float.round (log2s_b /. beta_star))) in
    let core = Core_graph.create s_b in
    let bip = blow_up_s core k in
    {
      bip;
      core;
      regime = Blow_up_s;
      k;
      target_delta = delta_star;
      target_beta = beta_star;
      achieved_delta = max (Bipartite.max_deg_s bip) (Bipartite.max_deg_n bip);
      achieved_beta = Bipartite.beta bip;
    }
  end

let wireless_cap_fraction t =
  2.0 /. Floatx.log2 (2.0 *. float_of_int (Core_graph.s t.core))

let max_unique_exact t =
  let base = Core_graph.dp_max_unique t.core in
  match t.regime with
  | Blow_up_n -> base * t.k (* every block mass is multiplied by k *)
  | Blow_up_s -> base (* duplicate S-columns add nothing: identical neighborhoods *)
