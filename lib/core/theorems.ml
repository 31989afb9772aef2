module Bitset = Wx_util.Bitset
module Graph = Wx_graph.Graph
module Bipartite = Wx_graph.Bipartite
module Measure = Wx_expansion.Measure
module Bip_measure = Wx_expansion.Bip_measure
module Bounds = Wx_expansion.Bounds
module Nbhd = Wx_expansion.Nbhd
module Gbad = Wx_constructions.Gbad
module Core_graph = Wx_constructions.Core_graph
module Gen_core = Wx_constructions.Gen_core
module Worst_case = Wx_constructions.Worst_case
module Broadcast_chain = Wx_constructions.Broadcast_chain
module Floatx = Wx_util.Floatx

type check = {
  claim : string;
  instance : string;
  predicted : float;
  measured : float;
  holds : bool;
}

let pp_check fmt c =
  Format.fprintf fmt "%-14s %-28s predicted=%.4f measured=%.4f %s" c.claim c.instance
    c.predicted c.measured
    (if c.holds then "ok" else "VIOLATED")

let ge ?(slack = 1e-9) a b = a >= b -. slack

(* ------------------------------------------------------------------ *)
(* Section 2/3                                                         *)

(* The three relation checks over given exact values; [run_all] measures
   each small graph once and feeds all three. *)
let obs_2_1_of instance ~beta ~beta_u ~beta_w =
  [
    { claim = "Obs 2.1 (β≥βw)"; instance; predicted = beta_w; measured = beta; holds = ge beta beta_w };
    { claim = "Obs 2.1 (βw≥βu)"; instance; predicted = beta_u; measured = beta_w; holds = ge beta_w beta_u };
  ]

let lemma_3_2_of instance g ~beta ~beta_u =
  let predicted = Bounds.lemma_3_2 ~beta ~delta:(Graph.max_degree g) in
  { claim = "Lemma 3.2"; instance; predicted; measured = beta_u; holds = ge beta_u predicted }

let lemma_4_1_of instance g ~beta ~beta_w =
  let predicted = Bounds.lemma_3_2 ~beta ~delta:(Graph.max_degree g) in
  { claim = "Lemma 4.1"; instance; predicted; measured = beta_w; holds = ge beta_w predicted }

let beta ?alpha g = (Measure.beta_exact ?alpha g).Measure.value
let beta_u ?alpha g = (Measure.beta_u_exact ?alpha g).Measure.value
let beta_w ?alpha g = (Measure.beta_w_exact ?alpha g).Measure.value

let obs_2_1 ?alpha instance g =
  obs_2_1_of instance ~beta:(beta ?alpha g) ~beta_u:(beta_u ?alpha g) ~beta_w:(beta_w ?alpha g)

let lemma_3_1 ?(alpha = 0.5) instance g rng =
  let d =
    match Graph.is_regular g with
    | Some d -> d
    | None -> invalid_arg "Theorems.lemma_3_1: graph must be regular"
  in
  let lambda2 = Wx_spectral.Spectral_gap.lambda2_regular g rng in
  let beta_u = beta_u ~alpha g in
  let beta = beta ~alpha g in
  let predicted = Bounds.lemma_3_1 ~d ~lambda2 ~alpha_u:alpha ~beta_u in
  { claim = "Lemma 3.1"; instance; predicted; measured = beta; holds = ge beta predicted }

let lemma_3_2 ?alpha instance g =
  lemma_3_2_of instance g ~beta:(beta ?alpha g) ~beta_u:(beta_u ?alpha g)

let lemma_4_1 ?alpha instance g =
  lemma_4_1_of instance g ~beta:(beta ?alpha g) ~beta_w:(beta_w ?alpha g)

let lemma_3_3 gb =
  let t = Gbad.bip gb in
  let s = Gbad.s gb in
  let instance =
    Printf.sprintf "Gbad(s=%d,∆=%d,β=%d)" s (Gbad.delta gb) (Gbad.beta gb)
  in
  (* (a) Unique expansion of the full set S is exactly 2β − ∆. *)
  let full = Bitset.full s in
  let uniq = Nbhd.Bip.unique_count t full in
  let measured_bu = float_of_int uniq /. float_of_int s in
  let predicted_bu = float_of_int (Gbad.predicted_beta_u gb) in
  let a =
    {
      claim = "Lemma 3.3 (βu)";
      instance;
      predicted = predicted_bu;
      measured = measured_bu;
      holds = Float.abs (measured_bu -. predicted_bu) < 1e-9;
    }
  in
  (* (b) One-sided expansion at least β. *)
  let expansion, _ =
    if s <= 16 then Bip_measure.ordinary_expansion_min_exact t
    else
      Bip_measure.ordinary_expansion_min_sampled (Wx_util.Rng.create 7) ~samples:2000 t
  in
  let b =
    {
      claim = "Lemma 3.3 (β)";
      instance;
      predicted = float_of_int (Gbad.beta gb);
      measured = expansion;
      holds = ge expansion (float_of_int (Gbad.beta gb));
    }
  in
  [ a; b ]

let gbad_wireless gb =
  let t = Gbad.bip gb in
  let s = Gbad.s gb in
  let instance =
    Printf.sprintf "Gbad(s=%d,∆=%d,β=%d)" s (Gbad.delta gb) (Gbad.beta gb)
  in
  let predicted = Gbad.predicted_wireless_lb gb in
  let measured =
    if s <= 20 then begin
      let m, _ = Bip_measure.exact_max_unique t in
      float_of_int m /. float_of_int s
    end
    else begin
      (* Witness: every second vertex (the remark's g(l) choice) and the
         full set (the f(l) choice); wireless expansion is at least the
         better of the two. *)
      let w1 = Nbhd.Bip.unique_count t (Gbad.every_second gb) in
      let w2 = Nbhd.Bip.unique_count t (Bitset.full s) in
      float_of_int (max w1 w2) /. float_of_int s
    end
  in
  (* For odd s the every-second witness wraps awkwardly; allow the
     asymptotic bound with a 1/s additive tolerance. *)
  let slack = if s mod 2 = 0 then 1e-9 else float_of_int (Gbad.delta gb) /. float_of_int s in
  {
    claim = "Rmk 3.3 (βw)";
    instance;
    predicted;
    measured;
    holds = measured >= predicted -. slack;
  }

(* ------------------------------------------------------------------ *)
(* Section 4                                                           *)

let theorem_1_1_bip instance t rng =
  let beta = Bipartite.beta t in
  let delta = max (Bipartite.max_deg_s t) (Bipartite.max_deg_n t) in
  let predicted = Bounds.theorem_1_1 ~beta ~delta /. 9.0 in
  let r = Wx_spokesmen.Portfolio.solve ~reps:32 rng t in
  let measured = float_of_int r.Wx_spokesmen.Solver.covered /. float_of_int (Bipartite.s_count t) in
  { claim = "Theorem 1.1"; instance; predicted; measured; holds = ge measured predicted }

let lemma_4_4 cg =
  let s = Core_graph.s cg in
  let t = Core_graph.bip cg in
  let instance = Printf.sprintf "core(s=%d)" s in
  let log2s = Floatx.log2 (2.0 *. float_of_int s) in
  let c1 =
    let n_expected = float_of_int s *. log2s in
    {
      claim = "L4.4(1) |N|";
      instance;
      predicted = n_expected;
      measured = float_of_int (Bipartite.n_count t);
      holds = Float.abs (float_of_int (Bipartite.n_count t) -. n_expected) < 1e-6;
    }
  in
  let c2 =
    let ok = ref true in
    for u = 0 to s - 1 do
      if Bipartite.deg_s t u <> (2 * s) - 1 then ok := false
    done;
    {
      claim = "L4.4(2) degS";
      instance;
      predicted = float_of_int ((2 * s) - 1);
      measured = float_of_int (Bipartite.max_deg_s t);
      holds = !ok;
    }
  in
  let c3a =
    {
      claim = "L4.4(3) ∆N";
      instance;
      predicted = float_of_int s;
      measured = float_of_int (Bipartite.max_deg_n t);
      holds = Bipartite.max_deg_n t = s;
    }
  in
  let c3b =
    let bound = 2.0 *. float_of_int s /. log2s in
    let dn = Bipartite.delta_n t in
    { claim = "L4.4(3) δN"; instance; predicted = bound; measured = dn; holds = dn <= bound +. 1e-9 }
  in
  let c4 =
    (* Exact min over all subset sizes via tree DP: min over k of
       (min coverage at k) / k must be >= log2(2s). *)
    let mins = Core_graph.dp_min_coverage cg in
    let worst = ref infinity in
    for k = 1 to s do
      let r = float_of_int mins.(k) /. float_of_int k in
      if r < !worst then worst := r
    done;
    {
      claim = "L4.4(4) β";
      instance;
      predicted = log2s;
      measured = !worst;
      holds = ge !worst log2s;
    }
  in
  let c5 =
    let m = Core_graph.dp_max_unique cg in
    {
      claim = "L4.4(5) Γ¹cap";
      instance;
      predicted = 2.0 *. float_of_int s;
      measured = float_of_int m;
      holds = m <= 2 * s;
    }
  in
  [ c1; c2; c3a; c3b; c4; c5 ]

let lemma_4_6 (gc : Gen_core.t) =
  let t = gc.Gen_core.bip in
  let instance =
    Printf.sprintf "gen-core(∆*=%d,β*=%.2f,%s,k=%d)" gc.Gen_core.target_delta
      gc.Gen_core.target_beta
      (match gc.Gen_core.regime with Gen_core.Blow_up_n -> "4.7" | Gen_core.Blow_up_s -> "4.8")
      gc.Gen_core.k
  in
  let beta_star = gc.Gen_core.achieved_beta in
  let delta_star = float_of_int gc.Gen_core.achieved_delta in
  let c_size =
    (* Lemma 4.6(1): |S*| ≤ ∆*/2 for the {e target} ∆* (the builder may
       undershoot the target degree, which only helps); also require the
       built graph not to exceed the target degree. *)
    let s_star = float_of_int (Bipartite.s_count t) in
    let target = float_of_int gc.Gen_core.target_delta in
    {
      claim = "L4.6(1) |S*|";
      instance;
      predicted = target /. 2.0;
      measured = s_star;
      holds = s_star <= (target /. 2.0) +. 1.0 && delta_star <= target +. 1e-9;
    }
  in
  let c_exp =
    (* Expansion ≥ β*: exact for small S sides, sampled witness otherwise. *)
    let measured, _ =
      if Bipartite.s_count t <= 16 then Bip_measure.ordinary_expansion_min_exact t
      else Bip_measure.ordinary_expansion_min_sampled (Wx_util.Rng.create 11) ~samples:2000 t
    in
    {
      claim = "L4.6(2) β*";
      instance;
      predicted = beta_star;
      measured;
      holds = ge measured beta_star;
    }
  in
  let c_cap =
    let m = Gen_core.max_unique_exact gc in
    let frac = float_of_int m /. float_of_int (Bipartite.n_count t) in
    let arg = Float.min (delta_star /. beta_star) (delta_star *. beta_star) in
    let predicted = 4.0 /. Float.max 1.0 (Floatx.log2 arg) in
    { claim = "L4.6(3) cap"; instance; predicted; measured = frac; holds = frac <= predicted +. 1e-9 }
  in
  [ c_size; c_exp; c_cap ]

let claim_4_9 (wc : Worst_case.t) rng ~samples =
  let g = wc.Worst_case.graph in
  let predicted = Worst_case.predicted_beta_tilde wc in
  let alpha_tilde = (1.0 -. wc.Worst_case.eps) *. 0.5 in
  let witnessed = Measure.beta_sampled ~alpha:alpha_tilde rng ~samples g in
  let instance = Printf.sprintf "G̃(ε=%.2f, n=%d)" wc.Worst_case.eps (Graph.n g) in
  {
    claim = "Claim 4.9";
    instance;
    predicted;
    measured = witnessed.Measure.value;
    holds = ge witnessed.Measure.value predicted;
  }

let claim_4_10 (wc : Worst_case.t) =
  let measured = Worst_case.s_star_wireless_exact wc in
  let predicted =
    Worst_case.predicted_wireless_cap wc
  in
  let instance = Printf.sprintf "G̃(ε=%.2f)" wc.Worst_case.eps in
  { claim = "Claim 4.10"; instance; predicted; measured; holds = measured <= predicted +. 1e-9 }

(* ------------------------------------------------------------------ *)
(* Section 5                                                           *)

let corollary_5_1 cg =
  let s = Core_graph.s cg in
  let log2s = Floatx.log2 (2.0 *. float_of_int s) in
  let n_total = Core_graph.n_size cg in
  let cap = Core_graph.dp_max_unique cg in
  (* Even an omniscient protocol informs ≤ cap ≤ 2s new N-vertices per
     round after the first; so reaching fraction 2i/log2s of N takes at
     least 1 + ceil(i·(2s·...)/cap)-ish rounds. We check the paper's exact
     statement: rounds ≥ 1 + i for fractions 2i/log(2s), using cap as the
     per-round budget. *)
  let checks = ref [] in
  let imax = int_of_float (log2s /. 2.0) in
  for i = 0 to imax do
    let fraction = 2.0 *. float_of_int i /. log2s in
    let vertices_needed = fraction *. float_of_int n_total in
    (* After round 1, each round adds ≤ cap: optimistic round count. *)
    let best_possible_rounds =
      if vertices_needed <= float_of_int cap then 1
      else 1 + int_of_float (Float.ceil ((vertices_needed -. float_of_int cap) /. float_of_int cap))
    in
    checks :=
      {
        claim = Printf.sprintf "Cor 5.1 (i=%d)" i;
        instance = Printf.sprintf "core(s=%d)+rt" s;
        predicted = float_of_int (Bounds.corollary_5_1_min_rounds ~s ~i);
        measured = float_of_int best_possible_rounds;
        holds = best_possible_rounds >= Bounds.corollary_5_1_min_rounds ~s ~i;
      }
      :: !checks
  done;
  List.rev !checks

let section_5_lower_bound chain protocol ~seeds =
  let g = chain.Broadcast_chain.graph in
  let root = chain.Broadcast_chain.root in
  let last_relay =
    chain.Broadcast_chain.relays.(Array.length chain.Broadcast_chain.relays - 1)
  in
  let times =
    List.filter_map
      (fun seed ->
        Wx_radio.Sim.rounds_to_inform g ~source:root ~target:last_relay protocol
          (Wx_util.Rng.create seed))
      seeds
  in
  let measured =
    if times = [] then nan
    else Wx_util.Stats.mean (Wx_util.Stats.of_ints (Array.of_list times))
  in
  let predicted = Broadcast_chain.paper_round_lb chain in
  let instance =
    Printf.sprintf "chain(D/2=%d,s=%d) %s" chain.Broadcast_chain.copies chain.Broadcast_chain.s
      protocol.Wx_radio.Protocol.name
  in
  { claim = "§5 LB"; instance; predicted; measured; holds = ge measured predicted }

let run_all ?(quick = false) rng =
  let take k l = List.filteri (fun i _ -> i < k) l in
  let maybe k l = if quick then take k l else l in
  let small =
    List.filter
      (fun (_, g) -> Wx_graph.Traversal.is_connected g)
      (maybe 4 (Instances.small_graphs ()))
  in
  let acc = ref [] in
  let push c = acc := c :: !acc in
  let pushes cs = List.iter push cs in
  (* Sections 2–3. *)
  let measured = List.map (fun (name, g) -> (name, g, beta g, beta_u g, beta_w g)) small in
  List.iter (fun (name, _, beta, beta_u, beta_w) -> pushes (obs_2_1_of name ~beta ~beta_u ~beta_w))
    measured;
  List.iter (fun (name, g, beta, beta_u, _) -> push (lemma_3_2_of name g ~beta ~beta_u)) measured;
  List.iter (fun (name, g, beta, _, beta_w) -> push (lemma_4_1_of name g ~beta ~beta_w)) measured;
  List.iter
    (fun (name, g) ->
      if Wx_graph.Traversal.is_connected g then push (lemma_3_1 name g rng))
    (maybe 3 (Instances.regular_graphs ()));
  List.iter
    (fun gb ->
      pushes (lemma_3_3 gb);
      push (gbad_wireless gb))
    (maybe 4 (Instances.gbad_grid ()));
  (* Section 4. *)
  List.iter
    (fun (name, t) ->
      if not (Bipartite.has_isolated t) then push (theorem_1_1_bip name t rng))
    (maybe 4 (Instances.bipartite_instances ()));
  List.iter
    (fun s -> pushes (lemma_4_4 (Core_graph.create s)))
    (maybe 3 Instances.core_sizes);
  List.iter
    (fun (delta_star, beta_star) ->
      pushes (lemma_4_6 (Gen_core.create ~delta_star ~beta_star)))
    (maybe 2 [ (64, 8.0); (64, 2.0); (64, 0.5); (128, 16.0); (32, 1.0) ]);
  let host = Wx_graph.Gen.random_regular rng 64 20 in
  (match Worst_case.create rng ~eps:0.4 ~host ~host_beta:0.5 with
  | wc ->
      push (claim_4_9 wc rng ~samples:(if quick then 100 else 300));
      push (claim_4_10 wc)
  | exception Invalid_argument _ -> ());
  (* Section 5. *)
  List.iter
    (fun s -> pushes (corollary_5_1 (Core_graph.create s)))
    (maybe 1 [ 8; 32 ]);
  let ch = Broadcast_chain.create rng ~copies:3 ~s:8 in
  push
    (section_5_lower_bound ch Wx_radio.Decay_protocol.protocol
       ~seeds:(if quick then [ 1 ] else [ 1; 2; 3 ]));
  List.rev !acc
