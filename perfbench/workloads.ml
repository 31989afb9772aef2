(* The three benchmark workloads. Each drives the libraries only through
   their public functions, checks every answer, and wraps each layer call
   in a {!Tracer} span (free while tracing is off). *)

module Rng = Wx_util.Rng
module Bitset = Wx_util.Bitset
module Combi = Wx_util.Combi
module Graph = Wx_graph.Graph
module Gen = Wx_graph.Gen
module Csr = Wx_graph.Csr
module Traversal = Wx_graph.Traversal
module Sim = Wx_radio.Sim
module Sim_csr = Wx_radio.Sim_csr
module Measure = Wx_expansion.Measure
module Families = Wx_constructions.Families
module Core_graph = Wx_constructions.Core_graph
module Gen_core = Wx_constructions.Gen_core
module Worst_case = Wx_constructions.Worst_case
module Broadcast_chain = Wx_constructions.Broadcast_chain
module Bipartite = Wx_graph.Bipartite
module Theorems = Wireless_expanders.Theorems
module Instances = Wireless_expanders.Instances
module Pool = Wx_par.Pool

let span = Tracer.span

(* One pass is the unit [verdict_s] times: a broadcast, a sweep of every
   family through the three measures, or a full paper verification. *)
type pass = {
  ops : int;
  failed : int;
  rounds : int;  (** broadcast rounds, summed; 0 off the radio *)
}

(* Layer counts that only the workload can see, accumulated over traced
   passes (the main loop zeroes them before the traced phase). *)
type radio_counts = {
  mutable rounds : int;
  mutable idle_rounds : int;
  mutable gained : int; (* informed_final - 1, summed *)
  mutable scans : int; (* n per round, summed *)
}

let radio_counts = { rounds = 0; idle_rounds = 0; gained = 0; scans = 0 }

let reset_counts () =
  radio_counts.rounds <- 0;
  radio_counts.idle_rounds <- 0;
  radio_counts.gained <- 0;
  radio_counts.scans <- 0

type runner = {
  setup : unit -> unit;  (** build the instance (timed for [setup_s]) *)
  reference : unit -> unit;  (** answer references; untimed *)
  pass : jobs:int -> int -> pass;  (** pass [i], with its answer check *)
  replay : jobs:int -> bool;
      (** rerun pass 0 at [jobs]; true iff the outcome equals pass 0's *)
  edges : unit -> int;  (** edges of the generated instance(s) *)
  csr_bytes : unit -> int;  (** computed CSR footprint, 0 without one *)
  candidate_sets : unit -> float;  (** subsets an exact pass could score, 0 if none *)
}

(* [jobs] is the job count every pass runs at. *)
type workload = { name : string; why : string; jobs : int; prepare : int -> runner }

let get r = match !r with Some x -> x | None -> invalid_arg "perfbench: setup has not run"

(* Per-pass protocol / shuffle seed derived from the workload seed. *)
let pass_seed seed i = (seed * 1000) + i

(* ---- radio ---- *)

(* The answer check for one broadcast: the informed set is exactly the
   source's component, no vertex was informed faster than its BFS
   distance allows, the run stayed within the simulator's round budget,
   and the per-round frontier is monotone and ends at the final count. *)
let radio_ok ~n ~reach ~ecc (o : Sim.outcome) =
  let h = o.Sim.frontier_history in
  let monotone = ref true in
  Array.iteri (fun i x -> if i > 0 && x < h.(i - 1) then monotone := false) h;
  o.Sim.informed_final = reach
  && o.Sim.rounds >= ecc
  && o.Sim.rounds <= Sim.round_limit n
  && o.Sim.completed = (o.Sim.informed_final = n)
  && Array.length h = o.Sim.rounds
  && !monotone
  && (o.Sim.rounds = 0 || h.(o.Sim.rounds - 1) = o.Sim.informed_final)

(* A pass is one `wx broadcast --engine csr --seeds <batch>` call: [batch]
   Decay broadcasts from vertex 0, each with its own protocol seed. *)
let radio ~make ~batch seed =
  let source = 0 in
  let csr = ref None and graph = ref None in
  let reach = ref 0 and ecc = ref 0 in
  let first = ref None in
  let setup () =
    let g = span "gen" (fun () -> make (Rng.create seed)) in
    let c = span "csr" (fun () -> Csr.of_graph g) in
    graph := Some g;
    csr := Some c
  in
  let reference () =
    let g = get graph in
    let dist = Traversal.bfs g source in
    reach := Array.fold_left (fun acc d -> if d < max_int then acc + 1 else acc) 0 dist;
    ecc := Array.fold_left (fun acc d -> if d < max_int then max acc d else acc) 0 dist
  in
  let broadcast ~jobs c rng =
    if not !Tracer.on then Sim_csr.run ~jobs c ~source Sim_csr.decay rng
    else begin
      let d = Sim_csr.decay in
      let fill t r = span "sim_csr.fill" (fun () -> d.fill t r) in
      let proto = { d with Sim_csr.fill } in
      let on_round (info : Sim.round_info) =
        if info.Sim.newly_informed = 0 then
          radio_counts.idle_rounds <- radio_counts.idle_rounds + 1
      in
      let o =
        span "sim_csr.run" (fun () -> Sim_csr.run ~jobs ~on_round c ~source proto rng)
      in
      radio_counts.rounds <- radio_counts.rounds + o.Sim.rounds;
      radio_counts.gained <- radio_counts.gained + o.Sim.informed_final - 1;
      radio_counts.scans <- radio_counts.scans + (o.Sim.rounds * Csr.n c);
      o
    end
  in
  let batch_run ~jobs i =
    let c = get csr in
    List.init batch (fun k -> broadcast ~jobs c (Rng.create (pass_seed seed ((i * batch) + k))))
  in
  let pass ~jobs i =
    let outs = batch_run ~jobs i in
    let n = Csr.n (get csr) in
    let failed =
      span "check" (fun () ->
          List.length (List.filter (fun o -> not (radio_ok ~n ~reach:!reach ~ecc:!ecc o)) outs)
          + if i = 0 && !first <> None && !first <> Some outs then 1 else 0)
    in
    if i = 0 && !first = None then first := Some outs;
    { ops = batch; failed; rounds = List.fold_left (fun acc o -> acc + o.Sim.rounds) 0 outs }
  in
  {
    setup;
    reference;
    pass;
    replay = (fun ~jobs -> Some (batch_run ~jobs 0) = !first);
    edges = (fun () -> Graph.m (get graph));
    csr_bytes = (fun () -> Csr.bytes (get csr));
    candidate_sets = (fun () -> 0.0);
  }

let radio_scale =
  {
    name = "radio-scale";
    why =
      "Decay on a 100k-vertex 8-regular graph, 4 protocol seeds a pass: the wx broadcast \
       --engine csr scale path at --jobs 1";
    (* At jobs = 2 every round waits for both domains, so a round slows
       down whenever the host takes one core away; jobs = 1 is as fast
       and much steadier. The traced run's jobs = 2 replay still times
       the pool path ([pool.speedup]). *)
    jobs = 1;
    prepare =
      radio ~batch:4 ~make:(fun rng -> Gen.random_regular_config rng 100_000 8);
  }

(* ---- exact expansion ---- *)

let size_hint = 18

let measure_fn = function
  | "beta" -> Measure.beta_exact
  | "beta_u" -> Measure.beta_u_exact
  | "beta_w" -> Measure.beta_w_exact
  | m -> invalid_arg ("perfbench: unknown measure " ^ m)

(* The catalog is fixed (it is what the reference table pins): every
   family built as `wx expansion <family> 18` builds it. The workload
   seed orders the family x measure calls of each pass. *)
let build_families () =
  List.map
    (fun f ->
      (f.Families.name, f.Families.make (Rng.create Instances.seed) size_hint))
    Families.all

let measure_all ~jobs ?(order = Fun.id) graphs =
  let calls =
    List.concat_map (fun (f, g) -> List.map (fun m -> (f, m, g)) Reference.measures) graphs
  in
  List.map
    (fun (f, m, g) ->
      let r =
        span ("measure." ^ m) (fun () ->
            match (measure_fn m) ~jobs g with
            | w ->
                let witness = Bitset.elements w.Measure.witness in
                Ok { Reference.value = w.Measure.value; witness }
            | exception Measure.Too_large msg -> Error msg)
      in
      ((f, m), r))
    (order calls)

let shuffled seed l =
  let a = Array.of_list l in
  Rng.shuffle (Rng.create seed) a;
  Array.to_list a

let exact_expansion ~reference_path =
  {
    name = "exact-expansion";
    why =
      "Exact beta, beta_u and beta_w of every Families.all member at size 18: wx \
       expansion at the largest exact size";
    jobs = 2;
    prepare =
      (fun seed ->
        let graphs = ref None and reference = ref None and first = ref None in
        let pass ~jobs i =
          let results = measure_all ~jobs ~order:(shuffled (pass_seed seed i)) (get graphs) in
          let sorted = List.sort compare results in
          let failed =
            span "check" (fun () ->
                Reference.failures (get reference) results
                + match !first with Some f when i = 0 && compare f sorted <> 0 -> 1 | _ -> 0)
          in
          if i = 0 && !first = None then first := Some sorted;
          { ops = List.length results; failed; rounds = 0 }
        in
        {
          setup = (fun () -> graphs := Some (span "gen" build_families));
          reference = (fun () -> reference := Some (Reference.load reference_path));
          pass;
          replay =
            (fun ~jobs ->
              let results = measure_all ~jobs ~order:(shuffled (pass_seed seed 0)) (get graphs) in
              let sorted = List.sort compare results in
              match !first with Some f -> compare f sorted = 0 | None -> false);
          edges = (fun () -> List.fold_left (fun acc (_, g) -> acc + Graph.m g) 0 (get graphs));
          csr_bytes = (fun () -> 0);
          (* The three measures enumerate the same non-empty subsets. *)
          candidate_sets =
            (fun () ->
              let nonempty g =
                Combi.count_subsets_upto_float (Graph.n g) (Measure.max_set_size g) -. 1.0
              in
              let per_graph = float_of_int (List.length Reference.measures) in
              List.fold_left (fun acc (_, g) -> acc +. (per_graph *. nonempty g)) 0.0 (get graphs));
        });
  }

(* ---- paper verification ---- *)

let expected_claims = 202

(* [Theorems.run_all ~quick:false], one check group at a time, in its
   order and over the same catalog, so each group gets its own span. *)
let run_all_grouped rng =
  let acc = ref [] in
  let push c = acc := c :: !acc in
  let pushes cs = List.iter push cs in
  let small =
    span "instances" (fun () ->
        List.filter (fun (_, g) -> Traversal.is_connected g) (Instances.small_graphs ()))
  in
  let relations f = span "theorems.relations" f in
  List.iter (fun (name, g) -> pushes (relations (fun () -> Theorems.obs_2_1 name g))) small;
  List.iter (fun (name, g) -> push (relations (fun () -> Theorems.lemma_3_2 name g))) small;
  List.iter (fun (name, g) -> push (relations (fun () -> Theorems.lemma_4_1 name g))) small;
  List.iter
    (fun (name, g) ->
      if Traversal.is_connected g then push (relations (fun () -> Theorems.lemma_3_1 name g rng)))
    (span "instances" Instances.regular_graphs);
  List.iter
    (fun gb ->
      span "theorems.gbad" (fun () ->
          pushes (Theorems.lemma_3_3 gb);
          push (Theorems.gbad_wireless gb)))
    (span "instances" Instances.gbad_grid);
  List.iter
    (fun (name, t) ->
      if not (Bipartite.has_isolated t) then
        push (span "spokesmen" (fun () -> Theorems.theorem_1_1_bip name t rng)))
    (span "instances" Instances.bipartite_instances);
  List.iter
    (fun s ->
      pushes (span "constructions.core" (fun () -> Theorems.lemma_4_4 (Core_graph.create s))))
    Instances.core_sizes;
  List.iter
    (fun (delta_star, beta_star) ->
      pushes
        (span "constructions.gen_core" (fun () ->
             Theorems.lemma_4_6 (Gen_core.create ~delta_star ~beta_star))))
    [ (64, 8.0); (64, 2.0); (64, 0.5); (128, 16.0); (32, 1.0) ];
  span "theorems.worst_case" (fun () ->
      let host = Gen.random_regular rng 64 20 in
      match Worst_case.create rng ~eps:0.4 ~host ~host_beta:0.5 with
      | wc ->
          push (Theorems.claim_4_9 wc rng ~samples:300);
          push (Theorems.claim_4_10 wc)
      | exception Invalid_argument _ -> ());
  span "theorems.broadcast" (fun () ->
      List.iter (fun s -> pushes (Theorems.corollary_5_1 (Core_graph.create s))) [ 8; 32 ];
      let ch = Broadcast_chain.create rng ~copies:3 ~s:8 in
      push (Theorems.section_5_lower_bound ch Wx_radio.Decay_protocol.protocol ~seeds:[ 1; 2; 3 ]));
  List.rev !acc

let claims_failed checks =
  List.length (List.filter (fun c -> not c.Theorems.holds) checks)
  + abs (expected_claims - List.length checks)

let paper_verify =
  {
    name = "paper-verify";
    why =
      "Theorems.run_all, the full wx verify-paper: the only workload through spokesmen, \
       core-graph and Gen_core code";
    jobs = 2;
    prepare =
      (fun seed ->
        let first = ref None in
        let run () =
          let rng = Rng.create seed in
          if !Tracer.on then run_all_grouped rng else Theorems.run_all rng
        in
        let pass ~jobs:_ i =
          let checks = run () in
          let failed =
            span "check" (fun () ->
                let mismatch =
                  match !first with
                  | Some ref_checks when compare checks ref_checks <> 0 -> 1
                  | _ -> 0
                in
                claims_failed checks + mismatch)
          in
          if i = 0 && !first = None then first := Some checks;
          { ops = List.length checks; failed; rounds = 0 }
        in
        let catalog = ref 0 in
        {
          (* run_all builds its catalog itself; set-up times the same
             constructors on their own. *)
          setup =
            (fun () ->
              span "gen" (fun () ->
                  let graphs = Instances.small_graphs () @ Instances.regular_graphs () in
                  ignore (Instances.gbad_grid ());
                  ignore (Instances.bipartite_instances ());
                  catalog := List.fold_left (fun acc (_, g) -> acc + Graph.m g) 0 graphs));
          reference = ignore;
          pass;
          replay =
            (fun ~jobs ->
              let saved = Pool.default_jobs () in
              Pool.set_default_jobs jobs;
              let checks = Fun.protect ~finally:(fun () -> Pool.set_default_jobs saved) run in
              match !first with Some c -> compare c checks = 0 | None -> false);
          edges = (fun () -> !catalog);
          csr_bytes = (fun () -> 0);
          candidate_sets = (fun () -> 0.0);
        });
  }

let all ~reference_path =
  [ radio_scale; exact_expansion ~reference_path; paper_verify ]
