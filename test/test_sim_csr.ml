(* The CSR scale engine: bit-identical to the legacy Sim on shared
   instances (outcome, frontier history, collisions) at any job count,
   structural invariants of the flat layout, the sparse generators'
   degree/simplicity contracts, and the zero-allocation steady state the
   SIMSCALE bench gates on. *)

module Graph = Wx_graph.Graph
module Csr = Wx_graph.Csr
module Gen = Wx_graph.Gen
module Families = Wx_constructions.Families
module Sim = Wx_radio.Sim
module Sim_csr = Wx_radio.Sim_csr
module Protocol = Wx_radio.Protocol
module Rng = Wx_util.Rng
module Intvec = Wx_util.Intvec
module Memgc = Wx_obs.Memgc
module Metrics = Wx_obs.Metrics
open Common

(* Legacy/CSR protocol pairs that must consume identical rng streams. *)
let protocol_pairs =
  [
    (Wx_radio.Flood.protocol, Sim_csr.flood);
    (Wx_radio.Decay_protocol.protocol, Sim_csr.decay);
    (Wx_radio.Decay_protocol.with_phase_length 3, Sim_csr.decay_with_phase_length 3);
    (Wx_radio.Decay_protocol.globally_phased, Sim_csr.decay_globally_phased);
    (Wx_radio.Uniform.protocol 0.35, Sim_csr.uniform 0.35);
  ]

let check_outcomes_equal ctx (a : Sim.outcome) (b : Sim.outcome) =
  check_int (ctx ^ ": rounds") a.Sim.rounds b.Sim.rounds;
  check_true (ctx ^ ": completed") (a.Sim.completed = b.Sim.completed);
  check_int (ctx ^ ": informed") a.Sim.informed_final b.Sim.informed_final;
  check_int (ctx ^ ": collisions") a.Sim.collisions b.Sim.collisions;
  check_true (ctx ^ ": history") (a.Sim.frontier_history = b.Sim.frontier_history)

(* Cap the stalling protocols (flood never finishes on some families) so
   the sweep stays quick; both engines get the same cap. *)
let cap = 400

let run_both g legacy csr_p ~jobs ~range ~seed =
  let a = Sim.run ~max_rounds:cap g ~source:0 legacy (Rng.create seed) in
  let csr = Csr.of_graph g in
  let b = Sim_csr.run ~max_rounds:cap ~jobs ~range csr ~source:0 csr_p (Rng.create seed) in
  (a, b)

let test_equivalence_on_families () =
  List.iter
    (fun f ->
      let g = f.Families.make (rng ~salt:7 ()) 40 in
      List.iter
        (fun (legacy, csr_p) ->
          List.iter
            (fun jobs ->
              (* range 7 forces multi-range sharding even on tiny graphs,
                 so jobs=4 actually crosses the pool. *)
              let a, b = run_both g legacy csr_p ~jobs ~range:7 ~seed:2018 in
              check_outcomes_equal
                (Printf.sprintf "%s/%s/j%d" f.Families.name legacy.Protocol.name jobs)
                a b)
            [ 1; 4 ])
        protocol_pairs)
    Families.all

let test_equivalence_qcheck =
  qcheck ~count:60 "csr = legacy on random graphs (decay, jobs 4)"
    (fun g ->
      Graph.n g >= 1
      &&
      let a, b = run_both g Wx_radio.Decay_protocol.protocol Sim_csr.decay ~jobs:4 ~range:5 ~seed:99 in
      a = b)
    (arbitrary_graph ~lo:2 ~hi:32)

let test_decay_coin_matches_float () =
  (* The shared Decay coin answers and draws exactly as the float
     expression it replaced, at every slot an int shift can name,
     including the p < 0 (slot 62) and p = inf (slot 63) edges. *)
  for slot = 0 to 63 do
    let a = Rng.create (1000 + slot) in
    let b = Rng.copy a in
    let p = 1.0 /. float_of_int (1 lsl slot) in
    for _ = 1 to 64 do
      check_true
        (Printf.sprintf "slot %d answer" slot)
        (Wx_radio.Decay_protocol.coin a slot = Rng.bernoulli b p)
    done;
    check_true (Printf.sprintf "slot %d stream" slot) (Rng.int64 a = Rng.int64 b)
  done

let test_decay_counters_cross_engine () =
  (* The Decay counters are batched per fill; totals must not depend on
     the engine, and every transmit decision is a transmission. *)
  let g = Gen.gnm (rng ~salt:31 ()) 300 900 in
  let csr = Csr.of_graph g in
  let counts run =
    Metrics.reset ();
    run ();
    let get name = Metrics.counter_value (Metrics.counter name) in
    ( get "radio.decay.coin_flips",
      get "radio.decay.transmit_decisions",
      get "radio.transmissions" )
  in
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable (fun () ->
      List.iter
        (fun (legacy, csr_p) ->
          let flips_a, tx_a, trans_a =
            counts (fun () ->
                ignore (Sim.run ~max_rounds:cap g ~source:0 legacy (Rng.create 5)))
          in
          let flips_b, tx_b, trans_b =
            counts (fun () ->
                ignore (Sim_csr.run ~max_rounds:cap ~jobs:1 csr ~source:0 csr_p (Rng.create 5)))
          in
          let name = legacy.Protocol.name in
          check_true (name ^ ": coins flipped") (flips_a > 0);
          check_int (name ^ ": coin flips") flips_a flips_b;
          check_int (name ^ ": transmit decisions") tx_a tx_b;
          check_int (name ^ ": decisions = transmissions (legacy)") trans_a tx_a;
          check_int (name ^ ": decisions = transmissions (csr)") trans_b tx_b)
        [
          (Wx_radio.Decay_protocol.protocol, Sim_csr.decay);
          (Wx_radio.Decay_protocol.globally_phased, Sim_csr.decay_globally_phased);
        ])

let test_jobs_invariance () =
  (* Larger sparse instance with the default range: identical outcomes at
     every job count, including ones crossing the real pool. *)
  let g = Gen.gnm (rng ~salt:3 ()) 3000 12000 in
  let csr = Csr.of_graph g in
  (* Cap the budget: a gnm instance with an isolated vertex never
     completes, and 4 job counts × the default 64n limit would dominate
     the suite's wall time. *)
  let run jobs =
    Sim_csr.run ~max_rounds:1500 ~jobs ~range:256 csr ~source:0 Sim_csr.decay (Rng.create 42)
  in
  let base = run 1 in
  (* gnm at mean degree 8 may leave a handful of isolated vertices, so ask
     for near-complete spread rather than completion. *)
  check_true "decay informs nearly everyone" (base.Sim.informed_final > 2900);
  List.iter
    (fun jobs -> check_outcomes_equal (Printf.sprintf "jobs %d" jobs) base (run jobs))
    [ 2; 4; 7 ]

(* --- CSR layout invariants --- *)

let test_csr_structure () =
  let g = Gen.margulis 5 in
  let c = Csr.of_graph g in
  check_int "n" (Graph.n g) (Csr.n c);
  check_int "m" (Graph.m g) (Csr.m c);
  let offsets = Csr.offsets c and nbrs = Csr.neighbors c in
  check_int "offsets length" (Graph.n g + 1) (Array.length offsets);
  check_int "packed length" (2 * Graph.m g) offsets.(Graph.n g);
  for v = 0 to Graph.n g - 1 do
    check_int "degree" (Graph.degree g v) (Csr.degree c v);
    let row = Graph.neighbors g v in
    Array.iteri (fun i w -> check_int "neighbor" w nbrs.(offsets.(v) + i)) row
  done;
  check_true "bytes accounts both arrays"
    (Csr.bytes c >= (Array.length offsets + Array.length nbrs) * (Sys.word_size / 8))

(* --- sparse generators --- *)

let test_gnm_invariants () =
  let g = Gen.gnm (rng ()) 500 1500 in
  check_int "n" 500 (Graph.n g);
  check_int "m exact" 1500 (Graph.m g);
  (* Simplicity is enforced by Graph.of_edges; spot-check degree sum. *)
  let degsum = ref 0 in
  Graph.iter_vertices g (fun v -> degsum := !degsum + Graph.degree g v);
  check_int "degree sum = 2m" 3000 !degsum;
  check_true "dense edge count rejected"
    (try
       ignore (Gen.gnm (rng ()) 4 7);
       false
     with Invalid_argument _ -> true)

let test_gnm_deterministic () =
  let a = Gen.gnm (Rng.create 5) 200 600 and b = Gen.gnm (Rng.create 5) 200 600 in
  check_true "same seed, same graph" (Graph.equal a b)

let test_random_regular_config_invariants () =
  let n = 400 and d = 6 in
  let g = Gen.random_regular_config (rng ~salt:11 ()) n d in
  check_int "n" n (Graph.n g);
  check_true "max degree <= d" (Graph.max_degree g <= d);
  (* Simplification drops only self-loops and duplicate pairings; for
     sparse d the deficit is a few edges, not a constant fraction. *)
  check_true "near-regular" (Graph.m g >= n * d * 9 / 10 / 2);
  check_true "odd n*d rejected"
    (try
       ignore (Gen.random_regular_config (rng ()) 5 3);
       false
     with Invalid_argument _ -> true)

let test_inform_seeding () =
  (* Multi-source seeding: both engines accept extra sources and agree on
     the flood evolution from the same seeded set. *)
  let n = 300 in
  let g = Gen.gnm (rng ~salt:31 ()) n 900 in
  let seeds = [ 0; 17; 42; 199; 255 ] in
  let st = Sim_csr.create ~jobs:1 (Csr.of_graph g) ~source:0 in
  let net = Wx_radio.Network.create g 0 in
  List.iter
    (fun v ->
      Sim_csr.inform st v;
      Wx_radio.Network.inform net v)
    seeds;
  Sim_csr.inform st 17;
  check_int "inform is idempotent" (List.length seeds) (Sim_csr.informed_count st);
  check_int "legacy seeded count" (List.length seeds) (Wx_radio.Network.informed_count net);
  check_int "seeded since = current round" 0 (Sim_csr.informed_since st 42);
  let r = Rng.create 1 in
  for i = 1 to 20 do
    ignore (Sim_csr.step st Sim_csr.flood r);
    ignore (Wx_radio.Network.step net (Wx_radio.Network.informed net));
    check_int
      (Printf.sprintf "flood from seeded set agrees at round %d" i)
      (Wx_radio.Network.informed_count net) (Sim_csr.informed_count st)
  done;
  (* Fully seeded network: a flood step is a fixpoint. *)
  let st2 = Sim_csr.create ~jobs:1 (Csr.of_graph g) ~source:0 in
  for v = 0 to n - 1 do
    Sim_csr.inform st2 v
  done;
  check_true "all informed after full seeding" (Sim_csr.all_informed st2);
  check_int "saturated flood informs no one" 0 (Sim_csr.step st2 Sim_csr.flood (Rng.create 2))

(* --- satellite contracts --- *)

let test_round_limit_overflow_safe () =
  check_int "small n" (64 * 100 + 1024) (Sim.round_limit 100);
  check_int "huge n pins to max_int" max_int (Sim.round_limit (max_int / 8));
  check_true "limit is positive for every n" (Sim.round_limit ((max_int - 1024) / 64) > 0)

let test_intvec () =
  let v = Intvec.create ~capacity:2 () in
  check_int "empty" 0 (Intvec.length v);
  for i = 0 to 99 do
    Intvec.push v (i * i)
  done;
  check_int "length" 100 (Intvec.length v);
  check_int "get" 81 (Intvec.get v 9);
  check_true "snapshot" (Intvec.to_array v = Array.init 100 (fun i -> i * i));
  Intvec.clear v;
  check_int "cleared" 0 (Intvec.length v)

let test_zero_alloc_steady_state () =
  (* The acceptance criterion behind the SIMSCALE alloc claim: once the
     network is saturated, a step at jobs=1 allocates nothing, for flood
     (the kernel alone) and for Decay (kernel plus one Rng coin per
     informed vertex). *)
  let g = Gen.gnm (rng ~salt:23 ()) 2000 8000 in
  let csr = Csr.of_graph g in
  let saturated protocol =
    let t = Sim_csr.create ~jobs:1 csr ~source:0 in
    let r = Rng.create 7 in
    (* Saturate first (the protocol either completes or reaches its
       fixpoint within the budget). *)
    for _ = 1 to 200 do
      ignore (Sim_csr.step t protocol r)
    done;
    (t, r)
  in
  List.iter
    (fun protocol ->
      let t, r = saturated protocol in
      Memgc.enable ();
      Fun.protect ~finally:Memgc.disable (fun () ->
          (* Gc.minor_words itself boxes a float (a few words), so the
             budget is a constant independent of the step count: 50 steps
             under 10 words means the per-step cost is exactly zero. *)
          let w0 = Memgc.own_minor_words () in
          for _ = 1 to 50 do
            ignore (Sim_csr.step t protocol r)
          done;
          let dw = Memgc.own_minor_words () -. w0 in
          check_true
            (Printf.sprintf "steady-state %s steps allocate 0 words (got %.0f)"
               protocol.Sim_csr.name dw)
            (dw < 10.0)))
    [ Sim_csr.flood; Sim_csr.decay; Sim_csr.decay_globally_phased ]

let test_network_step_scratch_reuse () =
  (* Legacy satellite: the step loop reuses its scratch pair, so a long
     saturated flood allocates nothing per round either. *)
  let g = Gen.gnm (rng ~salt:29 ()) 1000 4000 in
  let net = Wx_radio.Network.create g 0 in
  (* Drive flood to its fixpoint (complete or stalled — either is a
     steady state). *)
  for _ = 1 to 100 do
    ignore (Wx_radio.Network.step net (Wx_radio.Network.informed net))
  done;
  Memgc.enable ();
  Fun.protect ~finally:Memgc.disable (fun () ->
      let w0 = Memgc.own_minor_words () in
      for _ = 1 to 50 do
        ignore (Wx_radio.Network.step net (Wx_radio.Network.informed net))
      done;
      let dw = Memgc.own_minor_words () -. w0 in
      check_true (Printf.sprintf "legacy saturated steps allocate 0 words (got %.0f)" dw)
        (dw < 10.0))

let suite =
  [
    Alcotest.test_case "csr = legacy on all families" `Slow test_equivalence_on_families;
    test_equivalence_qcheck;
    Alcotest.test_case "decay coin = float bernoulli" `Quick test_decay_coin_matches_float;
    Alcotest.test_case "decay counters match across engines" `Quick
      test_decay_counters_cross_engine;
    Alcotest.test_case "jobs invariance on gnm(3000)" `Slow test_jobs_invariance;
    Alcotest.test_case "csr layout structure" `Quick test_csr_structure;
    Alcotest.test_case "inform seeds extra sources" `Quick test_inform_seeding;
    Alcotest.test_case "gnm invariants" `Quick test_gnm_invariants;
    Alcotest.test_case "gnm deterministic" `Quick test_gnm_deterministic;
    Alcotest.test_case "random_regular_config invariants" `Quick
      test_random_regular_config_invariants;
    Alcotest.test_case "round limit overflow-safe" `Quick test_round_limit_overflow_safe;
    Alcotest.test_case "intvec" `Quick test_intvec;
    Alcotest.test_case "csr steady state allocates zero" `Quick test_zero_alloc_steady_state;
    Alcotest.test_case "legacy step reuses scratch" `Quick test_network_step_scratch_reuse;
  ]
