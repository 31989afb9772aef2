module Bitset = Wx_util.Bitset
module Rng = Wx_util.Rng
module Metrics = Wx_obs.Metrics

let m_coin_flips = Metrics.counter "radio.decay.coin_flips"
let m_transmit_decisions = Metrics.counter "radio.decay.transmit_decisions"

let phase_length n = Wx_util.Floatx.log2i_ceil (max 2 n) + 1

(* Slots up to 52 take the integer coin, which answers and draws exactly
   as the float one does. Larger slots (reachable only through a long
   [with_phase_length]) keep the float expression and its edge cases:
   slot 62 gives p < 0 and slot 63 p = inf, and neither draws. *)
let coin rng slot =
  if slot <= 52 then Rng.bernoulli_pow2 rng slot
  else Rng.bernoulli rng (1.0 /. float_of_int (1 lsl slot))

(* Every informed vertex flips [coin] for its slot in the phase, counted
   from the round it was informed, or from round 0 for every vertex when
   [global]. The counters are summed locally and published once per round. *)
let make ~global name k_opt =
  {
    Protocol.name;
    distributed = true;
    choose =
      (fun net rng ->
        let n = Wx_graph.Graph.n (Network.graph net) in
        let k = match k_opt with Some k -> k | None -> phase_length n in
        let round = Network.round net in
        let out = Bitset.create n in
        let flips = ref 0 and tx = ref 0 in
        Bitset.iter
          (fun v ->
            let t0 = if global then 0 else Network.informed_since net v in
            incr flips;
            if coin rng ((round - t0) mod k) then begin
              incr tx;
              Bitset.add_inplace out v
            end)
          (Network.informed net);
        Metrics.add m_coin_flips !flips;
        Metrics.add m_transmit_decisions !tx;
        out);
  }

let protocol = make ~global:false "decay" None
let with_phase_length k = make ~global:false (Printf.sprintf "decay-k%d" k) (Some k)
let globally_phased = make ~global:true "decay-global" None
