module Bitset = Wx_util.Bitset
module Bipartite = Wx_graph.Bipartite
module Rng = Wx_util.Rng
module Metrics = Wx_obs.Metrics

let m_steps = Metrics.counter "spokesmen.anneal.steps"
let m_accepted = Metrics.counter "spokesmen.anneal.accepted"
let m_improvements = Metrics.counter "spokesmen.anneal.improvements"

let solve ?steps ?(t0 = 2.0) ?cooling rng t =
  let s = Bipartite.s_count t in
  if s = 0 then invalid_arg "Anneal.solve: empty S side";
  let steps = match steps with Some k -> k | None -> 200 * s in
  let cooling =
    match cooling with
    | Some c -> c
    | None -> if steps <= 1 then 1.0 else exp (log (0.01 /. t0) /. float_of_int steps)
  in
  (* Start from the greedy local optimum. *)
  let start = Greedy.solve_with_removal t in
  let cnt = Array.make (Bipartite.n_count t) 0 in
  let chosen = Bitset.copy start.Solver.chosen in
  Bitset.iter
    (fun u -> Array.iter (fun w -> cnt.(w) <- cnt.(w) + 1) (Bipartite.neighbors_s t u))
    chosen;
  let uniq = ref 0 in
  Array.iter (fun c -> if c = 1 then incr uniq) cnt;
  let flip_gain u =
    let nbrs = Bipartite.neighbors_s t u in
    let acc = ref 0 in
    if Bitset.mem chosen u then
      for i = 0 to Array.length nbrs - 1 do
        match cnt.(nbrs.(i)) with 1 -> decr acc | 2 -> incr acc | _ -> ()
      done
    else
      for i = 0 to Array.length nbrs - 1 do
        match cnt.(nbrs.(i)) with 0 -> incr acc | 1 -> decr acc | _ -> ()
      done;
    !acc
  in
  let apply_flip u =
    let nbrs = Bipartite.neighbors_s t u in
    if Bitset.mem chosen u then begin
      Bitset.remove_inplace chosen u;
      for i = 0 to Array.length nbrs - 1 do
        let w = nbrs.(i) in
        (match cnt.(w) with 1 -> decr uniq | 2 -> incr uniq | _ -> ());
        cnt.(w) <- cnt.(w) - 1
      done
    end
    else begin
      Bitset.add_inplace chosen u;
      for i = 0 to Array.length nbrs - 1 do
        let w = nbrs.(i) in
        (match cnt.(w) with 0 -> incr uniq | 1 -> decr uniq | _ -> ());
        cnt.(w) <- cnt.(w) + 1
      done
    end
  in
  let best = ref !uniq in
  let best_set = ref (Bitset.copy chosen) in
  let temp = ref t0 in
  for _ = 1 to steps do
    Metrics.incr m_steps;
    let u = Rng.int rng s in
    let g = flip_gain u in
    let accept =
      g >= 0
      || (!temp > 1e-9 && Rng.float rng < exp (float_of_int g /. !temp))
    in
    if accept then begin
      Metrics.incr m_accepted;
      apply_flip u;
      if !uniq > !best then begin
        Metrics.incr m_improvements;
        best := !uniq;
        best_set := Bitset.copy chosen
      end
    end;
    temp := !temp *. cooling
  done;
  Solver.make t "anneal" !best_set
