module Bitset = Wx_util.Bitset
module Bucket_queue = Wx_util.Bucket_queue
module Bipartite = Wx_graph.Bipartite
module Metrics = Wx_obs.Metrics

let m_steps = Metrics.counter "spokesmen.partition.steps"
let m_runs = Metrics.counter "spokesmen.partition.runs"

type state = {
  s_uni : Bitset.t;
  s_tmp : Bitset.t;
  n_uni : Bitset.t;
  n_many : Bitset.t;
  n_tmp : Bitset.t;
  steps : int;
}

let gain_of t ~n_tmp ~n_uni v =
  let nt = ref 0 and nu = ref 0 in
  Array.iter
    (fun w ->
      if Bitset.mem n_tmp w then incr nt else if Bitset.mem n_uni w then incr nu)
    (Bipartite.neighbors_s t v);
  !nt - (2 * !nu)

(* The gains are kept incrementally. An N-vertex changes class only when a
   neighbour is promoted, and then only its S-neighbours' gains move:
   Ntmp → Nuni takes 3 from each (−1 for leaving Ntmp, −2 for joining
   Nuni), Nuni → Nmany gives the 2 back. S-vertices of Stmp with positive
   gain sit in a bucket queue keyed by gain, whose [max_elt] is the
   lowest-index vertex of maximum gain: the first maximum of a scan of
   Stmp in index order. *)
let run ?restrict_n t =
  let s = Bipartite.s_count t and n = Bipartite.n_count t in
  let n_tmp =
    match restrict_n with
    | None -> Bitset.full n
    | Some r -> Bitset.copy r
  in
  (* Drop isolated N-vertices up front: they can never be covered. *)
  for w = 0 to n - 1 do
    if Bipartite.deg_n t w = 0 && Bitset.mem n_tmp w then Bitset.remove_inplace n_tmp w
  done;
  let s_tmp = Bitset.full s in
  let s_uni = Bitset.create s in
  let n_uni = Bitset.create n and n_many = Bitset.create n in
  let gain = Array.make s 0 in
  let queue = Bucket_queue.create ~size:s ~max_key:(Bipartite.max_deg_s t) in
  for v = 0 to s - 1 do
    let nbrs = Bipartite.neighbors_s t v in
    for i = 0 to Array.length nbrs - 1 do
      if Bitset.mem n_tmp nbrs.(i) then gain.(v) <- gain.(v) + 1
    done;
    if gain.(v) > 0 then Bucket_queue.set queue v gain.(v)
  done;
  let shift w delta =
    let xs = Bipartite.neighbors_n t w in
    for i = 0 to Array.length xs - 1 do
      let x = xs.(i) in
      if Bitset.mem s_tmp x then begin
        let g = gain.(x) + delta in
        gain.(x) <- g;
        if g > 0 then Bucket_queue.set queue x g else Bucket_queue.remove queue x
      end
    done
  in
  let steps = ref 0 in
  let v = ref (Bucket_queue.max_elt queue) in
  while !v >= 0 do
    incr steps;
    let v' = !v in
    Bucket_queue.remove queue v';
    Bitset.remove_inplace s_tmp v';
    Bitset.add_inplace s_uni v';
    let nbrs = Bipartite.neighbors_s t v' in
    for i = 0 to Array.length nbrs - 1 do
      let w = nbrs.(i) in
      if Bitset.mem n_uni w then begin
        (* Preserve (P1): w now has two Suni neighbors — demote. *)
        Bitset.remove_inplace n_uni w;
        Bitset.add_inplace n_many w;
        shift w 2
      end
      else if Bitset.mem n_tmp w then begin
        Bitset.remove_inplace n_tmp w;
        Bitset.add_inplace n_uni w;
        shift w (-3)
      end
    done;
    v := Bucket_queue.max_elt queue
  done;
  Metrics.incr m_runs;
  Metrics.add m_steps !steps;
  { s_uni; s_tmp; n_uni; n_many; n_tmp; steps = !steps }

let gain t st v = gain_of t ~n_tmp:st.n_tmp ~n_uni:st.n_uni v

let count_edges t ~from_s ~to_n =
  let acc = ref 0 in
  Bitset.iter
    (fun v ->
      Array.iter (fun w -> if Bitset.mem to_n w then incr acc) (Bipartite.neighbors_s t v))
    from_s;
  !acc

let edges_tmp t st = count_edges t ~from_s:st.s_tmp ~to_n:st.n_tmp
let edges_uni t st = count_edges t ~from_s:st.s_tmp ~to_n:st.n_uni

let check_conditions t st =
  let p1 =
    Bitset.for_all
      (fun w ->
        let c =
          Array.fold_left
            (fun acc u -> if Bitset.mem st.s_uni u then acc + 1 else acc)
            0 (Bipartite.neighbors_n t w)
        in
        c = 1)
      st.n_uni
  in
  let p2 =
    Bitset.for_all
      (fun w ->
        let in_tmp = ref false and in_uni = ref false in
        Array.iter
          (fun u ->
            if Bitset.mem st.s_tmp u then in_tmp := true;
            if Bitset.mem st.s_uni u then in_uni := true)
          (Bipartite.neighbors_n t w);
        !in_tmp && not !in_uni)
      st.n_tmp
  in
  let p3 = Bitset.cardinal st.n_uni >= Bitset.cardinal st.n_many in
  let p4 = Bitset.is_empty st.n_tmp || edges_tmp t st <= 2 * edges_uni t st in
  [ ("P1", p1); ("P2", p2); ("P3", p3); ("P4", p4) ]

let solve t =
  let st = run t in
  Solver.make t "partition" st.s_uni

let solve_degree_capped t =
  let n = Bipartite.n_count t in
  let cap = 2.0 *. Bipartite.delta_n t in
  let restrict = Bitset.create n in
  for w = 0 to n - 1 do
    if float_of_int (Bipartite.deg_n t w) <= cap then Bitset.add_inplace restrict w
  done;
  let st = run ~restrict_n:restrict t in
  Solver.make t "partition-capped" st.s_uni

let solve_recursive ?(max_depth = 10_000) t =
  (* Returns the chosen subset (indices of t's S side). *)
  let rec go depth t =
    let st = run t in
    if depth >= max_depth || Bitset.is_empty st.n_tmp || Bitset.is_empty st.s_tmp then st.s_uni
    else begin
      let sub, s_map, _ = Bipartite.sub_instance t st.s_tmp st.n_tmp in
      if Bipartite.n_count sub = 0 || Bipartite.s_count sub = 0 then st.s_uni
      else begin
        let inner = go (depth + 1) sub in
        let lifted = Bitset.create (Bipartite.s_count t) in
        Bitset.iter (fun i -> Bitset.add_inplace lifted s_map.(i)) inner;
        (* Keep whichever branch covers more on this instance. *)
        let a = Solver.evaluate t st.s_uni and b = Solver.evaluate t lifted in
        if b > a then lifted else st.s_uni
      end
    end
  in
  Solver.make t "partition-recursive" (go 0 t)

let solve_threshold ~t_param t =
  if t_param <= 1.0 then invalid_arg "Partition.solve_threshold: t must be > 1";
  let n = Bipartite.n_count t in
  let cap = t_param *. Bipartite.delta_n t in
  let restrict = Bitset.create n in
  for w = 0 to n - 1 do
    if float_of_int (Bipartite.deg_n t w) <= cap then Bitset.add_inplace restrict w
  done;
  let st = run ~restrict_n:restrict t in
  Solver.make t (Printf.sprintf "partition-t%.1f" t_param) st.s_uni
