module Bitset = Wx_util.Bitset
module Bucket_queue = Wx_util.Bucket_queue
module Bipartite = Wx_graph.Bipartite

(* Incremental objective state: per-N coverage counts, the current number
   of uniquely covered vertices, and every S-vertex's add gain
   [#{w ∈ Γ(u) : cnt w = 0} − #{w ∈ Γ(u) : cnt w = 1}], kept for chosen
   vertices too so a removed vertex re-enters with the right gain. The
   unchosen vertices of positive gain sit in a bucket queue keyed by gain;
   its [max_elt] is the lowest-index vertex of maximum gain, the one a
   scan of S in index order picks. *)
type state = {
  t : Bipartite.t;
  cnt : int array;
  gain : int array;
  queue : Bucket_queue.t;
  mutable uniq : int;
  chosen : Bitset.t;
}

let make_state t =
  let s = Bipartite.s_count t in
  let gain = Array.init s (Bipartite.deg_s t) in
  let queue = Bucket_queue.create ~size:s ~max_key:(Bipartite.max_deg_s t) in
  Array.iteri (fun u g -> if g > 0 then Bucket_queue.set queue u g) gain;
  { t; cnt = Array.make (Bipartite.n_count t) 0; gain; queue; uniq = 0; chosen = Bitset.create s }

(* Add [delta] to the gain of every S-neighbour of N-vertex [w]. *)
let shift st w delta =
  let xs = Bipartite.neighbors_n st.t w in
  for i = 0 to Array.length xs - 1 do
    let x = xs.(i) in
    let g = st.gain.(x) + delta in
    st.gain.(x) <- g;
    if not (Bitset.mem st.chosen x) then
      if g > 0 then Bucket_queue.set st.queue x g else Bucket_queue.remove st.queue x
  done

(* A count moving 0 → 1 turns w's +1 into −1 for its neighbours' add
   gains; 1 → 2 turns −1 into 0. Removal runs the same moves backwards. *)
let apply_add st u =
  Bitset.add_inplace st.chosen u;
  Bucket_queue.remove st.queue u;
  let nbrs = Bipartite.neighbors_s st.t u in
  for i = 0 to Array.length nbrs - 1 do
    let w = nbrs.(i) in
    let c = st.cnt.(w) in
    st.cnt.(w) <- c + 1;
    if c = 0 then begin
      st.uniq <- st.uniq + 1;
      shift st w (-2)
    end
    else if c = 1 then begin
      st.uniq <- st.uniq - 1;
      shift st w 1
    end
  done

let apply_remove st u =
  Bitset.remove_inplace st.chosen u;
  let nbrs = Bipartite.neighbors_s st.t u in
  for i = 0 to Array.length nbrs - 1 do
    let w = nbrs.(i) in
    let c = st.cnt.(w) in
    st.cnt.(w) <- c - 1;
    if c = 1 then begin
      st.uniq <- st.uniq - 1;
      shift st w 2
    end
    else if c = 2 then begin
      st.uniq <- st.uniq + 1;
      shift st w (-1)
    end
  done;
  if st.gain.(u) > 0 then Bucket_queue.set st.queue u st.gain.(u)

let gain_of_remove st u =
  let nbrs = Bipartite.neighbors_s st.t u in
  let acc = ref 0 in
  for i = 0 to Array.length nbrs - 1 do
    match st.cnt.(nbrs.(i)) with 1 -> decr acc | 2 -> incr acc | _ -> ()
  done;
  !acc

let greedy_pass st =
  let u = ref (Bucket_queue.max_elt st.queue) in
  while !u >= 0 do
    apply_add st !u;
    u := Bucket_queue.max_elt st.queue
  done

(* One sweep over the vertices chosen when it starts, in index order;
   only the visited vertex can leave, so "chosen when visited" is the
   same set. *)
let removal_pass st =
  let changed = ref false in
  for u = 0 to Bipartite.s_count st.t - 1 do
    if Bitset.mem st.chosen u && gain_of_remove st u > 0 then begin
      apply_remove st u;
      changed := true
    end
  done;
  !changed

let solve t =
  let st = make_state t in
  greedy_pass st;
  Solver.make t "greedy" st.chosen

let solve_with_removal t =
  let st = make_state t in
  greedy_pass st;
  let continue_ = ref true in
  (* Alternate removal and add passes until neither changes anything; each
     accepted move strictly increases the objective, so this terminates. *)
  while !continue_ do
    let removed = removal_pass st in
    let before = st.uniq in
    greedy_pass st;
    continue_ := removed || st.uniq > before
  done;
  Solver.make t "greedy-local" st.chosen
