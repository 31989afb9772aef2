module Bitset = Wx_util.Bitset
module Bucket_queue = Wx_util.Bucket_queue
module Bipartite = Wx_graph.Bipartite

type trace = { s_uni : Bitset.t; n_uni : Bitset.t; steps : int }

(* Ntmp is the membership of a bucket queue keyed by the live degree
   |Γ(w, Stmp)|, kept up to date as Stmp shrinks; its [min_elt] is the
   lowest-index vertex of minimum live degree, the first minimum of a
   scan of Ntmp in index order. Each step only visits the N-neighbours of
   Γ(v, Stmp). *)
let run t =
  let s = Bipartite.s_count t and n = Bipartite.n_count t in
  let s_live = Array.make s true in
  let live = Array.init n (Bipartite.deg_n t) in
  let n_tmp = Bucket_queue.create ~size:n ~max_key:(Bipartite.max_deg_n t) in
  (* Isolated N-vertices can never be covered; exclude them up front (the
     paper's framework assumes minimum degree 1, so this only widens the
     procedure's domain — the γ/∆ guarantee then counts coverable N). *)
  Array.iteri (fun w d -> if d > 0 then Bucket_queue.set n_tmp w d) live;
  let s_uni = Bitset.create s and n_uni = Bitset.create n in
  let gv = Array.make (Bipartite.max_deg_n t) 0 in
  let hits = Array.make n 0 and touched = Array.make n 0 in
  let steps = ref 0 in
  let v = ref (Bucket_queue.min_elt n_tmp) in
  while !v >= 0 do
    incr steps;
    (* Γ(v, Stmp) in index order. Invariant (I4) guarantees ≥ 1. *)
    let k = ref 0 in
    let xs = Bipartite.neighbors_n t !v in
    for i = 0 to Array.length xs - 1 do
      if s_live.(xs.(i)) then begin
        gv.(!k) <- xs.(i);
        incr k
      end
    done;
    let k = !k in
    assert (k > 0);
    (* Qv: the Ntmp-vertices incident on Γ(v, Stmp), each with its number
       of neighbours there. *)
    let ntouched = ref 0 in
    for i = 0 to k - 1 do
      let us = Bipartite.neighbors_s t gv.(i) in
      for j = 0 to Array.length us - 1 do
        let u = us.(j) in
        if Bucket_queue.mem n_tmp u then begin
          if hits.(u) = 0 then begin
            touched.(!ntouched) <- u;
            incr ntouched
          end;
          hits.(u) <- hits.(u) + 1
        end
      done
    done;
    (* Promote one vertex w of Γ(v, Stmp). Q'v (live neighbourhood exactly
       Γ(v, Stmp)) moves to Nuni; the rest of Qv adjacent to w leaves Ntmp. *)
    let w = gv.(0) in
    Bitset.add_inplace s_uni w;
    for i = 0 to !ntouched - 1 do
      let u = touched.(i) in
      if hits.(u) = k && live.(u) = k then begin
        Bucket_queue.remove n_tmp u;
        Bitset.add_inplace n_uni u
      end;
      hits.(u) <- 0
    done;
    let us = Bipartite.neighbors_s t w in
    for j = 0 to Array.length us - 1 do
      Bucket_queue.remove n_tmp us.(j)
    done;
    (* Discard Γ(v, Stmp) from Stmp. *)
    for i = 0 to k - 1 do
      let x = gv.(i) in
      s_live.(x) <- false;
      let us = Bipartite.neighbors_s t x in
      for j = 0 to Array.length us - 1 do
        let u = us.(j) in
        live.(u) <- live.(u) - 1;
        if Bucket_queue.mem n_tmp u then Bucket_queue.set n_tmp u live.(u)
      done
    done;
    v := Bucket_queue.min_elt n_tmp
  done;
  { s_uni; n_uni; steps = !steps }

let solve t =
  let tr = run t in
  Solver.make t "naive" tr.s_uni
