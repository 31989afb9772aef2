module Bitset = Wx_util.Bitset

type t = { s : int; n : int; m : int; adj_s : int array array; adj_n : int array array }

(* Each row is checked, then sorted and stripped of duplicates unless it is
   already strictly increasing (the constructors that build rows directly
   produce them sorted, so they skip the sort). The N side is the transpose,
   filled in increasing S order, so its rows come out sorted and distinct. *)
let of_rows ~n adj_s =
  if n < 0 then invalid_arg "Bipartite.of_rows";
  let s = Array.length adj_s in
  let dn = Array.make n 0 in
  let m = ref 0 in
  for u = 0 to s - 1 do
    let row = adj_s.(u) in
    let len = Array.length row in
    let sorted = ref true in
    for i = 0 to len - 1 do
      let w = row.(i) in
      if w < 0 || w >= n then invalid_arg "Bipartite.of_rows: endpoint out of range";
      if i > 0 && row.(i - 1) >= w then sorted := false
    done;
    let row =
      if !sorted then row
      else begin
        Array.sort Int.compare row;
        let k = ref 1 in
        for i = 1 to len - 1 do
          if row.(i) <> row.(!k - 1) then begin
            row.(!k) <- row.(i);
            incr k
          end
        done;
        if !k = len then row else Array.sub row 0 !k
      end
    in
    adj_s.(u) <- row;
    m := !m + Array.length row;
    Array.iter (fun w -> dn.(w) <- dn.(w) + 1) row
  done;
  let adj_n = Array.map (fun d -> Array.make d 0) dn in
  Array.fill dn 0 n 0;
  for u = 0 to s - 1 do
    Array.iter
      (fun w ->
        adj_n.(w).(dn.(w)) <- u;
        dn.(w) <- dn.(w) + 1)
      adj_s.(u)
  done;
  { s; n; m = !m; adj_s; adj_n }

let of_edges ~s ~n edges =
  if s < 0 || n < 0 then invalid_arg "Bipartite.of_edges";
  let ds = Array.make s 0 in
  List.iter
    (fun (u, w) ->
      if u < 0 || u >= s || w < 0 || w >= n then
        invalid_arg "Bipartite.of_edges: endpoint out of range";
      ds.(u) <- ds.(u) + 1)
    edges;
  let rows = Array.map (fun d -> Array.make d 0) ds in
  (* Fill each row from its end: edge lists are usually built by consing,
     so this restores generation order, which is often already sorted. *)
  List.iter
    (fun (u, w) ->
      ds.(u) <- ds.(u) - 1;
      rows.(u).(ds.(u)) <- w)
    edges;
  of_rows ~n rows

let s_count t = t.s
let n_count t = t.n
let m t = t.m
let deg_s t u = Array.length t.adj_s.(u)
let deg_n t w = Array.length t.adj_n.(w)
let neighbors_s t u = t.adj_s.(u)
let neighbors_n t w = t.adj_n.(w)

let max_arr f k =
  let d = ref 0 in
  for i = 0 to k - 1 do
    d := max !d (f i)
  done;
  !d

let max_deg_s t = max_arr (deg_s t) t.s
let max_deg_n t = max_arr (deg_n t) t.n
let delta_s t = if t.s = 0 then 0.0 else float_of_int t.m /. float_of_int t.s
let delta_n t = if t.n = 0 then 0.0 else float_of_int t.m /. float_of_int t.n
let beta t = if t.s = 0 then 0.0 else float_of_int t.n /. float_of_int t.s

let mem_edge t u w =
  let a = t.adj_s.(u) in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) = w then found := true else if a.(mid) < w then lo := mid + 1 else hi := mid - 1
  done;
  !found

let iter_edges t f =
  for u = 0 to t.s - 1 do
    Array.iter (fun w -> f u w) t.adj_s.(u)
  done

let has_isolated t =
  let rec go_s u = u < t.s && (deg_s t u = 0 || go_s (u + 1)) in
  let rec go_n w = w < t.n && (deg_n t w = 0 || go_n (w + 1)) in
  go_s 0 || go_n 0

let sub_instance t ss ns =
  let s_map = Bitset.to_array ss in
  let n_map = Bitset.to_array ns in
  let s_back = Array.make t.s (-1) and n_back = Array.make t.n (-1) in
  Array.iteri (fun i u -> s_back.(u) <- i) s_map;
  Array.iteri (fun i w -> n_back.(w) <- i) n_map;
  let es = ref [] in
  Array.iteri
    (fun i u ->
      Array.iter (fun w -> if n_back.(w) >= 0 then es := (i, n_back.(w)) :: !es) t.adj_s.(u))
    s_map;
  (of_edges ~s:(Array.length s_map) ~n:(Array.length n_map) !es, s_map, n_map)

let to_graph t =
  let es = ref [] in
  iter_edges t (fun u w -> es := (u, t.s + w) :: !es);
  let g = Graph.of_edges (t.s + t.n) !es in
  (g, Array.init t.s (fun i -> i), Array.init t.n (fun i -> t.s + i))

let of_set_neighborhood g s =
  let n = Graph.n g in
  let in_s = s in
  (* N = Γ⁻(S): external neighbors of S. *)
  let nb = Bitset.create n in
  Bitset.iter
    (fun v -> Graph.iter_neighbors g v (fun w -> if not (Bitset.mem in_s w) then Bitset.add_inplace nb w))
    s;
  let s_map = Bitset.to_array s in
  let n_map = Bitset.to_array nb in
  let n_back = Array.make n (-1) in
  Array.iteri (fun i w -> n_back.(w) <- i) n_map;
  let es = ref [] in
  Array.iteri
    (fun i v ->
      Graph.iter_neighbors g v (fun w -> if n_back.(w) >= 0 then es := (i, n_back.(w)) :: !es))
    s_map;
  (of_edges ~s:(Array.length s_map) ~n:(Array.length n_map) !es, s_map, n_map)

let pp fmt t =
  Format.fprintf fmt "bipartite(|S|=%d, |N|=%d, m=%d, δS=%.2f, δN=%.2f)" t.s t.n t.m
    (delta_s t) (delta_n t)
