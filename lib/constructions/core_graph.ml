module Bipartite = Wx_graph.Bipartite
module Bitset = Wx_util.Bitset
module Floatx = Wx_util.Floatx

type t = {
  s : int;
  levels : int; (* log2 s *)
  bip : Bipartite.t;
  offset : int array; (* per node 1..2s-1; offset.(0) unused *)
  size : int array;
}

let depth_of_node v = Floatx.log2i_floor v

let create s =
  if not (Floatx.is_pow2 s) then invalid_arg "Core_graph.create: s must be a power of two";
  if s < 1 || s > 4096 then invalid_arg "Core_graph.create: s out of range";
  let levels = Floatx.log2i_floor s in
  let nodes = (2 * s) - 1 in
  let offset = Array.make (nodes + 1) 0 in
  let size = Array.make (nodes + 1) 0 in
  let acc = ref 0 in
  for v = 1 to nodes do
    let d = depth_of_node v in
    size.(v) <- s lsr d;
    offset.(v) <- !acc;
    acc := !acc + size.(v)
  done;
  let n_total = !acc in
  (* Row of leaf s+j (S-vertex j): every block on its root path, root
     first. Block offsets grow with the heap index, so the row is sorted. *)
  let rows =
    Array.init s (fun j ->
        let row = Array.make nodes 0 in
        let pos = ref 0 in
        for d = 0 to levels do
          let v = (s + j) lsr (levels - d) in
          for r = 0 to size.(v) - 1 do
            row.(!pos) <- offset.(v) + r;
            incr pos
          done
        done;
        row)
  in
  { s; levels; bip = Bipartite.of_rows ~n:n_total rows; offset; size }

let s t = t.s
let n_size t = Bipartite.n_count t.bip
let bip t = t.bip
let levels t = t.levels
let node_count t = (2 * t.s) - 1
let block_offset t v = t.offset.(v)
let block_size t v = t.size.(v)
let node_of_leaf t j = t.s + j

let ancestors t j =
  let rec go v acc = if v < 1 then List.rev acc else go (v / 2) (v :: acc) in
  List.rev (go (node_of_leaf t j) [])

(* Count-class DP: classes 0, 1, 2 (meaning 0, exactly 1, >= 2 selected
   leaves in the subtree). value.(v).(c) = max unique coverage obtainable
   within the subtree of v given class c. *)
let neg_inf = min_int / 4

let combine_class a b = if a + b >= 2 then 2 else a + b

let m_dp_nodes = Wx_obs.Metrics.counter "core.dp_nodes"
let m_dp_cells = Wx_obs.Metrics.counter "core.dp_cells"

let dp_tables t =
  let nodes = node_count t in
  Wx_obs.Metrics.add m_dp_nodes nodes;
  let value = Array.make_matrix (nodes + 1) 3 neg_inf in
  (* Process nodes bottom-up: heap order reversed. *)
  for v = nodes downto 1 do
    if v >= t.s then begin
      (* Leaf: block size 1; selecting the leaf covers its own block. *)
      value.(v).(0) <- 0;
      value.(v).(1) <- 1
    end
    else begin
      let l = 2 * v and r = (2 * v) + 1 in
      for cl = 0 to 2 do
        for cr = 0 to 2 do
          if value.(l).(cl) > neg_inf && value.(r).(cr) > neg_inf then begin
            let c = combine_class cl cr in
            let bonus = if c = 1 then t.size.(v) else 0 in
            let cand = value.(l).(cl) + value.(r).(cr) + bonus in
            if cand > value.(v).(c) then value.(v).(c) <- cand
          end
        done
      done
    end
  done;
  value

let dp_max_unique t =
  let value = dp_tables t in
  let best = ref 0 in
  for c = 0 to 2 do
    if value.(1).(c) > !best then best := value.(1).(c)
  done;
  !best

let dp_max_unique_witness t =
  let value = dp_tables t in
  let out = Bitset.create t.s in
  (* Reconstruct: walk down choosing the (cl, cr) split that realizes the
     stored optimum for the chosen class at each node. *)
  let rec descend v c =
    if v >= t.s then begin
      (* Leaf. *)
      if c = 1 then Bitset.add_inplace out (v - t.s)
    end
    else begin
      let l = 2 * v and r = (2 * v) + 1 in
      let target = value.(v).(c) in
      let found = ref false in
      for cl = 0 to 2 do
        for cr = 0 to 2 do
          if not !found then begin
            let cc = combine_class cl cr in
            if cc = c && value.(l).(cl) > neg_inf && value.(r).(cr) > neg_inf then begin
              let bonus = if c = 1 then t.size.(v) else 0 in
              if value.(l).(cl) + value.(r).(cr) + bonus = target then begin
                found := true;
                descend l cl;
                descend r cr
              end
            end
          end
        done
      done;
      assert !found
    end
  in
  let best_c = ref 0 in
  for c = 1 to 2 do
    if value.(1).(c) > value.(1).(!best_c) then best_c := c
  done;
  descend 1 !best_c;
  out

let dp_min_coverage t =
  (* g.(v).(k) = min total block mass of touched nodes in subtree(v) with
     exactly k selected leaves below v. *)
  let nodes = node_count t in
  let leaves_below = Array.make (nodes + 1) 0 in
  for v = nodes downto 1 do
    if v >= t.s then leaves_below.(v) <- 1
    else leaves_below.(v) <- leaves_below.(2 * v) + leaves_below.((2 * v) + 1)
  done;
  let g = Array.make (nodes + 1) [||] in
  for v = nodes downto 1 do
    let lb = leaves_below.(v) in
    if v >= t.s then g.(v) <- [| 0; 1 |]
    else begin
      let l = 2 * v and r = (2 * v) + 1 in
      let gl = g.(l) and gr = g.(r) in
      let out = Array.make (lb + 1) max_int in
      Wx_obs.Metrics.add m_dp_cells (Array.length gl * Array.length gr);
      for kl = 0 to Array.length gl - 1 do
        for kr = 0 to Array.length gr - 1 do
          if gl.(kl) < max_int && gr.(kr) < max_int then begin
            let k = kl + kr in
            let bonus = if k >= 1 then t.size.(v) else 0 in
            let cand = gl.(kl) + gr.(kr) + bonus in
            if cand < out.(k) then out.(k) <- cand
          end
        done
      done;
      g.(v) <- out;
      (* Children tables no longer needed; free them. *)
      g.(l) <- [||];
      g.(r) <- [||]
    end
  done;
  g.(1)

let unique_coverage_of t s' =
  (* Per node, count selected leaves below (capped at 2); blocks with count
     exactly 1 are uniquely covered. *)
  let nodes = node_count t in
  let cnt = Array.make (nodes + 1) 0 in
  Bitset.iter
    (fun j ->
      let v = ref (node_of_leaf t j) in
      while !v >= 1 do
        cnt.(!v) <- min 2 (cnt.(!v) + 1);
        v := !v / 2
      done)
    s';
  let acc = ref 0 in
  for v = 1 to nodes do
    if cnt.(v) = 1 then acc := !acc + t.size.(v)
  done;
  !acc
