(* The incremental Section-4 paths against from-scratch oracles: the
   bipartite constructor, the one-sided expansion walk and every spokesmen
   solver of the portfolio. Each oracle is the straightforward version the
   fast path replaced, kept here so the two can be compared value for value
   and witness for witness. *)

module Bitset = Wx_util.Bitset
module Rng = Wx_util.Rng
module Bipartite = Wx_graph.Bipartite
module Gen = Wx_graph.Gen
module Nbhd = Wx_expansion.Nbhd
module Bip_measure = Wx_expansion.Bip_measure
module Solver = Wx_spokesmen.Solver
module Partition = Wx_spokesmen.Partition
module Buckets = Wx_spokesmen.Buckets
module Core_graph = Wx_constructions.Core_graph
open Common

module Oracle = struct
  (* Deduplicate through a table of pairs, then sort rows polymorphically. *)
  let of_edges ~s ~n edges =
    if s < 0 || n < 0 then invalid_arg "Bipartite.of_edges";
    let seen = Hashtbl.create 16 in
    let clean =
      List.filter
        (fun (u, w) ->
          if u < 0 || u >= s || w < 0 || w >= n then
            invalid_arg "Bipartite.of_edges: endpoint out of range";
          if Hashtbl.mem seen (u, w) then false
          else begin
            Hashtbl.add seen (u, w) ();
            true
          end)
        edges
    in
    let adj_s = Array.make s [] and adj_n = Array.make n [] in
    List.iter
      (fun (u, w) ->
        adj_s.(u) <- w :: adj_s.(u);
        adj_n.(w) <- u :: adj_n.(w))
      clean;
    let rows a = Array.map (fun l -> Array.of_list (List.sort compare l)) a in
    (List.length clean, rows adj_s, rows adj_n)

  (* A fresh coverage bitset per subset, in [Bitset.iter_subsets] order. *)
  let ordinary_min t =
    let s = Bipartite.s_count t in
    let best = ref infinity and best_set = ref (Bitset.create s) in
    Bitset.iter_subsets (Bitset.full s) (fun s' ->
        let k = Bitset.cardinal s' in
        if k > 0 then begin
          let v = float_of_int (Bitset.cardinal (Nbhd.Bip.covered t s')) /. float_of_int k in
          if v < !best then begin
            best := v;
            best_set := Bitset.copy s'
          end
        end);
    (!best, !best_set)

  (* Procedure Partition, rescoring every vertex of Stmp on every step. *)
  let partition_run ?restrict_n t =
    let s = Bipartite.s_count t and n = Bipartite.n_count t in
    let n_tmp = match restrict_n with None -> Bitset.full n | Some r -> Bitset.copy r in
    for w = 0 to n - 1 do
      if Bipartite.deg_n t w = 0 && Bitset.mem n_tmp w then Bitset.remove_inplace n_tmp w
    done;
    let s_tmp = Bitset.full s and s_uni = Bitset.create s in
    let n_uni = Bitset.create n and n_many = Bitset.create n in
    let gain v =
      Array.fold_left
        (fun acc w ->
          if Bitset.mem n_tmp w then acc + 1 else if Bitset.mem n_uni w then acc - 2 else acc)
        0 (Bipartite.neighbors_s t v)
    in
    let steps = ref 0 and continue_ = ref true in
    while !continue_ && not (Bitset.is_empty s_tmp) do
      let best_v = ref (-1) and best_g = ref min_int in
      Bitset.iter
        (fun v ->
          let g = gain v in
          if g > !best_g then begin
            best_g := g;
            best_v := v
          end)
        s_tmp;
      if !best_g <= 0 then continue_ := false
      else begin
        incr steps;
        let v = !best_v in
        Bitset.remove_inplace s_tmp v;
        Bitset.add_inplace s_uni v;
        Array.iter
          (fun w ->
            if Bitset.mem n_uni w then begin
              Bitset.remove_inplace n_uni w;
              Bitset.add_inplace n_many w
            end
            else if Bitset.mem n_tmp w then begin
              Bitset.remove_inplace n_tmp w;
              Bitset.add_inplace n_uni w
            end)
          (Bipartite.neighbors_s t v)
      end
    done;
    { Partition.s_uni; s_tmp; n_uni; n_many; n_tmp; steps = !steps }

  let restrict_by_degree t cap =
    let r = Bitset.create (Bipartite.n_count t) in
    for w = 0 to Bipartite.n_count t - 1 do
      if float_of_int (Bipartite.deg_n t w) <= cap then Bitset.add_inplace r w
    done;
    r

  let partition_recursive t =
    let rec go t =
      let st = partition_run t in
      if Bitset.is_empty st.Partition.n_tmp || Bitset.is_empty st.Partition.s_tmp then
        st.Partition.s_uni
      else begin
        let sub, s_map, _ = Bipartite.sub_instance t st.Partition.s_tmp st.Partition.n_tmp in
        if Bipartite.n_count sub = 0 || Bipartite.s_count sub = 0 then st.Partition.s_uni
        else begin
          let lifted = Bitset.create (Bipartite.s_count t) in
          Bitset.iter (fun i -> Bitset.add_inplace lifted s_map.(i)) (go sub);
          if Solver.evaluate t lifted > Solver.evaluate t st.Partition.s_uni then lifted
          else st.Partition.s_uni
        end
      end
    in
    go t

  let buckets_class t members =
    let st = partition_run ~restrict_n:(Bitset.of_array (Bipartite.n_count t) members) t in
    Solver.make t "buckets" st.Partition.s_uni

  (* Greedy add, rescoring every unchosen vertex on every step, and the
     removal sweep over a snapshot of the chosen set. *)
  let greedy ~removal t =
    let s = Bipartite.s_count t in
    let cnt = Array.make (Bipartite.n_count t) 0 and chosen = Bitset.create s in
    let uniq = ref 0 in
    let score u f = Array.fold_left (fun acc w -> acc + f cnt.(w)) 0 (Bipartite.neighbors_s t u) in
    let add_gain = function 0 -> 1 | 1 -> -1 | _ -> 0 in
    let remove_gain = function 1 -> -1 | 2 -> 1 | _ -> 0 in
    let flip u d =
      Array.iter
        (fun w ->
          let c = cnt.(w) in
          if d > 0 then (if c = 0 then incr uniq else if c = 1 then decr uniq)
          else if c = 1 then decr uniq
          else if c = 2 then incr uniq;
          cnt.(w) <- c + d)
        (Bipartite.neighbors_s t u)
    in
    let greedy_pass () =
      let continue_ = ref true in
      while !continue_ do
        let best_u = ref (-1) and best_g = ref 0 in
        for u = 0 to s - 1 do
          if not (Bitset.mem chosen u) then begin
            let g = score u add_gain in
            if g > !best_g then begin
              best_g := g;
              best_u := u
            end
          end
        done;
        if !best_u >= 0 then begin
          Bitset.add_inplace chosen !best_u;
          flip !best_u 1
        end
        else continue_ := false
      done
    in
    greedy_pass ();
    if removal then begin
      let continue_ = ref true in
      while !continue_ do
        let removed = ref false in
        Bitset.iter
          (fun u ->
            if score u remove_gain > 0 then begin
              Bitset.remove_inplace chosen u;
              flip u (-1);
              removed := true
            end)
          (Bitset.copy chosen);
        let before = !uniq in
        greedy_pass ();
        continue_ := !removed || !uniq > before
      done
    end;
    chosen

  (* Anneal from the greedy local optimum, flip gains rescored per step. *)
  let anneal rng t =
    let s = Bipartite.s_count t in
    let steps = 50 * s in
    let t0 = 2.0 in
    let cooling = if steps <= 1 then 1.0 else exp (log (0.01 /. t0) /. float_of_int steps) in
    let chosen = greedy ~removal:true t in
    let cnt = Array.make (Bipartite.n_count t) 0 in
    Bitset.iter (fun u -> Array.iter (fun w -> cnt.(w) <- cnt.(w) + 1) (Bipartite.neighbors_s t u)) chosen;
    let uniq = ref (Array.fold_left (fun acc c -> if c = 1 then acc + 1 else acc) 0 cnt) in
    let best = ref !uniq and best_set = ref (Bitset.copy chosen) and temp = ref t0 in
    for _ = 1 to steps do
      let u = Rng.int rng s in
      let inside = Bitset.mem chosen u in
      let g =
        Array.fold_left
          (fun acc w ->
            match (inside, cnt.(w)) with
            | true, 1 | false, 1 -> acc - 1
            | true, 2 | false, 0 -> acc + 1
            | _ -> acc)
          0 (Bipartite.neighbors_s t u)
      in
      if g >= 0 || (!temp > 1e-9 && Rng.float rng < exp (float_of_int g /. !temp)) then begin
        let d = if inside then -1 else 1 in
        if inside then Bitset.remove_inplace chosen u else Bitset.add_inplace chosen u;
        Array.iter
          (fun w ->
            let c = cnt.(w) in
            (if d > 0 then (if c = 0 then incr uniq else if c = 1 then decr uniq)
             else if c = 1 then decr uniq
             else if c = 2 then incr uniq);
            cnt.(w) <- c + d)
          (Bipartite.neighbors_s t u);
        if !uniq > !best then begin
          best := !uniq;
          best_set := Bitset.copy chosen
        end
      end;
      temp := !temp *. cooling
    done;
    !best_set

  (* Lemma A.1's procedure, rescanning Ntmp with per-vertex live lists. *)
  let naive t =
    let s = Bipartite.s_count t and n = Bipartite.n_count t in
    let s_tmp = Bitset.full s and n_tmp = Bitset.full n in
    for w = 0 to n - 1 do
      if Bipartite.deg_n t w = 0 then Bitset.remove_inplace n_tmp w
    done;
    let s_uni = Bitset.create s and n_uni = Bitset.create n in
    let steps = ref 0 in
    let live w = List.filter (Bitset.mem s_tmp) (Array.to_list (Bipartite.neighbors_n t w)) in
    while not (Bitset.is_empty n_tmp) do
      incr steps;
      let v = ref (-1) and vdeg = ref max_int in
      Bitset.iter
        (fun w ->
          let d = List.length (live w) in
          if d < !vdeg then begin
            v := w;
            vdeg := d
          end)
        n_tmp;
      let gv = live !v in
      assert (gv <> []);
      let q' = ref [] and q'' = ref [] in
      Bitset.iter
        (fun u ->
          let l = live u in
          if List.exists (fun x -> List.mem x gv) l then
            if l = gv then q' := u :: !q' else q'' := u :: !q'')
        n_tmp;
      let w = List.hd gv in
      List.iter (Bitset.remove_inplace s_tmp) gv;
      Bitset.add_inplace s_uni w;
      List.iter
        (fun u ->
          Bitset.remove_inplace n_tmp u;
          Bitset.add_inplace n_uni u)
        !q';
      List.iter
        (fun u -> if Array.mem w (Bipartite.neighbors_n t u) then Bitset.remove_inplace n_tmp u)
        !q''
    done;
    { Wx_spokesmen.Naive.s_uni; n_uni; steps = !steps }

  (* One entry per [Portfolio.solvers] name. The decay entries did not
     change and run the library's sampler. *)
  let solvers =
    let make name f rng t = Solver.make t name (f rng t) in
    [
      ("decay", fun rng t -> Wx_spokesmen.Decay.solve rng t);
      ("decay-all-buckets", fun rng t -> Wx_spokesmen.Decay.solve ~all_buckets:true rng t);
      ("naive", make "naive" (fun _ t -> (naive t).Wx_spokesmen.Naive.s_uni));
      ("partition", make "partition" (fun _ t -> (partition_run t).Partition.s_uni));
      ( "partition-capped",
        make "partition-capped" (fun _ t ->
            let r = restrict_by_degree t (2.0 *. Bipartite.delta_n t) in
            (partition_run ~restrict_n:r t).Partition.s_uni) );
      ("partition-recursive", make "partition-recursive" (fun _ t -> partition_recursive t));
      ( "buckets",
        fun _ t ->
          let _, members = Buckets.largest_class t in
          buckets_class t members );
      ( "buckets-all-classes",
        fun _ t ->
          let cs = Buckets.classes t in
          if Array.length cs = 0 then invalid_arg "Buckets.solve_all_classes: empty N side";
          Array.fold_left
            (fun acc (_, m) -> Solver.best acc (buckets_class t m))
            (buckets_class t (snd cs.(0)))
            cs );
      ("greedy", make "greedy" (fun _ t -> greedy ~removal:false t));
      ("greedy-local", make "greedy-local" (fun _ t -> greedy ~removal:true t));
      ("anneal", make "anneal" anneal);
    ]
end

(* ---- Bipartite.of_edges ---- *)

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let same_as_oracle ~s ~n edges =
  let rows t side count = Array.init count (side t) in
  let got =
    outcome (fun () ->
        let t = Bipartite.of_edges ~s ~n edges in
        ( Bipartite.m t,
          rows t Bipartite.neighbors_s (Bipartite.s_count t),
          rows t Bipartite.neighbors_n (Bipartite.n_count t) ))
  in
  got = outcome (fun () -> Oracle.of_edges ~s ~n edges)

let arbitrary_edges =
  QCheck.make
    ~print:(fun (s, n, es) ->
      Printf.sprintf "s=%d n=%d [%s]" s n
        (String.concat "; " (List.map (fun (u, w) -> Printf.sprintf "%d,%d" u w) es)))
    QCheck.Gen.(
      let* s = int_range 0 10 in
      let* n = int_range 0 12 in
      let* m = int_range 0 40 in
      let* es = list_repeat m (pair (int_range 0 s) (int_range 0 n)) in
      (* Endpoints reach one past each side; one list in seven keeps them,
         so the range error is compared too. *)
      let* keep_out_of_range = map (( = ) 0) (int_bound 6) in
      return
        (s, n, if keep_out_of_range then es else List.filter (fun (u, w) -> u < s && w < n) es))

let test_of_edges_fixed () =
  check_true "duplicates" (same_as_oracle ~s:3 ~n:4 [ (0, 1); (2, 3); (0, 1); (1, 0); (2, 3); (0, 0) ]);
  check_true "empty S side" (same_as_oracle ~s:0 ~n:5 []);
  check_true "empty N side" (same_as_oracle ~s:4 ~n:0 []);
  check_true "no edges" (same_as_oracle ~s:3 ~n:3 []);
  check_true "reversed input" (same_as_oracle ~s:2 ~n:6 [ (0, 5); (0, 4); (1, 3); (0, 0); (1, 0) ]);
  check_true "S endpoint out of range" (same_as_oracle ~s:2 ~n:2 [ (0, 0); (2, 1) ]);
  check_true "N endpoint out of range" (same_as_oracle ~s:2 ~n:2 [ (0, -1) ]);
  check_true "negative side" (same_as_oracle ~s:(-1) ~n:2 []);
  let t = Bipartite.of_rows ~n:5 [| [| 4; 1; 1; 3 |]; [||]; [| 0; 2; 4 |] |] in
  check_int "of_rows m" 6 (Bipartite.m t);
  check_true "of_rows sorts and dedups" (Bipartite.neighbors_s t 0 = [| 1; 3; 4 |]);
  check_true "of_rows transpose" (Bipartite.neighbors_n t 4 = [| 0; 2 |]);
  Alcotest.check_raises "of_rows range" (Invalid_argument "Bipartite.of_rows: endpoint out of range")
    (fun () -> ignore (Bipartite.of_rows ~n:2 [| [| 2 |] |]))

(* Core graphs and blow-ups build their rows directly. *)
let test_constructions_match_edge_lists () =
  List.iter
    (fun s ->
      let t = Core_graph.bip (Core_graph.create s) in
      let es = ref [] in
      Bipartite.iter_edges t (fun u w -> es := (u, w) :: !es);
      check_true (Printf.sprintf "core %d" s)
        (same_as_oracle ~s:(Bipartite.s_count t) ~n:(Bipartite.n_count t) !es);
      (* Rows: leaf j's root path of blocks. *)
      let cg = Core_graph.create s in
      for j = 0 to s - 1 do
        let want =
          List.concat_map
            (fun v -> List.init (Core_graph.block_size cg v) (fun r -> Core_graph.block_offset cg v + r))
            (List.sort compare (Core_graph.ancestors cg j))
        in
        check_true "core row" (Array.to_list (Bipartite.neighbors_s t j) = want)
      done)
    [ 1; 2; 4; 8; 32 ];
  let core = Core_graph.create 8 in
  let b = Core_graph.bip core in
  List.iter
    (fun k ->
      let bn = Wx_constructions.Gen_core.blow_up_n core k in
      let bs = Wx_constructions.Gen_core.blow_up_s core k in
      Bipartite.iter_edges b (fun u w ->
          for c = 0 to k - 1 do
            check_true "blow-up N edge" (Bipartite.mem_edge bn u ((w * k) + c));
            check_true "blow-up S edge" (Bipartite.mem_edge bs ((u * k) + c) w)
          done);
      check_int "blow-up N m" (k * Bipartite.m b) (Bipartite.m bn);
      check_int "blow-up S m" (k * Bipartite.m b) (Bipartite.m bs))
    [ 1; 2; 3 ]

(* ---- one-sided expansion ---- *)

let same_expansion t =
  let v, w = Bip_measure.ordinary_expansion_min_exact t in
  let v', w' = Oracle.ordinary_min t in
  Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v') && Bitset.equal w w'

(* Random edge lists over up to 12 S-vertices, with isolated vertices on
   both sides. *)
let arbitrary_sparse =
  QCheck.make ~print:(Format.asprintf "%a" Bipartite.pp)
    QCheck.Gen.(
      let* s = int_range 1 12 in
      let* n = int_range 1 14 in
      let* es = list_size (int_range 0 30) (pair (int_bound (s - 1)) (int_bound (n - 1))) in
      return (Bipartite.of_edges ~s ~n es))

let test_expansion_gbad_grid () =
  List.iter
    (fun gb ->
      let t = Wx_constructions.Gbad.bip gb in
      if Bipartite.s_count t <= 16 then
        check_true (Format.asprintf "%a" Bipartite.pp t) (same_expansion t))
    (Wireless_expanders.Instances.gbad_grid ());
  check_true "empty S" (same_expansion (Bipartite.of_edges ~s:0 ~n:3 []));
  check_true "all N isolated" (same_expansion (Bipartite.of_edges ~s:3 ~n:3 []))

(* ---- spokesmen portfolio ---- *)

let solver_outcome f rng t =
  match f rng t with
  | r -> Ok (r.Solver.name, Bitset.elements r.Solver.chosen, r.Solver.covered)
  | exception Invalid_argument m -> Error m

let same_choices t =
  List.for_all
    (fun (name, f) ->
      match List.assoc_opt name Oracle.solvers with
      | None -> false
      | Some g -> solver_outcome f (Rng.create 3) t = solver_outcome g (Rng.create 3) t)
    Wx_spokesmen.Portfolio.solvers

let same_runs t =
  let same (a : Partition.state) (b : Partition.state) =
    Bitset.equal a.s_uni b.s_uni && Bitset.equal a.s_tmp b.s_tmp && Bitset.equal a.n_uni b.n_uni
    && Bitset.equal a.n_many b.n_many && Bitset.equal a.n_tmp b.n_tmp && a.steps = b.steps
  in
  let tr = Wx_spokesmen.Naive.run t and tr' = Oracle.naive t in
  same (Partition.run t) (Oracle.partition_run t)
  && Bitset.equal tr.s_uni tr'.s_uni && Bitset.equal tr.n_uni tr'.n_uni && tr.steps = tr'.steps

let test_portfolio_fixed () =
  check_int "an oracle per solver" (List.length Wx_spokesmen.Portfolio.solvers)
    (List.length Oracle.solvers);
  List.iter
    (fun (name, t) ->
      check_true (name ^ " choices") (same_choices t);
      check_true (name ^ " runs") (same_runs t))
    [
      ("core-16", Core_graph.bip (Core_graph.create 16));
      ("core-64", Core_graph.bip (Core_graph.create 64));
      ("matching-1", Gen.bipartite_matching (Rng.create 1) 1);
      ("matching-200", Gen.bipartite_matching (Rng.create 2) 200);
      ("pinned 8x5", Bipartite.of_edges ~s:8 ~n:5
         [ (0, 1); (0, 4); (1, 1); (1, 2); (2, 0); (2, 1); (3, 1); (3, 4);
           (4, 2); (4, 4); (5, 0); (5, 1); (6, 1); (6, 3); (7, 1); (7, 2) ]);
    ]

(* ---- allocation budgets ---- *)

let minor_words f =
  let module Memgc = Wx_obs.Memgc in
  Memgc.enable ();
  Fun.protect ~finally:Memgc.disable (fun () ->
      let before = Memgc.read () in
      ignore (Sys.opaque_identity (f ()));
      (Memgc.diff ~before ~after:(Memgc.read ())).Memgc.minor_words)

let test_expansion_alloc_budget () =
  let t = Gen.random_bipartite_sdeg (Rng.create 4) ~s:16 ~n:40 ~d:4 in
  let per_subset =
    float_of_int (minor_words (fun () -> Bip_measure.ordinary_expansion_min_exact t))
    /. float_of_int (1 lsl 16)
  in
  check_true (Printf.sprintf "%.3f minor words per subset <= 0.5" per_subset) (per_subset <= 0.5)

let test_partition_alloc_budget () =
  let t = Gen.bipartite_matching (Rng.create 16) 2048 in
  let steps = (Partition.run t).Partition.steps in
  check_int "one step per edge" 2048 steps;
  let per_step = float_of_int (minor_words (fun () -> Partition.run t)) /. float_of_int steps in
  check_true (Printf.sprintf "%.3f minor words per step <= 1" per_step) (per_step <= 1.0)

let qcheck_tests =
  [
    qcheck ~count:300 "of_edges = table-and-sort oracle"
      (fun (s, n, es) -> same_as_oracle ~s ~n es)
      arbitrary_edges;
    qcheck ~count:100 "ordinary expansion = per-subset scan" same_expansion arbitrary_sparse;
    qcheck ~count:100 "portfolio = quadratic solvers (sparse)"
      (fun t -> same_choices t && same_runs t)
      arbitrary_sparse;
    qcheck ~count:60 "portfolio = quadratic solvers"
      (fun t -> same_choices t && same_runs t)
      (arbitrary_bipartite ~smax:40 ~nmax:60);
  ]

let suite =
  [
    Alcotest.test_case "of_edges fixed cases" `Quick test_of_edges_fixed;
    Alcotest.test_case "constructions build rows" `Quick test_constructions_match_edge_lists;
    Alcotest.test_case "expansion on the Gbad grid" `Quick test_expansion_gbad_grid;
    Alcotest.test_case "portfolio fixed instances" `Quick test_portfolio_fixed;
    Alcotest.test_case "expansion alloc budget" `Quick test_expansion_alloc_budget;
    Alcotest.test_case "partition alloc budget" `Quick test_partition_alloc_budget;
  ]
  @ qcheck_tests
