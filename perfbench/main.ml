(* perfbench: the repository benchmark.

   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   One process, one caller, a closed batch loop at the workload's job
   count (2, nproc on the reference box; 1 for radio-scale). With
   --trace 0 it times untraced passes and prints the end-to-end metrics.
   With --trace 1 it times untraced passes for half the budget, traced
   passes (a span around every layer call, library counters on) for the
   other half, then replays pass 0 at the other job count (1 or 2), and
   prints the per-layer metrics. The last stdout line is the JSON result; the exit code is 1
   when any answer check failed.

   Other modes: --selftest (the benchmark's own checks) and
   --regen-reference (rewrite the exact-expansion answer key at jobs = 1). *)

module Clock = Wx_obs.Clock
module Json = Wx_obs.Json
module Metrics = Wx_obs.Metrics
module Memgc = Wx_obs.Memgc
module Work = Wx_obs.Work
module Trace_export = Wx_obs.Trace_export
module Report = Wx_obs.Report
module Pool = Wx_par.Pool
module Measure = Wx_expansion.Measure

(* ---- metric catalog (BENCHMARK.json mirrors it; --selftest checks) ---- *)

let end_to_end = [ ("verdict_s", "s"); ("setup_s", "s"); ("peak_heap_mb", "MB") ]

(* Layer self times: metric, span name, and where the span runs — in
   set-up (measured over one traced set-up) or in a pass (mean per traced
   pass). *)
let layer_times =
  [
    ("gen.s", "gen", `Setup);
    ("csr.build_s", "csr", `Setup);
    ("instances.s", "instances", `Pass);
    ("sim_csr.fill_s", "sim_csr.fill", `Pass);
    ("sim_csr.scan_s", "sim_csr.run", `Pass);
    ("measure.beta_s", "measure.beta", `Pass);
    ("measure.beta_u_s", "measure.beta_u", `Pass);
    ("measure.beta_w_s", "measure.beta_w", `Pass);
    ("spokesmen.s", "spokesmen", `Pass);
    ("constructions.core_s", "constructions.core", `Pass);
    ("constructions.gen_core_s", "constructions.gen_core", `Pass);
    ("theorems.relations_s", "theorems.relations", `Pass);
    ("theorems.gbad_s", "theorems.gbad", `Pass);
    ("theorems.worst_case_s", "theorems.worst_case", `Pass);
    ("theorems.broadcast_s", "theorems.broadcast", `Pass);
    ("check.s", "check", `Pass);
  ]

let per_layer =
  List.map (fun (m, _, _) -> (m, "s")) layer_times
  @ [
      ("gen.edges", "count");
      ("csr.bytes", "B");
      ("sim_csr.rounds", "count");
      ("sim_csr.vertex_scans", "count");
      ("sim_csr.scans_per_s", "1/s");
      ("sim_csr.idle_rounds", "count");
      ("sim_csr.useful_frac", "ratio");
      ("pool.runs", "count");
      ("pool.domains_spawned", "count");
      ("pool.busy_frac", "ratio");
      ("pool.join_wait_s", "s");
      ("pool.idle_tail_s", "s");
      ("pool.speedup", "ratio");
      ("measure.sets_scored", "count");
      ("measure.gray_steps", "count");
      ("measure.pruned_frac", "ratio");
      ("gc.minor_mwords", "Mword");
      ("gc.major_collections", "count");
      ("obs.overhead_frac", "ratio");
      ("obs.coverage_frac", "ratio");
    ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s
  && match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

(* ---- statistics ---- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = if xs = [] then 0.0 else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The highest percentile with at least ten samples above it, once that
   is at least the median (20 samples). *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 20 then None else Some (100 * (n - 10) / n, a.(n - 11))

let now () = Clock.now_ns ()
let secs t0 = Clock.ns_to_s (now () - t0)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* ---- the loop ---- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable rounds : int;
  mutable heap_mb : float;  (** after set-up and the first pass; 0 before *)
}

(* The major heap's high-water mark. Read once, after set-up and the first
   pass, so it covers one command's worth of work and does not grow with
   the number of passes a run happens to fit in. *)
let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Closed loop, one caller: pass i+1 starts once pass i's checked answer
   is in. Runs passes until they have taken [budget] seconds, at least
   one. [between t] runs after each pass, outside the timing, with [t]
   the pass time so far. *)
let timed_passes ?(between = ignore) (r : Workloads.runner) ~jobs ~budget ~wrap tally =
  let times = ref [] and elapsed = ref 0.0 and i = ref 0 in
  while !times = [] || !elapsed < budget do
    let t0 = now () in
    let (p : Workloads.pass) = wrap !i (fun () -> r.pass ~jobs !i) in
    let dt = secs t0 in
    times := dt :: !times;
    elapsed := !elapsed +. dt;
    tally.attempted <- tally.attempted + p.Workloads.ops;
    tally.failed <- tally.failed + p.Workloads.failed;
    tally.rounds <- tally.rounds + p.Workloads.rounds;
    if tally.heap_mb = 0.0 then tally.heap_mb <- heap_mb ();
    incr i;
    between !elapsed
  done;
  List.rev !times

(* One block of set-ups, each from a collected heap so no repetition pays
   for the previous one's garbage: [reps] of them, or by default at least
   2 and for at least 0.25 s (at most 250). *)
let timed_setups ?reps (r : Workloads.runner) =
  let t_start = now () in
  let times = ref [] and k = ref 0 in
  let more () =
    match reps with Some n -> !k < n | None -> !k < 2 || (secs t_start < 0.25 && !k < 250)
  in
  while more () do
    Gc.full_major ();
    let t0 = now () in
    r.setup ();
    times := secs t0 :: !times;
    incr k
  done;
  Gc.full_major ();
  !times

let provenance ~workload ~jobs ~seed ~trace =
  let commit = List.assoc "git_commit" (Report.capture_provenance ()) in
  let dirty = String.ends_with ~suffix:"+dirty" commit in
  let commit = if dirty then String.sub commit 0 (String.length commit - 6) else commit in
  Json.Obj
    [
      ("commit", Json.String commit);
      ("dirty", if commit = "unknown" then Json.Null else Json.Bool dirty);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", Json.Int jobs);
      ("ocaml", Json.String Sys.ocaml_version);
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("trace", Json.Bool trace);
    ]

let print_metric (name, unit) value note =
  Printf.printf "%-26s %18.6f %-6s %s\n" name value unit note

let result_line ~correct tally metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int tally.attempted);
         ("failed", Json.Int tally.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                metrics) );
       ])

(* ---- traced phase ---- *)

(* A number from a [Metrics.snapshot]: [group.name], or [group.name.field]. *)
let snap_field snap group name field =
  let ( let* ) = Option.bind in
  Option.value ~default:0.0
    (let* g = Json.member group snap in
     let* j = Json.member name g in
     match field with
     | None -> Json.to_float_opt j
     | Some f -> Option.bind (Json.member f j) Json.to_float_opt)

let traced_phase (r : Workloads.runner) ~jobs ~budget ~untraced ~trace_path tally =
  Workloads.reset_counts ();
  Tracer.reset ();
  Metrics.reset ();
  Pool.reset_util ();
  Metrics.enable ();
  Memgc.enable ();
  Trace_export.enable ();
  Tracer.on := true;
  Tracer.with_op 0 (fun () -> Tracer.span "setup" r.setup);
  let gc0 = Memgc.read () in
  let wrap i f = Tracer.with_op (i + 1) (fun () -> Tracer.span "op" f) in
  let traced = timed_passes r ~jobs ~budget ~wrap tally in
  let gc1 = Memgc.read () in
  Tracer.on := false;
  Metrics.disable ();
  Memgc.disable ();
  let snap = Metrics.snapshot () in
  let util = Pool.util () in
  let replay_jobs = if jobs = 1 then 2 else 1 in
  let t0 = now () in
  let replay_ok = r.replay ~jobs:replay_jobs in
  let replay_s = secs t0 in
  tally.attempted <- tally.attempted + 1;
  if not replay_ok then tally.failed <- tally.failed + 1;
  let spans = Tracer.recorded () in
  Tracer.export spans;
  (try
     (try Sys.mkdir (Filename.dirname trace_path) 0o755 with Sys_error _ -> ());
     Trace_export.write trace_path;
     Printf.printf "trace: %s (%d spans; compare two runs with wx prof diff OLD NEW)\n" trace_path
       (Array.length spans)
   with Sys_error e -> Printf.printf "trace: not written (%s)\n" e);
  Trace_export.disable ();
  let passes = float_of_int (List.length traced) in
  let in_setup = Tracer.self_by_name ~keep:(fun s -> s.Tracer.op = 0) spans in
  let in_pass = Tracer.self_by_name ~keep:(fun s -> s.Tracer.op >= 1) spans in
  let self tbl name = Clock.ns_to_s (Option.value ~default:0 (Hashtbl.find_opt tbl name)) in
  let per_pass x = x /. passes in
  let per_pass_i n = per_pass (float_of_int n) in
  let op_ns =
    Array.fold_left
      (fun acc s -> if s.Tracer.name = "op" then acc + (s.Tracer.t1 - s.Tracer.t0) else acc)
      0 spans
  in
  let layer_ns = Hashtbl.fold (fun k v acc -> if k = "op" then acc else acc + v) in_pass 0 in
  let rc = Workloads.radio_counts in
  let kernel_s = self in_pass "sim_csr.run" +. self in_pass "sim_csr.fill" in
  let scored = Work.count Work.sets_scored in
  let candidates = r.candidate_sets () in
  let times =
    List.map
      (fun (m, span, where) ->
        (m, match where with `Setup -> self in_setup span | `Pass -> per_pass (self in_pass span)))
      layer_times
  in
  let values =
    times
    @ [
        ("gen.edges", float_of_int (r.edges ()));
        ("csr.bytes", float_of_int (r.csr_bytes ()));
        ("sim_csr.rounds", per_pass_i rc.rounds);
        ("sim_csr.vertex_scans", per_pass_i (Work.count Work.vertex_scans));
        ("sim_csr.scans_per_s", ratio (float_of_int rc.scans) kernel_s);
        ("sim_csr.idle_rounds", per_pass_i rc.idle_rounds);
        ("sim_csr.useful_frac", iratio rc.gained rc.scans);
        ("pool.runs", per_pass (snap_field snap "counters" "pool.runs" None));
        ( "pool.domains_spawned",
          per_pass (snap_field snap "counters" "pool.domains_spawned" None) );
        ("pool.busy_frac", iratio util.Pool.u_busy_ns util.Pool.u_capacity_ns);
        ( "pool.join_wait_s",
          per_pass (snap_field snap "timers" "pool.join_wait" (Some "sum") /. 1e9) );
        ("pool.idle_tail_s", per_pass (Clock.ns_to_s util.Pool.u_idle_tail_ns));
        ( "pool.speedup",
          let pass0 = List.hd untraced in
          if jobs = 1 then ratio pass0 replay_s else ratio replay_s pass0 );
        ("measure.sets_scored", per_pass_i scored);
        ("measure.gray_steps", per_pass_i (Work.count Work.gray_steps));
        ( "measure.pruned_frac",
          if candidates > 0.0 then 1.0 -. (per_pass_i scored /. candidates) else 0.0 );
        ( "gc.minor_mwords",
          per_pass (float_of_int (gc1.Memgc.minor_words - gc0.Memgc.minor_words) /. 1e6) );
        ( "gc.major_collections",
          per_pass_i (gc1.Memgc.major_collections - gc0.Memgc.major_collections) );
        ("obs.overhead_frac", ratio (mean traced) (mean untraced) -. 1.0);
        ("obs.coverage_frac", iratio layer_ns op_ns);
      ]
  in
  Printf.printf "passes: %d untraced, %d traced; replay of pass 0 at jobs=%d: %s (%.3f s)\n"
    (List.length untraced) (List.length traced) replay_jobs
    (if replay_ok then "identical" else "DIFFERENT")
    replay_s;
  values

(* ---- run mode ---- *)

let run ~(w : Workloads.workload) ~seed ~seconds ~trace =
  Metrics.disable ();
  Memgc.disable ();
  Trace_export.disable ();
  let jobs = w.jobs in
  Pool.set_default_jobs jobs;
  Printf.printf "perfbench %s: %s\n" w.name w.why;
  Printf.printf "provenance: %s\n%!"
    (Json.to_string (provenance ~workload:w.name ~jobs ~seed ~trace));
  let r = w.prepare seed in
  (* Set-up is timed in four blocks of the same size: before the passes,
     once a third and two thirds of the pass time has gone by, and after
     the last pass. The host's slow spells last seconds, so one block
     would read a single spell; [setup_s] is the median of all four. Each
     later block rebuilds an instance equal to the one it replaces. *)
  let setups = ref [] and blocks = ref 0 in
  let setup_block () =
    let reps = if !blocks = 0 then None else Some (List.length !setups / !blocks) in
    setups := timed_setups ?reps r @ !setups;
    incr blocks
  in
  if trace then r.setup () else setup_block ();
  r.reference ();
  Gc.full_major ();
  let tally = { attempted = 0; failed = 0; rounds = 0; heap_mb = 0.0 } in
  let budget = if trace then seconds /. 2.0 else seconds in
  let between t =
    if (not trace) && !blocks < 3 && t >= float_of_int !blocks *. budget /. 3.0 then setup_block ()
  in
  let untraced = timed_passes ~between r ~jobs ~budget ~wrap:(fun _ f -> f ()) tally in
  let ops_untraced = tally.attempted and failed_untraced = tally.failed in
  if not trace then setup_block ();
  let setups = !setups in
  let note ~avg xs =
    Printf.sprintf "%s of %d; median %.6f, min %.6f, max %.6f%s" avg (List.length xs) (median xs)
      (List.fold_left Float.min infinity xs)
      (List.fold_left Float.max neg_infinity xs)
      (match tail xs with Some (p, v) -> Printf.sprintf ", p%d %.6f" p v | None -> "")
  in
  let values, catalog =
    if trace then begin
      let trace_path = Printf.sprintf "perfbench/out/%s.trace.json" w.name in
      (traced_phase r ~jobs ~budget ~untraced ~trace_path tally, per_layer)
    end
    else
      ( [
          (* The run's pass time over its passes, not their median: the
             host's speed can flip between two levels far apart for spells
             of seconds, and the median of a run spanning both lands on
             whichever level held more passes. *)
          ("verdict_s", mean untraced);
          ("setup_s", median setups);
          ("peak_heap_mb", tally.heap_mb);
        ],
        end_to_end )
  in
  List.iter
    (fun (name, unit) ->
      let note =
        match name with
        | "verdict_s" -> note ~avg:"mean" untraced
        | "setup_s" -> note ~avg:"median" setups
        | "peak_heap_mb" -> "major-heap high-water mark after set-up and one pass"
        | _ -> ""
      in
      print_metric (name, unit) (List.assoc name values) note)
    catalog;
  if not trace then begin
    if String.starts_with ~prefix:"radio" w.name then
      print_metric ("broadcast_rounds", "rounds") (iratio tally.rounds ops_untraced)
        "mean rounds per broadcast";
    print_metric ("failed_frac", "ratio") (iratio failed_untraced ops_untraced)
      (Printf.sprintf "ops %d, ops_failed %d" ops_untraced failed_untraced)
  end;
  let correct = tally.failed = 0 in
  print_endline
    (result_line ~correct tally
       (List.map (fun (name, unit) -> (name, unit, List.assoc name values)) catalog));
  if correct then 0 else 1

(* ---- reference regeneration ---- *)

let regen_reference path =
  let results = Workloads.measure_all ~jobs:1 (Workloads.build_families ()) in
  let rows =
    List.map
      (fun (key, r) ->
        match r with
        | Ok a -> (key, a)
        | Error msg ->
            Printf.eprintf "perfbench: %s/%s has no exact answer: %s\n" (fst key) (snd key) msg;
            exit 1)
      results
  in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, a) -> Hashtbl.replace tbl k a) rows;
  if Reference.failures tbl results <> 0 then begin
    prerr_endline "perfbench: computed answers violate Obs. 2.1; reference not written";
    exit 1
  end;
  Reference.save path rows;
  Printf.printf "wrote %d rows to %s\n" (List.length rows) path;
  0

(* ---- self-tests ---- *)

let selftest ~reference_path ~manifest =
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  (* Self time on a hand-built tree: root [0,100] has children A [10,40]
     and B [30,60] (overlapping) and C [90,120] (runs past the root); A
     has child D [15,20]. *)
  let mk name parent t0 t1 = { Tracer.name; op = 1; parent; t0; t1 } in
  let tree =
    [| mk "root" (-1) 0 100; mk "a" 0 10 40; mk "b" 0 30 60; mk "c" 0 90 120; mk "d" 1 15 20 |]
  in
  expect "self time subtracts the union of clipped child intervals"
    (Tracer.self_times tree = [| 40; 25; 30; 30; 5 |]);
  let by_name = Tracer.self_by_name ~keep:(fun s -> s.Tracer.name <> "root") tree in
  expect "self_by_name sums per name and honours keep"
    (Hashtbl.find_opt by_name "a" = Some 25 && not (Hashtbl.mem by_name "root"));
  Tracer.reset ();
  Tracer.on := true;
  Tracer.with_op 7 (fun () -> Tracer.span "outer" (fun () -> Tracer.span "inner" ignore));
  Tracer.on := false;
  let live = Tracer.recorded () in
  expect "live spans record parent and operation id"
    (Array.length live = 2
    && live.(0).Tracer.parent = -1
    && live.(1).Tracer.parent = 0
    && live.(0).Tracer.op = 7
    && live.(1).Tracer.op = 7
    && live.(1).Tracer.t0 >= live.(0).Tracer.t0
    && live.(1).Tracer.t1 <= live.(0).Tracer.t1);
  Tracer.reset ();
  (* ops_failed against a deliberately corrupted copy of the reference. *)
  let text = In_channel.with_open_bin reference_path In_channel.input_all in
  let reference = Reference.of_string text in
  let rows = List.sort compare (Hashtbl.fold (fun k a acc -> (k, a) :: acc) reference []) in
  let as_results = List.map (fun (k, a) -> (k, Ok a)) rows in
  expect "reference covers every family and measure"
    (List.length rows = List.length Wx_constructions.Families.all * List.length Reference.measures);
  expect "the stored answers match themselves" (Reference.failures reference as_results = 0);
  let corrupted = Hashtbl.copy reference in
  (match rows with
  | (k0, a0) :: (k1, a1) :: (k2, _) :: _ ->
      Hashtbl.replace corrupted k0 { a0 with Reference.value = a0.Reference.value +. 0.25 };
      Hashtbl.replace corrupted k1
        { a1 with Reference.witness = List.rev (99 :: a1.Reference.witness) };
      Hashtbl.remove corrupted k2
  | _ -> ());
  expect "three corrupted rows give ops_failed = 3" (Reference.failures corrupted as_results = 3);
  let with_too_large =
    List.mapi (fun i (k, r) -> if i = 3 then (k, Error "Too_large (test)") else (k, r)) as_results
  in
  expect "a Too_large answer counts in ops_failed"
    (Reference.failures corrupted with_too_large = 4);
  let a v = { Reference.value = v; witness = [ 0 ] } in
  let bad_order =
    [ (("x", "beta"), Ok (a 1.0)); (("x", "beta_u"), Ok (a 2.0)); (("x", "beta_w"), Ok (a 1.5)) ]
  in
  let tbl = Hashtbl.create 3 in
  List.iter (fun (k, r) -> match r with Ok v -> Hashtbl.replace tbl k v | Error _ -> ()) bad_order;
  expect "an Obs. 2.1 violation counts in ops_failed" (Reference.failures tbl bad_order = 1);
  let reread = Reference.of_string (Reference.rows_to_string rows) in
  expect "the reference round-trips bit-exactly"
    (Reference.failures reread as_results = 0 && Hashtbl.length reread = List.length rows);
  (* Names. *)
  let workloads = Workloads.all ~reference_path in
  let names =
    List.map (fun w -> w.Workloads.name) workloads
    @ List.map fst end_to_end
    @ List.map fst per_layer
  in
  List.iter (fun n -> if not (valid_name n) then Printf.printf "     bad name %S\n" n) names;
  expect "metric and workload names match [A-Za-z0-9_.-]+" (List.for_all valid_name names);
  expect "names are unique" (List.length (List.sort_uniq compare names) = List.length names);
  (match manifest with
  | None -> ()
  | Some path ->
      let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
      let list key f =
        List.sort compare
          (List.filter_map f
             (Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list_opt)))
      in
      let str k o = Option.bind (Json.member k o) Json.to_string_opt in
      let pair a b o = match (str a o, str b o) with Some x, Some y -> Some (x, y) | _ -> None in
      let named = pair "name" "why" and with_unit = pair "name" "unit" in
      expect "BENCHMARK.json lists exactly these workloads, with the same reasons"
        (list "workloads" named
        = List.sort compare (List.map (fun w -> (w.Workloads.name, w.Workloads.why)) workloads));
      expect "BENCHMARK.json lists exactly the end-to-end metrics"
        (list "end_to_end" with_unit = List.sort compare end_to_end);
      expect "BENCHMARK.json lists exactly the per-layer metrics"
        (list "per_layer" with_unit = List.sort compare per_layer));
  Printf.printf "%d failure(s)\n" !failures;
  if !failures = 0 then 0 else 1

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let reference_path = ref "perfbench/expansion_reference.tsv" in
  let manifest = ref "" and mode = ref `Run in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time of one run (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the layer breakdown (1)");
      ("--reference", Arg.Set_string reference_path, "FILE exact-expansion answer key");
      ("--manifest", Arg.Set_string manifest, "FILE BENCHMARK.json to check (--selftest)");
      ("--selftest", Arg.Unit (fun () -> mode := `Selftest), " run the benchmark's own checks");
      ("--regen-reference", Arg.Unit (fun () -> mode := `Regen), " rewrite the answer key");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let code =
    match !mode with
    | `Selftest ->
        let manifest = if !manifest = "" then None else Some !manifest in
        selftest ~reference_path:!reference_path ~manifest
    | `Regen -> regen_reference !reference_path
    | `Run -> (
        let workloads = Workloads.all ~reference_path:!reference_path in
        match List.find_opt (fun w -> w.Workloads.name = !workload) workloads with
        | None ->
            Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
              (String.concat ", " (List.map (fun w -> w.Workloads.name) workloads));
            2
        | Some w -> run ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
  in
  exit code
