(* Benchmark-side span recorder for the traced run.

   Each span wraps one call into a layer's public functions and records
   its name, start, end and parent; the spans of one operation share an
   operation id. Spans stay in growable in-memory arrays while the run
   is hot and are only rendered (self times, catapult slices) after it.
   While the recorder is off, [span] calls its thunk directly and reads
   no clock. *)

module Clock = Wx_obs.Clock

type span = { name : string; op : int; parent : int; t0 : int; t1 : int }

let on = ref false
let spans : span array ref = ref [||]
let len = ref 0
let stack : int list ref = ref [] (* indices of the open spans, innermost first *)
let current_op = ref 0

let reset () =
  spans := [||];
  len := 0;
  stack := [];
  current_op := 0

let push s =
  if !len = Array.length !spans then begin
    let grown = Array.make (max 1024 (2 * !len)) s in
    Array.blit !spans 0 grown 0 !len;
    spans := grown
  end;
  !spans.(!len) <- s;
  incr len;
  !len - 1

(* Record [f ()] as span [name] under the innermost open span. The slot is
   reserved at entry so a parent's index precedes its children's. *)
let span name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let t0 = Clock.now_ns () in
    let i = push { name; op = !current_op; parent; t0; t1 = t0 } in
    stack := i :: !stack;
    let close () =
      stack := List.tl !stack;
      !spans.(i) <- { (!spans.(i)) with t1 = Clock.now_ns () }
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* Run [f] as operation [op]: every span opened inside carries that id. *)
let with_op op f =
  let saved = !current_op in
  current_op := op;
  Fun.protect ~finally:(fun () -> current_op := saved) f

let recorded () = Array.sub !spans 0 !len

(* Self time of every span: its duration minus the part of its interval
   that its direct children cover (children are clipped to the parent and
   overlapping children are merged, so no instant is subtracted twice). *)
let self_times (a : span array) =
  let n = Array.length a in
  let kids = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = a.(i).parent in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  Array.init n (fun i ->
      let s = a.(i) in
      let ivs =
        List.filter_map
          (fun k ->
            let lo = max s.t0 a.(k).t0 and hi = min s.t1 a.(k).t1 in
            if hi > lo then Some (lo, hi) else None)
          kids.(i)
      in
      let ivs = List.sort compare ivs in
      let covered, last =
        List.fold_left
          (fun (acc, (clo, chi)) (lo, hi) ->
            if lo > chi then (acc + (chi - clo), (lo, hi)) else (acc, (clo, max chi hi)))
          (0, (s.t0, s.t0))
          ivs
      in
      let covered = covered + (snd last - fst last) in
      s.t1 - s.t0 - covered)

(* Total self time per span name over the spans [keep] selects. *)
let self_by_name ?(keep = fun _ -> true) a =
  let self = self_times a in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      if keep s then
        Hashtbl.replace tbl s.name
          (self.(i) + Option.value ~default:0 (Hashtbl.find_opt tbl s.name)))
    a;
  tbl

(* Push the recorded spans onto the catapult trace (main track), tagged
   with their operation id and parent name, so [wx prof] and [wx prof
   diff] read the benchmark's layer breakdown like any other trace. *)
let export a =
  Array.iter
    (fun s ->
      let parent = if s.parent >= 0 then a.(s.parent).name else "" in
      Wx_obs.Trace_export.slice ~tid:0 ~name:s.name ~t0_ns:s.t0 ~dur_ns:(s.t1 - s.t0)
        ~args:[ ("op", Wx_obs.Json.Int s.op); ("parent", Wx_obs.Json.String parent) ]
        ())
    a
