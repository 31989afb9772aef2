(* The exact-expansion answer key: value and lex-smallest witness of β, βu
   and βw for every Families.all member, as a jobs=1 run computed them.
   Stored as a tab-separated file beside the benchmark; values are hex
   floats, so a read-back is bit-exact. *)

let measures = [ "beta"; "beta_u"; "beta_w" ]

type answer = { value : float; witness : int list }

(* One measure call's outcome: an answer, or the reason there is none
   (e.g. a [Too_large] work guard). *)
type result = (answer, string) Stdlib.result

type t = (string * string, answer) Hashtbl.t

let header =
  [
    "# perfbench exact-expansion reference: Families.all at size hint 18, instance seed \
     20180218, alpha 0.5, computed at jobs=1.";
    "# Regenerate with: bash perfbench/run.sh --regen-reference";
    "# family\tmeasure\tvalue (hex float)\tvalue\twitness";
  ]

let witness_to_string w = String.concat "," (List.map string_of_int w)

let witness_of_string s =
  if s = "" then [] else List.map int_of_string (String.split_on_char ',' s)

let rows_to_string rows =
  String.concat "\n"
    (header
    @ List.map
        (fun ((family, measure), a) ->
          Printf.sprintf "%s\t%s\t%h\t%.6f\t%s" family measure a.value a.value
            (witness_to_string a.witness))
        rows)
  ^ "\n"

let of_string text : t =
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun i line ->
      if line <> "" && line.[0] <> '#' then
        match String.split_on_char '\t' line with
        | [ family; measure; hex; _; witness ] ->
            Hashtbl.replace tbl (family, measure)
              { value = float_of_string hex; witness = witness_of_string witness }
        | _ -> failwith (Printf.sprintf "reference line %d: expected 5 fields" (i + 1)))
    (String.split_on_char '\n' text);
  tbl

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)

let save path rows =
  Out_channel.with_open_bin path (fun oc -> output_string oc (rows_to_string rows))

let same a b =
  Int64.equal (Int64.bits_of_float a.value) (Int64.bits_of_float b.value) && a.witness = b.witness

(* Failed operations in one pass: a measure call fails when it raised, when
   the reference has no row for it, or when its value or witness differs
   from the row. Obs. 2.1 (βu ≤ βw ≤ β) is checked per family as well; a
   violation with otherwise matching answers fails that family's βw call. *)
let failures (reference : t) (results : ((string * string) * result) list) =
  let bad = Hashtbl.create 64 in
  List.iter
    (fun (key, r) ->
      match (r, Hashtbl.find_opt reference key) with
      | Ok a, Some expected when same a expected -> ()
      | _ -> Hashtbl.replace bad key ())
    results;
  let value family m =
    match List.assoc_opt (family, m) results with Some (Ok a) -> Some a.value | _ -> None
  in
  let families = List.sort_uniq compare (List.map (fun ((f, _), _) -> f) results) in
  List.iter
    (fun f ->
      match (value f "beta", value f "beta_u", value f "beta_w") with
      | Some b, Some bu, Some bw when not (bu <= bw +. 1e-9 && bw <= b +. 1e-9) ->
          Hashtbl.replace bad (f, "beta_w") ()
      | _ -> ())
    families;
  Hashtbl.length bad
