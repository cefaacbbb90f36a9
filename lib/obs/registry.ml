(* Lazy counter sources + bounded histogram samples; see registry.mli. *)

let normalize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' | '_' | '.' -> c
      | 'A' .. 'Z' -> Char.lowercase_ascii c
      | _ -> '_')
    name

type hist = { mutable samples : int list; mutable n : int }

type t = {
  mutable sources : (string * (unit -> (string * int) list)) list; (* registration order *)
  hists : (string, hist) Hashtbl.t;
}

let create () = { sources = []; hists = Hashtbl.create 8 }

let register t subsystem source =
  let subsystem = normalize subsystem in
  if List.mem_assoc subsystem t.sources then
    invalid_arg (Printf.sprintf "Obs.Registry.register: duplicate subsystem %S" subsystem);
  t.sources <- t.sources @ [ (subsystem, source) ]

let snapshot t =
  List.concat_map
    (fun (subsystem, source) ->
      List.map (fun (name, v) -> (subsystem ^ "." ^ normalize name, v)) (source ()))
    t.sources
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let delta ~base after =
  List.map
    (fun (key, v_after) ->
      let v_before = match List.assoc_opt key base with Some v -> v | None -> 0 in
      (key, max 0 (v_after - v_before)))
    after

(* --- histograms ----------------------------------------------------------- *)

(* Latencies are ticks — tiny ints — and soaks record thousands of phases
   at most, so an exact bounded sample list beats bucketing. *)
let max_samples = 100_000

let observe t key v =
  let key = normalize key in
  let h =
    match Hashtbl.find_opt t.hists key with
    | Some h -> h
    | None ->
        let h = { samples = []; n = 0 } in
        Hashtbl.add t.hists key h;
        h
  in
  if h.n < max_samples then begin
    h.samples <- v :: h.samples;
    h.n <- h.n + 1
  end

type stats = {
  count : int;
  min : int;
  max : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
}

let stats_of h =
  if h.n = 0 then None
  else
    let sorted = List.sort compare h.samples in
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    let pct p = arr.(Stdlib.min (n - 1) (int_of_float (float_of_int n *. p))) in
    Some
      {
        count = n;
        min = arr.(0);
        max = arr.(n - 1);
        mean = float_of_int (List.fold_left ( + ) 0 h.samples) /. float_of_int n;
        p50 = pct 0.50;
        p90 = pct 0.90;
        p99 = pct 0.99;
      }

let histogram t key = Option.bind (Hashtbl.find_opt t.hists (normalize key)) stats_of

let samples t key =
  match Hashtbl.find_opt t.hists (normalize key) with
  | Some h -> List.rev h.samples
  | None -> []

let histograms t =
  Hashtbl.fold (fun k h acc -> match stats_of h with Some s -> (k, s) :: acc | None -> acc)
    t.hists []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"counters\": {\n";
  let counters = snapshot t in
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": %d%s\n" k v (if i = List.length counters - 1 then "" else ",")))
    counters;
  Buffer.add_string b "  },\n  \"histograms\": {\n";
  let hs = histograms t in
  List.iteri
    (fun i (k, s) ->
      Buffer.add_string b
        (Printf.sprintf
           "    \"%s\": { \"count\": %d, \"min\": %d, \"max\": %d, \"mean\": %.2f, \"p50\": %d, \
            \"p90\": %d, \"p99\": %d }%s\n"
           k s.count s.min s.max s.mean s.p50 s.p90 s.p99
           (if i = List.length hs - 1 then "" else ",")))
    hs;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b
