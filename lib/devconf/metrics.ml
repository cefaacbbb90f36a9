(* Aggregation of per-line classifications into the paper's Table V rows:
   distinct generic/specific commands and state variables per script. *)

module S = Set.Make (String)

type counts = {
  generic_cmds : string list;
  specific_cmds : string list;
  generic_vars : string list;
  specific_vars : string list;
}

let n_generic_cmds c = List.length c.generic_cmds
let n_specific_cmds c = List.length c.specific_cmds
let n_generic_vars c = List.length c.generic_vars
let n_specific_vars c = List.length c.specific_vars

(* Builds counts from raw (form/class, vars) data. A value counted as
   specific anywhere is not also counted as generic (e.g. a tunnel interface
   name later used as a route target). *)
let make ~cmds ~vars =
  let gc, sc =
    List.fold_left
      (fun (g, s) (form, k) ->
        match k with Classify.Generic -> (S.add form g, s) | Classify.Specific -> (g, S.add form s))
      (S.empty, S.empty) cmds
  in
  let sv =
    List.fold_left
      (fun s (v, k) -> match k with Classify.Specific -> S.add v s | Classify.Generic -> s)
      S.empty vars
  in
  let gv =
    List.fold_left
      (fun g (v, k) ->
        match k with
        | Classify.Generic -> if S.mem v sv then g else S.add v g
        | Classify.Specific -> g)
      S.empty vars
  in
  {
    generic_cmds = S.elements gc;
    specific_cmds = S.elements sc;
    generic_vars = S.elements gv;
    specific_vars = S.elements sv;
  }

let of_analyses analyses =
  let cmds = List.map (fun a -> (a.Classify.cmd_form, a.Classify.cmd_class)) analyses in
  let vars = List.concat_map (fun a -> a.Classify.vars) analyses in
  make ~cmds ~vars

let analyze_script ~dialect script =
  String.split_on_char '\n' script
  |> List.filter_map (Classify.analyze_line ~dialect)
  |> of_analyses

let analyze_linux = analyze_script ~dialect:`Linux
let analyze_catos = analyze_script ~dialect:`Catos
