(* The protocol-independent configuration primitives the NM invokes at
   devices (CONMan §II-D, Table I): create/delete of pipes, switch rules and
   filter rules. A list of primitives is a "CONMan script" in the sense of
   figures 7(b), 8(b) and 9(b). *)

(* Traffic selectors appearing in switch rules. They are symbolic — the one
   place protocol-specific knowledge unavoidably leaks into CONMan scripts
   (the paper's two "specific state variables" per script, e.g. dst:C1-S2
   and S2-gateway). *)
type selector =
  | Any
  | Dst_domain of string (* e.g. "C1-S2": traffic towards that site *)
  | To_gateway of string (* e.g. "S2-gateway": hand off to the site gateway *)
  | Tagged (* the customer traffic class of the VLAN scenario *)

let selector_to_string = function
  | Any -> "Any"
  | Dst_domain d -> "dst:" ^ d
  | To_gateway g -> g
  | Tagged -> "Tagged"

let selector_of_string = function
  | "Any" -> Any
  | "Tagged" -> Tagged
  | s ->
      if String.length s > 4 && String.sub s 0 4 = "dst:" then
        Dst_domain (String.sub s 4 (String.length s - 4))
      else To_gateway s

type switch_rule =
  | Bidi of string * string (* create (switch, m, P1, P2) *)
  | Directed of { from_pipe : string; to_pipe : string; sel : selector }
    (* create (switch, m, [P0, dst:C1-S2 => P1]) *)

type pipe_spec = {
  pipe_id : string; (* NM-assigned identifier, unique along a path *)
  top : Ids.t; (* the module above *)
  bottom : Ids.t; (* the module below *)
  peer_top : Ids.t option; (* peer of [top] for this pipe *)
  peer_bottom : Ids.t option;
  tradeoffs : string list; (* requested performance trade-offs *)
  (* dependencies of the pipe resolved by the NM to the (control) modules
     that satisfy them, e.g. [("esp-keys", <IKE,A,m>)] (§II-F) *)
  deps : (string * Ids.t) list;
}

type t =
  | Create_pipe of pipe_spec
  | Create_switch of { owner : Ids.t; rule : switch_rule }
  | Create_filter of { owner : Ids.t; drop_src : Ids.t; drop_dst : Ids.t }
  (* performance enforcement state (§II-D.1(c): "queuing structures or
     service classes"); the rate is a generic quantity, not a protocol
     parameter *)
  | Create_perf of { owner : Ids.t; pipe_id : string; rate_kbps : int }
  | Delete_pipe of { owner : Ids.t; pipe_id : string }
  | Delete_switch of { owner : Ids.t; rule : switch_rule }
  | Delete_filter of { owner : Ids.t; drop_src : Ids.t; drop_dst : Ids.t }
  | Delete_perf of { owner : Ids.t; pipe_id : string }

(* --- rendering (the style of figures 7(b)/8(b)) --------------------------- *)

(* Built by concatenation: modules render rules into every showActual
   report, and since showPerf replies carry the state's tag, into every
   telemetry scrape too. *)
let rule_to_string = function
  | Bidi (p1, p2) -> p1 ^ ", " ^ p2
  | Directed { from_pipe; to_pipe; sel = Any } -> "[" ^ from_pipe ^ " => " ^ to_pipe ^ "]"
  | Directed { from_pipe; to_pipe; sel = To_gateway g } ->
      "[" ^ from_pipe ^ " => " ^ to_pipe ^ ", " ^ g ^ "]"
  | Directed { from_pipe; to_pipe; sel } ->
      "[" ^ from_pipe ^ ", " ^ selector_to_string sel ^ " => " ^ to_pipe ^ "]"

let pp_rule ppf r = Fmt.string ppf (rule_to_string r)

let pp_opt_mref ppf = function None -> Fmt.string ppf "None" | Some m -> Ids.pp ppf m

let pp ppf = function
  | Create_pipe p ->
      Fmt.pf ppf "%s = create (pipe, %a, %a, %a, %a%s%s)" p.pipe_id Ids.pp p.top Ids.pp p.bottom
        pp_opt_mref p.peer_top pp_opt_mref p.peer_bottom
        (match p.tradeoffs with
        | [] -> ", None"
        | ts -> String.concat "" (List.map (fun t -> ", trade-off: " ^ t) ts))
        (String.concat ""
           (List.map (fun (d, m) -> Printf.sprintf ", dep: %s=%s" d (Ids.to_string m)) p.deps))
  | Create_switch { owner; rule } -> Fmt.pf ppf "create (switch, %a, %a)" Ids.pp owner pp_rule rule
  | Create_filter { owner; drop_src; drop_dst } ->
      Fmt.pf ppf "create (filter, %a, from %a to %a)" Ids.pp owner Ids.pp drop_src Ids.pp drop_dst
  | Create_perf { owner; pipe_id; rate_kbps } ->
      Fmt.pf ppf "create (perf, %a, %s, rate: %d kbps)" Ids.pp owner pipe_id rate_kbps
  | Delete_perf { owner; pipe_id } -> Fmt.pf ppf "delete (perf, %a, %s)" Ids.pp owner pipe_id
  | Delete_pipe { owner; pipe_id } -> Fmt.pf ppf "delete (pipe, %a, %s)" Ids.pp owner pipe_id
  | Delete_switch { owner; rule } -> Fmt.pf ppf "delete (switch, %a, %a)" Ids.pp owner pp_rule rule
  | Delete_filter { owner; drop_src; drop_dst } ->
      Fmt.pf ppf "delete (filter, %a, from %a to %a)" Ids.pp owner Ids.pp drop_src Ids.pp drop_dst

(* The device a primitive must be delivered to. *)
let target = function
  | Create_pipe p -> p.top.Ids.dev
  | Create_switch { owner; _ } | Delete_switch { owner; _ } -> owner.Ids.dev
  | Create_filter { owner; _ } | Delete_filter { owner; _ } -> owner.Ids.dev
  | Create_perf { owner; _ } | Delete_perf { owner; _ } -> owner.Ids.dev
  | Delete_pipe { owner; _ } -> owner.Ids.dev

let is_deletion = function
  | Delete_pipe _ | Delete_switch _ | Delete_filter _ | Delete_perf _ -> true
  | Create_pipe _ | Create_switch _ | Create_filter _ | Create_perf _ -> false

(* --- sexp conversions ------------------------------------------------------ *)

let rule_to_sexp = function
  | Bidi (a, b) -> Sexp.List [ Sexp.atom "bidi"; Sexp.atom a; Sexp.atom b ]
  | Directed { from_pipe; to_pipe; sel } ->
      Sexp.List
        [ Sexp.atom "dir"; Sexp.atom from_pipe; Sexp.atom to_pipe; Sexp.atom (selector_to_string sel) ]

let rule_of_sexp = function
  | Sexp.List [ Sexp.Atom "bidi"; a; b ] -> Bidi (Sexp.to_atom a, Sexp.to_atom b)
  | Sexp.List [ Sexp.Atom "dir"; f; t; s ] ->
      Directed
        { from_pipe = Sexp.to_atom f; to_pipe = Sexp.to_atom t; sel = selector_of_string (Sexp.to_atom s) }
  | _ -> raise (Sexp.Parse_error "switch_rule")

let pipe_to_sexp p =
  Sexp.List
    [
      Sexp.atom p.pipe_id;
      Sexp.of_mref p.top;
      Sexp.of_mref p.bottom;
      Sexp.of_option Sexp.of_mref p.peer_top;
      Sexp.of_option Sexp.of_mref p.peer_bottom;
      Sexp.List (List.map Sexp.atom p.tradeoffs);
      Sexp.List (List.map (fun (d, m) -> Sexp.List [ Sexp.atom d; Sexp.of_mref m ]) p.deps);
    ]

let pipe_of_sexp = function
  | Sexp.List [ id; top; bottom; pt; pb; Sexp.List tr; Sexp.List deps ] ->
      {
        pipe_id = Sexp.to_atom id;
        top = Sexp.to_mref top;
        bottom = Sexp.to_mref bottom;
        peer_top = Sexp.to_option Sexp.to_mref pt;
        peer_bottom = Sexp.to_option Sexp.to_mref pb;
        tradeoffs = List.map Sexp.to_atom tr;
        deps =
          List.map
            (function
              | Sexp.List [ d; m ] -> (Sexp.to_atom d, Sexp.to_mref m)
              | _ -> raise (Sexp.Parse_error "pipe dep"))
            deps;
      }
  | _ -> raise (Sexp.Parse_error "pipe_spec")

let to_sexp = function
  | Create_pipe p -> Sexp.List [ Sexp.atom "create-pipe"; pipe_to_sexp p ]
  | Create_switch { owner; rule } ->
      Sexp.List [ Sexp.atom "create-switch"; Sexp.of_mref owner; rule_to_sexp rule ]
  | Create_filter { owner; drop_src; drop_dst } ->
      Sexp.List
        [ Sexp.atom "create-filter"; Sexp.of_mref owner; Sexp.of_mref drop_src; Sexp.of_mref drop_dst ]
  | Create_perf { owner; pipe_id; rate_kbps } ->
      Sexp.List
        [ Sexp.atom "create-perf"; Sexp.of_mref owner; Sexp.atom pipe_id; Sexp.of_int rate_kbps ]
  | Delete_perf { owner; pipe_id } ->
      Sexp.List [ Sexp.atom "delete-perf"; Sexp.of_mref owner; Sexp.atom pipe_id ]
  | Delete_pipe { owner; pipe_id } ->
      Sexp.List [ Sexp.atom "delete-pipe"; Sexp.of_mref owner; Sexp.atom pipe_id ]
  | Delete_switch { owner; rule } ->
      Sexp.List [ Sexp.atom "delete-switch"; Sexp.of_mref owner; rule_to_sexp rule ]
  | Delete_filter { owner; drop_src; drop_dst } ->
      Sexp.List
        [ Sexp.atom "delete-filter"; Sexp.of_mref owner; Sexp.of_mref drop_src; Sexp.of_mref drop_dst ]

let of_sexp = function
  | Sexp.List [ Sexp.Atom "create-pipe"; p ] -> Create_pipe (pipe_of_sexp p)
  | Sexp.List [ Sexp.Atom "create-switch"; o; r ] ->
      Create_switch { owner = Sexp.to_mref o; rule = rule_of_sexp r }
  | Sexp.List [ Sexp.Atom "create-filter"; o; s; d ] ->
      Create_filter { owner = Sexp.to_mref o; drop_src = Sexp.to_mref s; drop_dst = Sexp.to_mref d }
  | Sexp.List [ Sexp.Atom "create-perf"; o; p; r ] ->
      Create_perf { owner = Sexp.to_mref o; pipe_id = Sexp.to_atom p; rate_kbps = Sexp.to_int r }
  | Sexp.List [ Sexp.Atom "delete-perf"; o; p ] ->
      Delete_perf { owner = Sexp.to_mref o; pipe_id = Sexp.to_atom p }
  | Sexp.List [ Sexp.Atom "delete-pipe"; o; p ] ->
      Delete_pipe { owner = Sexp.to_mref o; pipe_id = Sexp.to_atom p }
  | Sexp.List [ Sexp.Atom "delete-switch"; o; r ] ->
      Delete_switch { owner = Sexp.to_mref o; rule = rule_of_sexp r }
  | Sexp.List [ Sexp.Atom "delete-filter"; o; s; d ] ->
      Delete_filter { owner = Sexp.to_mref o; drop_src = Sexp.to_mref s; drop_dst = Sexp.to_mref d }
  | _ -> raise (Sexp.Parse_error "primitive")

let equal a b = to_sexp a = to_sexp b

(* --- Table V tokens --------------------------------------------------------- *)

(* Command-form and state-variable extraction for the CONMan side of Table V.
   Commands are always generic (that is the point of the architecture);
   state variables are module names/ids, device ids and pipe ids (generic),
   while traffic selectors that denote customer address space are specific. *)
let table5_tokens prim =
  let mref_vars (m : Ids.t) =
    [
      (m.Ids.name, Devconf.Classify.Generic);
      (m.Ids.mid, Devconf.Classify.Generic);
      (m.Ids.dev, Devconf.Classify.Generic);
    ]
  in
  let opt_mref_vars = function Some m -> mref_vars m | None -> [] in
  let sel_vars = function
    | Any -> []
    | Tagged -> [ ("Tagged", Devconf.Classify.Specific) ]
    | Dst_domain d -> [ ("dst:" ^ d, Devconf.Classify.Specific) ]
    | To_gateway g -> [ (g, Devconf.Classify.Specific) ]
  in
  let rule_vars = function
    | Bidi (a, b) -> [ (a, Devconf.Classify.Generic); (b, Devconf.Classify.Generic) ]
    | Directed { from_pipe; to_pipe; sel } ->
        [ (from_pipe, Devconf.Classify.Generic); (to_pipe, Devconf.Classify.Generic) ] @ sel_vars sel
  in
  match prim with
  | Create_pipe p ->
      ( ("create (pipe)", Devconf.Classify.Generic),
        ((p.pipe_id, Devconf.Classify.Generic) :: mref_vars p.top)
        @ mref_vars p.bottom @ opt_mref_vars p.peer_top @ opt_mref_vars p.peer_bottom
        @ List.concat_map (fun (d, m) -> (d, Devconf.Classify.Generic) :: mref_vars m) p.deps )
  | Create_switch { owner; rule } ->
      (("create (switch)", Devconf.Classify.Generic), mref_vars owner @ rule_vars rule)
  | Create_filter { owner; drop_src; drop_dst } ->
      ( ("create (filter)", Devconf.Classify.Generic),
        mref_vars owner @ mref_vars drop_src @ mref_vars drop_dst )
  | Create_perf { owner; pipe_id; rate_kbps } ->
      ( ("create (perf)", Devconf.Classify.Generic),
        (pipe_id, Devconf.Classify.Generic)
        :: (string_of_int rate_kbps, Devconf.Classify.Generic)
        :: mref_vars owner )
  | Delete_perf { owner; pipe_id } ->
      (("delete (perf)", Devconf.Classify.Generic),
       (pipe_id, Devconf.Classify.Generic) :: mref_vars owner)
  | Delete_pipe { owner; pipe_id } ->
      (("delete (pipe)", Devconf.Classify.Generic),
       (pipe_id, Devconf.Classify.Generic) :: mref_vars owner)
  | Delete_switch { owner; rule } ->
      (("delete (switch)", Devconf.Classify.Generic), mref_vars owner @ rule_vars rule)
  | Delete_filter { owner; drop_src; drop_dst } ->
      ( ("delete (filter)", Devconf.Classify.Generic),
        mref_vars owner @ mref_vars drop_src @ mref_vars drop_dst )

let table5_counts prims =
  let tokens = List.map table5_tokens prims in
  Devconf.Metrics.make ~cmds:(List.map fst tokens) ~vars:(List.concat_map snd tokens)
