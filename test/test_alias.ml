(* The NM is protocol-blind (§II: it configures protocols it does not
   understand), checked by renaming: an NM that sees every protocol name
   replaced by an opaque alias must plan, configure and repair exactly as
   the plain NM does.

   Each case builds its deployment twice, from the same device and NM
   counters, so the two worlds are identical. In each, a fresh NM takes
   over the NM station through a channel endpoint that renames: the
   identity for the plain NM, a bijection onto opaque names of the same
   lengths for the aliased one. The endpoint maps every protocol-name atom
   of each Wire payload the NM receives and maps it back in each payload
   the NM sends, so agents and modules keep their own names. A state tag
   digests module names, so the endpoint also translates the tags of the
   states it has carried. The operator's side (the goal's module ids, the
   path selectors, the domain knowledge) is aliased here. The runs are
   lossless: below the endpoint, [Mgmt.Reliable.cancel] matches payload
   bytes in the agents' names.

   Both runs note what they see (paths, plans, scripts and completions in
   the agents' names, the NM's message counts, the channel's frames and
   bytes, the Monitor's log, pings), and the notes must be equal. Every
   goal must ping. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool

let protocols = [ "ETH"; "IP"; "GRE"; "MPLS"; "VLAN"; "ESP"; "IKE"; "UDP" ]
let aliases = [ "Qe1"; "Q2"; "Qg3"; "Qm4x"; "Qv5x"; "Qs6"; "Qk7"; "Qu8" ]

(* How the NM's names relate to the agents'. *)
type names = { to_nm : string -> string; to_agents : string -> string }

let plain = { to_nm = Fun.id; to_agents = Fun.id }

let aliased =
  let via pairs s = Option.value ~default:s (List.assoc_opt s pairs) in
  { to_nm = via (List.combine protocols aliases); to_agents = via (List.combine aliases protocols) }

let rec rename f = function
  | Sexp.Atom a -> Sexp.Atom (f a)
  | Sexp.List l -> Sexp.List (List.map (rename f) l)

let rename_id f (m : Ids.t) = { m with Ids.name = f m.Ids.name }

let rec payload = function Wire.Fenced { msg; _ } | Wire.Traced { msg; _ } -> payload msg | m -> m

let rec retag f = function
  | Wire.Fenced r -> Wire.Fenced { r with msg = retag f r.msg }
  | Wire.Traced r -> Wire.Traced { r with msg = retag f r.msg }
  | Wire.Show_perf_resp r -> Wire.Show_perf_resp { r with tag = f r.tag }
  | Wire.Show_actual_unless r -> Wire.Show_actual_unless { r with tag = f r.tag }
  | m -> m

(* The NM's channel endpoint. [seen] maps an agent's tag to the NM's for
   every state carried in full, [real] the other way. *)
let endpoint names chan =
  let seen = Hashtbl.create 16 and real = Hashtbl.create 16 in
  let translate tags tag = Option.value ~default:tag (Hashtbl.find_opt tags tag) in
  let convert f b =
    Wire.decode (Bytes.of_string (Sexp.to_string (rename f (Sexp.of_string (Bytes.to_string b)))))
  in
  let send ~cls ~src ~dst b =
    Mgmt.Channel.send chan ~cls ~src ~dst
      (Wire.encode (retag (translate real) (convert names.to_agents b)))
  in
  let subscribe id h =
    Mgmt.Channel.subscribe chan ~device_id:id (fun ~src b ->
        let msg = convert names.to_nm b in
        (match payload msg with
        | Wire.Show_actual_resp { state; _ } ->
            let mine = Wire.state_tag state
            and theirs =
              Wire.state_tag (List.map (fun (m, kvs) -> (rename_id names.to_agents m, kvs)) state)
            in
            Hashtbl.replace seen theirs mine;
            Hashtbl.replace real mine theirs
        | _ -> ());
        h ~src (Wire.encode (retag (translate seen) msg)))
  in
  Mgmt.Channel.make ~send ~subscribe ~stats:(Mgmt.Channel.stats chan)

(* Builds a world from restarted device and NM counters. *)
let fresh build =
  Netsim.Device.next_index := 0;
  Nm.set_incarnations 0;
  build ()

(* A fresh NM at the station, behind [endpoint names]: it learns the links
   the deployment's own NM learnt from the Hellos, harvests every
   potential itself, and is told the same domain knowledge under its own
   names. *)
let adopt names ~chan ~transport ~net (first : Nm.t) =
  let nm =
    Nm.create ~transport ~chan:(endpoint names chan) ~net ~my_id:Scenarios.nm_station_id ()
  in
  let known = Nm.topology first and topo = Nm.topology nm in
  List.iter
    (fun (d : Topology.device_info) ->
      Topology.record_hello topo ~src:d.Topology.di_id d.Topology.di_links)
    known.Topology.devices;
  Nm.harvest_potentials nm
    (List.map (fun (d : Topology.device_info) -> d.Topology.di_id) known.Topology.devices);
  Topology.set_domains topo
    ~module_domains:
      (List.map (fun (m, d) -> (rename_id names.to_nm m, d)) known.Topology.module_domains)
    ~domain_prefixes:known.Topology.domain_prefixes;
  (* an NM whose endpoint renames holds no protocol name at all *)
  if List.exists (fun p -> names.to_nm p <> p) protocols then
    check tbool "the NM sees no protocol name" true
      (List.for_all
         (fun (d : Topology.device_info) ->
           List.for_all
             (fun ((m : Ids.t), (a : Abstraction.t)) ->
               not (List.mem m.Ids.name protocols || List.mem a.Abstraction.name protocols))
             d.Topology.di_modules)
         topo.Topology.devices);
  nm

(* --- what a run notes ---------------------------------------------------------------- *)

type notes = { mutable items : (string * string) list }

let note notes label value = notes.items <- (label, value) :: notes.items

let ping notes label ok =
  note notes label (string_of_bool ok);
  check tbool label true ok

(* A deployment with a fresh NM behind [endpoint names]. *)
type world = {
  nm : Nm.t;
  chan : Mgmt.Channel.t;
  net : Netsim.Net.t;
  reachable : unit -> bool;
}

let world names ~chan ~transport ~net ~reachable first =
  { nm = adopt names ~chan ~transport ~net first; chan; net; reachable }

let counts notes label w =
  let st = Mgmt.Channel.stats w.chan in
  note notes label
    (Printf.sprintf "nm %d/%d, channel %d frames %d bytes, at %Ld ns" (Nm.stats_sent w.nm)
       (Nm.stats_received w.nm) st.Mgmt.Channel.frames_sent st.Mgmt.Channel.bytes_sent
       (Netsim.Event_queue.now (Netsim.Net.eq w.net)))

let id names m = Ids.to_string (rename_id names.to_agents m)

let script notes names label (s : Script_gen.script) =
  note notes label
    (String.concat "\n"
       (List.map
          (fun p -> Sexp.to_string (rename names.to_agents (Primitive.to_sexp p)))
          s.Script_gen.prims
       @ [
           "devices " ^ String.concat "," (List.map fst s.Script_gen.per_device);
           "reporter " ^ Option.fold ~none:"none" ~some:(id names) s.Script_gen.reporter;
         ]))

let completions notes names nm =
  note notes "completions"
    (String.concat "; " (List.map (fun (m, what) -> id names m ^ " " ^ what) (Nm.completions nm)))

let paths notes (paths : Path_finder.path list) =
  note notes "paths"
    (Printf.sprintf "%d, digest %s" (List.length paths)
       (Digest.to_hex (Digest.string (String.concat "|" (List.map Path_finder.signature paths)))))

let alias_goal names (g : Path_finder.goal) =
  {
    g with
    Path_finder.g_from = rename_id names.to_nm g.Path_finder.g_from;
    g_to = rename_id names.to_nm g.Path_finder.g_to;
  }

(* An operator's path selector, applied to the path in the agents' names. *)
let selected names select (p : Path_finder.path) =
  select
    {
      Path_finder.visits =
        List.map
          (fun (v : Path_finder.visit) ->
            { v with Path_finder.v_mod = rename_id names.to_agents v.Path_finder.v_mod })
          p.Path_finder.visits;
    }

(* --- the cases ----------------------------------------------------------------------- *)

let vpn ~secure names =
  let v = fresh (fun () -> Scenarios.build_vpn ~secure ()) in
  ( world names ~chan:v.Scenarios.chan ~transport:v.Scenarios.transport
      ~net:v.Scenarios.tb.Netsim.Testbeds.vpn_net
      ~reachable:(fun () -> Scenarios.vpn_reachable v)
      v.Scenarios.nm,
    v.Scenarios.goal )

let chain n names =
  let c = fresh (fun () -> Scenarios.build_chain n) in
  ( world names ~chan:c.Scenarios.cchan ~transport:c.Scenarios.ctransport
      ~net:c.Scenarios.ctb.Netsim.Testbeds.chain_net
      ~reachable:(fun () -> Scenarios.chain_reachable c)
      c.Scenarios.cnm,
    c.Scenarios.cgoal )

(* The planner's choice, with the number of sane paths. *)
let best deployment names notes =
  let w, goal = deployment names in
  let goal = alias_goal names goal in
  counts notes "discovery" w;
  paths notes (Nm.find_paths w.nm goal);
  (match Nm.achieve w.nm goal with
  | Ok (_, path, s) ->
      note notes "plan" (Path_finder.signature path);
      script notes names "script" s
  | Error e -> note notes "achieve" ("error: " ^ e));
  counts notes "achieve" w;
  completions notes names w.nm;
  ping notes "ping" (w.reachable ())

(* The operator's pick among the sane paths, counted from the configure
   on (Table VI). *)
let pick select deployment names notes =
  let w, goal = deployment names in
  let goal = alias_goal names goal in
  let path = List.find (selected names select) (Nm.find_paths w.nm goal) in
  note notes "path" (Path_finder.signature path);
  Nm.reset_stats w.nm;
  script notes names "script" (Nm.configure_path w.nm goal path);
  counts notes "configure" w;
  completions notes names w.nm;
  ping notes "ping" (w.reachable ())

(* An achieve, then the Monitor with telemetry repairing a cut of the
   chosen core's uplink. *)
let diamond names notes =
  let d = fresh (fun () -> Scenarios.build_diamond ()) in
  let w =
    world names ~chan:d.Scenarios.dchan ~transport:d.Scenarios.dtransport
      ~net:d.Scenarios.dtb.Netsim.Testbeds.dia_net
      ~reachable:(fun () -> Scenarios.diamond_reachable d)
      d.Scenarios.dnm
  in
  best (fun _ -> (w, d.Scenarios.dgoal)) names notes;
  let core =
    match Nm.intents w.nm with
    | [ { Intent.script = Some s; _ } ] ->
        if List.mem "id-B1" (Path_finder.devices s.Script_gen.path) then "A--B1" else "A--B2"
    | _ -> Alcotest.fail "expected one configured intent"
  in
  Netsim.Link.flap ~cycles:1 (Netsim.Net.find_segment_exn w.net core)
    ~first_down_ns:1_000_000_000L ~down_ns:3_000_000_000L ~up_ns:1_000_000_000L;
  let mon = Monitor.create ~telemetry:(Telemetry.create ~scope:d.Scenarios.dscope w.nm) w.nm in
  Monitor.run mon ~ticks:10;
  note notes "monitor"
    (String.concat "\n" (List.map (Fmt.to_to_string Monitor.pp_event) (Monitor.events mon)));
  note notes "repairs"
    (Printf.sprintf "%d repairs, %d resyncs, %d escalations" (Monitor.repairs mon)
       (Monitor.resyncs mon) (Monitor.escalations mon));
  (match Nm.intents w.nm with
  | [ { Intent.script = Some s; _ } ] -> script notes names "repaired script" s
  | _ -> note notes "repaired script" "none");
  counts notes "after the ticks" w;
  check tbool "the Monitor repaired the cut" true (Monitor.repairs mon >= 1);
  ping notes "ping after the repair" (w.reachable ())

(* The figure-9 goal between two switches' modules. *)
let l2 w names notes ~scope ~from_eth ~to_eth =
  Nm.reset_stats w.nm;
  let from_eth = rename_id names.to_nm from_eth and to_eth = rename_id names.to_nm to_eth in
  (match Nm.achieve_l2 w.nm ~scope ~from_eth ~to_eth with
  | Ok s -> script notes names "script" s
  | Error e -> note notes "achieve" ("error: " ^ e));
  counts notes "achieve" w;
  completions notes names w.nm;
  ping notes "ping" (w.reachable ())

let vlan names notes =
  let v = fresh (fun () -> Scenarios.build_vlan ()) in
  let w =
    world names ~chan:v.Scenarios.vchan ~transport:v.Scenarios.vtransport
      ~net:v.Scenarios.vtb.Netsim.Testbeds.vlan_net
      ~reachable:(fun () -> Scenarios.vlan_reachable v)
      v.Scenarios.vnm
  in
  l2 w names notes ~scope:v.Scenarios.vscope ~from_eth:(Ids.v "ETH" "a" "id-SwA")
    ~to_eth:(Ids.v "ETH" "c" "id-SwC")

let vlan_chain n names notes =
  let v = fresh (fun () -> Scenarios.build_vlan_chain n) in
  let w =
    world names ~chan:v.Scenarios.vcchan ~transport:v.Scenarios.vctransport
      ~net:v.Scenarios.vctb.Netsim.Testbeds.vc_net
      ~reachable:(fun () -> Scenarios.vlan_chain_reachable v)
      v.Scenarios.vcnm
  in
  l2 w names notes ~scope:v.Scenarios.vcscope ~from_eth:(Ids.v "ETH" "eth1" "id-Sw1")
    ~to_eth:(Ids.v "ETH" (Printf.sprintf "eth%d" n) (Printf.sprintf "id-Sw%d" n))

(* Runs a case plain and aliased and compares the notes. *)
let same run () =
  let notes names =
    let n = { items = [] } in
    run names n;
    List.rev n.items
  in
  let want = notes plain in
  check
    Alcotest.(list (pair string string))
    "the aliased NM saw what the plain one saw" want (notes aliased)

let () =
  let case name run = Alcotest.test_case name `Quick (same run) in
  Alcotest.run "alias"
    [
      ( "vpn",
        [
          case "best path" (best (vpn ~secure:false));
          case "pure GRE" (pick Scenarios.pure_gre (vpn ~secure:false));
          case "pure MPLS" (pick Scenarios.pure_mpls (vpn ~secure:false));
          case "pure IP-IP" (pick Scenarios.pure_ipip (vpn ~secure:false));
          case "secure: best path" (best (vpn ~secure:true));
          case "secure: ESP path" (pick Scenarios.secure (vpn ~secure:true));
        ] );
      ( "chains",
        [
          case "n=11 best path" (best (chain 11));
          case "Table VI sweep n=2..6"
            (fun names notes ->
              for n = 2 to 6 do
                pick Scenarios.pure_gre (chain n) names notes;
                pick Scenarios.pure_mpls (chain n) names notes;
                vlan_chain n names notes
              done);
        ] );
      ("diamond", [ case "achieve, then a core cut repaired" diamond ]);
      ("vlan", [ case "three switches" vlan; case "a chain of four" (vlan_chain 4) ]);
    ]
