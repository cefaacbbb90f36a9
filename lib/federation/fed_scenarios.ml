(* The federated counterpart of Scenarios.build_chain: the same n-router
   chain testbed, partitioned into a west and an east administrative
   domain, each owned by its own NM on the shared out-of-band management
   channel. Every agent is homed to its domain's NM station, each NM
   discovers and harvests only its own devices, and module-domain
   knowledge is entered per domain — the only cross-domain knowledge is
   the customer prefix map both operators hold. The cross-domain goal is
   the exact goal build_chain poses to a single NM, which is what makes
   the configuration-parity check meaningful. *)

open Conman

let west_station = "id-NM-W"
let east_station = "id-NM-E"

type two_domain = {
  ftb : Netsim.Testbeds.chain;
  fchan : Mgmt.Channel.t;
  ffaults : Mgmt.Faults.t;
  ftransport : Mgmt.Reliable.t;
  fadmission : Mgmt.Admission.t;
  fwest : Fed.t;
  feast : Fed.t;
  fgoal : Path_finder.goal;
  fscope : string list;
  fwest_devices : string list;
  feast_devices : string list;
  fagents : (string * Agent.t) list;
}

let build_two_domain ?fault_seed n =
  let tb = Netsim.Testbeds.chain ~addressed:true n in
  let net = tb.Netsim.Testbeds.chain_net in
  let split = n / 2 in
  (* same module layout as build_chain, so the single-NM run over the same
     testbed produces the same plan space *)
  let layout =
    Scenarios.chain_layout (fun idx -> if idx < split then west_station else east_station) tb
  in
  let d = Scenarios.deploy ?fault_seed `Oob net ~attach_to:tb.Netsim.Testbeds.routers.(0) layout in
  let nm_w = Nm.create ~transport:d.Scenarios.transport ~chan:d.chan ~net ~my_id:west_station () in
  let nm_e = Nm.create ~transport:d.transport ~chan:d.chan ~net ~my_id:east_station () in
  (* shared network: the west NM's run delivers every Hello to both stations *)
  Scenarios.discover nm_w ~announce:(List.map snd d.agents) net layout;
  Scenarios.discover nm_e ~announce:[] net layout;
  let agents = List.map (fun (dev, a) -> (dev.Netsim.Device.dev_id, a)) d.agents in
  let ids = List.map fst agents in
  let west_devices = List.filteri (fun i _ -> i < split) ids in
  let east_devices = List.filteri (fun i _ -> i >= split) ids in
  let west = Fed.create ~nm:nm_w ~domain:"west" ~devices:west_devices ~peers:[ east_station ] () in
  let east = Fed.create ~nm:nm_e ~domain:"east" ~devices:east_devices ~peers:[ west_station ] () in
  Fed.announce west;
  Fed.announce east;
  Nm.run nm_w;
  {
    ftb = tb;
    fchan = d.chan;
    ffaults = d.faults;
    ftransport = d.transport;
    fadmission = d.admission;
    fwest = west;
    feast = east;
    fgoal = Scenarios.chain_goal tb;
    fscope = ids;
    fwest_devices = west_devices;
    feast_devices = east_devices;
    fagents = agents;
  }

let two_domain_reachable t = Netsim.Testbeds.chain_reachable t.ftb

(* Full observability over the deployment: one span collector per NM
   station (west agents report into west's, east into east's), the shared
   channel stack's retry/shed events routed back to goal spans, every
   layer's counters in one registry, and both Fed nodes feeding the
   per-phase latency histograms. *)
let instrument t =
  let obs = Observe.create () in
  let w_agents = List.filter (fun (id, _) -> List.mem id t.fwest_devices) t.fagents in
  let e_agents = List.filter (fun (id, _) -> List.mem id t.feast_devices) t.fagents in
  ignore
    (Observe.attach_nm obs ~prefix:"west" ~agents:w_agents ~transport:t.ftransport
       ~admission:t.fadmission ~faults:t.ffaults ~station:west_station (Fed.nm t.fwest));
  (* the channel stack is shared, so its observers/counters attach once *)
  ignore (Observe.attach_nm obs ~prefix:"east" ~agents:e_agents ~station:east_station (Fed.nm t.feast));
  let reg = Observe.registry obs in
  Fed.set_registry t.fwest reg;
  Fed.set_registry t.feast reg;
  Obs.Registry.register reg "fed_west" (fun () -> Fed.obs_counters t.fwest);
  Obs.Registry.register reg "fed_east" (fun () -> Fed.obs_counters t.feast);
  Observe.attach_net obs (Nm.net (Fed.nm t.fwest));
  Observe.attach_rings obs;
  obs

(* Drives both federation nodes half a virtual second per tick until the
   goal is achieved, for at most 40 ticks — the fault-free drive; the
   chaos engine has its own with fault injection interleaved. *)
let converge ?obs t gid =
  let net = Nm.net (Fed.nm t.fwest) in
  let eq = Netsim.Net.eq net in
  let rec go tick =
    (match obs with Some o -> Observe.set_tick o tick | None -> ());
    if Fed.achieved t.fwest gid || Fed.achieved t.feast gid then true
    else if tick >= 40 then false
    else begin
      Fed.tick t.fwest ~tick;
      Fed.tick t.feast ~tick;
      ignore
        (Netsim.Net.run_until net ~deadline:(Int64.add (Netsim.Event_queue.now eq) 500_000_000L));
      go (tick + 1)
    end
  in
  go 0
