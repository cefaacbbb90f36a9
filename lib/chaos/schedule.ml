(* Seeded composite fault schedules.

   A schedule is a timed list of fault events over the diamond testbed,
   generated from a single splitmix64 seed (the same PRNG family the
   management-channel fault layer uses). Times are monitor ticks; every
   fault carries its own duration and the generator caps durations so all
   injected faults end before the quiescence tail begins — convergence is
   therefore decidable: after [ticks] ticks of chaos, the checker gives
   the monitor [tail] clean ticks to re-converge every intent.

   Schedules serialise to sexp (one file per repro) so a minimized
   counterexample can be replayed exactly with [conman chaos --replay]. *)

open Conman

type fault =
  | Link_cut of { seg : string; ticks : int }
  | Link_loss of { seg : string; p : float; ticks : int }
  | Link_corrupt of { seg : string; p : float; ticks : int }
  | Link_flap of { seg : string; cycles : int; down_ms : int; up_ms : int }
  | Mgmt_drop of { p : float; ticks : int }
  | Mgmt_duplicate of { p : float; ticks : int }
  | Mgmt_jitter of { ms : int; ticks : int }
  | Mgmt_partition of { dev : string; ticks : int }
  | Agent_crash of { dev : string; ticks : int }
  | Nm_crash
      (* legacy single-NM event (journal restart); the HA engine maps it
         to [Nm_failover { ticks = 2 }] — kept for repro-file compat *)
  | Nm_failover of { ticks : int }
      (* the acting primary NM station crashes for [ticks] ticks: the
         standby must detect the silence and promote itself *)
  | Ha_partition of { ticks : int }
      (* NM <-> standby management partition: heartbeats and journal
         shipping stop both ways while agents stay reachable — the
         split-brain scenario epoch fencing must contain *)
  | Standby_crash of { ticks : int }
      (* the non-acting node crashes — including mid-promotion when it
         follows an [Nm_failover] *)
  | Overload of { intensity : float; ticks : int }
      (* management-plane storm: a burst of low-priority telemetry
         requests floods the channel every tick for [ticks] ticks; the
         admission layer must shed it without touching P0/P1 traffic *)
  | Peer_nm_crash of { domain : string; ticks : int }
      (* federation: one domain's NM station crashes for [ticks] ticks
         (process down, state intact — a warm restart); the inter-NM
         two-phase commit must ride it out or back out cleanly. Only the
         federated engine applies it; [generate] never emits it. *)
  | Inter_domain_partition of { ticks : int }
      (* federation: the two NM stations lose each other while both keep
         reaching their own agents — commits and aborts stall until the
         retransmission discipline delivers them after the heal *)

type event = { at : int; fault : fault }
type t = { seed : int; ticks : int; tail : int; events : event list }

(* The diamond's managed core: the only segments and transit devices the
   generator targets. Cutting an edge segment (e.g. D--A) would make the
   goal unsatisfiable by construction rather than exercise repair. *)
let core_segments = [ "A--B1"; "A--B2"; "B1--C"; "B2--C" ]
let transit_devices = [ "id-B1"; "id-B2" ]
let managed_devices = [ "id-A"; "id-B1"; "id-B2"; "id-C" ]

let pp_fault ppf = function
  | Link_cut { seg; ticks } -> Fmt.pf ppf "cut %s for %d ticks" seg ticks
  | Link_loss { seg; p; ticks } -> Fmt.pf ppf "loss %.2f on %s for %d ticks" p seg ticks
  | Link_corrupt { seg; p; ticks } -> Fmt.pf ppf "corrupt %.2f on %s for %d ticks" p seg ticks
  | Link_flap { seg; cycles; down_ms; up_ms } ->
      Fmt.pf ppf "flap %s x%d (%dms down / %dms up)" seg cycles down_ms up_ms
  | Mgmt_drop { p; ticks } -> Fmt.pf ppf "mgmt drop %.2f for %d ticks" p ticks
  | Mgmt_duplicate { p; ticks } -> Fmt.pf ppf "mgmt duplicate %.2f for %d ticks" p ticks
  | Mgmt_jitter { ms; ticks } -> Fmt.pf ppf "mgmt jitter %dms for %d ticks" ms ticks
  | Mgmt_partition { dev; ticks } -> Fmt.pf ppf "mgmt partition %s for %d ticks" dev ticks
  | Agent_crash { dev; ticks } -> Fmt.pf ppf "agent crash %s for %d ticks" dev ticks
  | Nm_crash -> Fmt.pf ppf "NM crash + journal recovery"
  | Nm_failover { ticks } -> Fmt.pf ppf "primary NM crash for %d ticks (failover)" ticks
  | Ha_partition { ticks } -> Fmt.pf ppf "NM<->standby partition for %d ticks" ticks
  | Standby_crash { ticks } -> Fmt.pf ppf "standby NM crash for %d ticks" ticks
  | Overload { intensity; ticks } ->
      Fmt.pf ppf "mgmt overload %.2f for %d ticks (telemetry storm)" intensity ticks
  | Peer_nm_crash { domain; ticks } -> Fmt.pf ppf "%s NM crash for %d ticks" domain ticks
  | Inter_domain_partition { ticks } -> Fmt.pf ppf "inter-domain NM partition for %d ticks" ticks

let pp_event ppf e = Fmt.pf ppf "@t=%d %a" e.at pp_fault e.fault

let pp ppf t =
  Fmt.pf ppf "schedule seed=%d ticks=%d tail=%d (%d events)@." t.seed t.ticks t.tail
    (List.length t.events);
  List.iter (fun e -> Fmt.pf ppf "  %a@." pp_event e) t.events

(* --- predicates --------------------------------------------------------- *)

let has_ha_fault t =
  List.exists
    (fun e ->
      match e.fault with
      | Nm_crash | Nm_failover _ | Ha_partition _ | Standby_crash _ -> true
      | _ -> false)
    t.events

let has_overload t =
  List.exists (fun e -> match e.fault with Overload _ -> true | _ -> false) t.events

let with_overload ~intensity t =
  if has_overload t then t
  else
    let storm = { at = 1; fault = Overload { intensity; ticks = 3 } } in
    { t with events = List.stable_sort (fun a b -> compare a.at b.at) (storm :: t.events) }

(* --- generation --------------------------------------------------------- *)

(* Weighted fault-kind menu. [intensity] scales the event count (events per
   tick of schedule); NM crashes are rare and capped at one per schedule so
   a single journal-recovery episode stays analysable. *)
let generate ?(intensity = 0.5) ~seed ~ticks () =
  let prng = Mgmt.Faults.Prng.create seed in
  let pick xs = List.nth xs (Mgmt.Faults.Prng.below prng (List.length xs)) in
  let n_events = max 1 (int_of_float (intensity *. float_of_int ticks)) in
  let failovers = ref 0 in
  let ha_partitions = ref 0 in
  let standby_crashes = ref 0 in
  let overloads = ref 0 in
  let duration ~at = max 1 (min (1 + Mgmt.Faults.Prng.below prng 3) (ticks - at)) in
  (* HA faults must outlast the failure detector (~phi ticks of silence)
     or nothing interesting happens before the revert *)
  let ha_duration () = 3 + Mgmt.Faults.Prng.below prng 3 in
  let rec gen_one () =
    (* weights: data-plane faults dominate; NM-level faults are the rare
       events, capped at one each so an episode stays analysable *)
    let kind =
      pick
        [ `Cut; `Cut; `Cut; `Loss; `Loss; `Corrupt; `Flap; `Flap; `Drop; `Drop; `Dup; `Jitter;
          `Partition; `Agent; `Agent; `Failover; `HaPartition; `StandbyCrash; `Overload ]
    in
    let at = Mgmt.Faults.Prng.below prng (max 1 (ticks - 1)) in
    match kind with
    | `Cut -> { at; fault = Link_cut { seg = pick core_segments; ticks = duration ~at } }
    | `Loss ->
        let p = 0.1 +. (0.4 *. Mgmt.Faults.Prng.uniform prng) in
        { at; fault = Link_loss { seg = pick core_segments; p; ticks = duration ~at } }
    | `Corrupt ->
        let p = 0.1 +. (0.3 *. Mgmt.Faults.Prng.uniform prng) in
        { at; fault = Link_corrupt { seg = pick core_segments; p; ticks = duration ~at } }
    | `Flap ->
        let cycles = 1 + Mgmt.Faults.Prng.below prng 2 in
        let down_ms = 100 + (100 * Mgmt.Faults.Prng.below prng 3) in
        let up_ms = 100 + (100 * Mgmt.Faults.Prng.below prng 3) in
        (* a flap schedules its own cut/restore events on the queue: make
           sure the whole pattern has played out before the tail starts *)
        let span = 1 + ((cycles * (down_ms + up_ms) + 499) / 500) in
        let at = min at (max 0 (ticks - span)) in
        { at; fault = Link_flap { seg = pick core_segments; cycles; down_ms; up_ms } }
    | `Drop ->
        let p = 0.1 +. (0.3 *. Mgmt.Faults.Prng.uniform prng) in
        { at; fault = Mgmt_drop { p; ticks = duration ~at } }
    | `Dup ->
        let p = 0.1 +. (0.4 *. Mgmt.Faults.Prng.uniform prng) in
        { at; fault = Mgmt_duplicate { p; ticks = duration ~at } }
    | `Jitter ->
        let ms = 20 + (20 * Mgmt.Faults.Prng.below prng 4) in
        { at; fault = Mgmt_jitter { ms; ticks = duration ~at } }
    | `Partition ->
        { at; fault = Mgmt_partition { dev = pick managed_devices; ticks = duration ~at } }
    | `Agent -> { at; fault = Agent_crash { dev = pick transit_devices; ticks = duration ~at } }
    | `Failover ->
        if !failovers >= 1 then gen_one ()
        else begin
          incr failovers;
          { at; fault = Nm_failover { ticks = ha_duration () } }
        end
    | `HaPartition ->
        if !ha_partitions >= 1 then gen_one ()
        else begin
          incr ha_partitions;
          { at; fault = Ha_partition { ticks = ha_duration () } }
        end
    | `StandbyCrash ->
        if !standby_crashes >= 1 then gen_one ()
        else begin
          incr standby_crashes;
          { at; fault = Standby_crash { ticks = duration ~at } }
        end
    | `Overload ->
        if !overloads >= 1 then gen_one ()
        else begin
          incr overloads;
          let burst = 0.25 +. (0.5 *. Mgmt.Faults.Prng.uniform prng) in
          { at; fault = Overload { intensity = burst; ticks = duration ~at } }
        end
  in
  let events =
    List.init n_events (fun _ -> gen_one ())
    |> List.stable_sort (fun a b -> compare a.at b.at)
  in
  let t = { seed; ticks; tail = 0; events } in
  (* failover + replay + reconvergence needs a longer clean tail than
     data-plane repair alone *)
  { t with tail = (if has_ha_fault t then max 12 (ticks / 2) else max 6 (ticks / 2)) }

(* --- sexp codec --------------------------------------------------------- *)

let fl f = Sexp.atom (Printf.sprintf "%.4f" f)

let to_fl s =
  let a = Sexp.to_atom s in
  match float_of_string_opt a with
  | Some f -> f
  | None -> raise (Sexp.Parse_error ("not a float: " ^ a))

let fault_to_sexp = function
  | Link_cut { seg; ticks } -> Sexp.list [ Sexp.atom "cut"; Sexp.atom seg; Sexp.of_int ticks ]
  | Link_loss { seg; p; ticks } ->
      Sexp.list [ Sexp.atom "loss"; Sexp.atom seg; fl p; Sexp.of_int ticks ]
  | Link_corrupt { seg; p; ticks } ->
      Sexp.list [ Sexp.atom "corrupt"; Sexp.atom seg; fl p; Sexp.of_int ticks ]
  | Link_flap { seg; cycles; down_ms; up_ms } ->
      Sexp.list
        [ Sexp.atom "flap"; Sexp.atom seg; Sexp.of_int cycles; Sexp.of_int down_ms;
          Sexp.of_int up_ms ]
  | Mgmt_drop { p; ticks } -> Sexp.list [ Sexp.atom "mgmt-drop"; fl p; Sexp.of_int ticks ]
  | Mgmt_duplicate { p; ticks } ->
      Sexp.list [ Sexp.atom "mgmt-duplicate"; fl p; Sexp.of_int ticks ]
  | Mgmt_jitter { ms; ticks } ->
      Sexp.list [ Sexp.atom "mgmt-jitter"; Sexp.of_int ms; Sexp.of_int ticks ]
  | Mgmt_partition { dev; ticks } ->
      Sexp.list [ Sexp.atom "mgmt-partition"; Sexp.atom dev; Sexp.of_int ticks ]
  | Agent_crash { dev; ticks } ->
      Sexp.list [ Sexp.atom "agent-crash"; Sexp.atom dev; Sexp.of_int ticks ]
  | Nm_crash -> Sexp.list [ Sexp.atom "nm-crash" ]
  | Nm_failover { ticks } -> Sexp.list [ Sexp.atom "nm-failover"; Sexp.of_int ticks ]
  | Ha_partition { ticks } -> Sexp.list [ Sexp.atom "ha-partition"; Sexp.of_int ticks ]
  | Standby_crash { ticks } -> Sexp.list [ Sexp.atom "standby-crash"; Sexp.of_int ticks ]
  | Overload { intensity; ticks } ->
      Sexp.list [ Sexp.atom "overload"; fl intensity; Sexp.of_int ticks ]
  | Peer_nm_crash { domain; ticks } ->
      Sexp.list [ Sexp.atom "peer-nm-crash"; Sexp.atom domain; Sexp.of_int ticks ]
  | Inter_domain_partition { ticks } ->
      Sexp.list [ Sexp.atom "inter-domain-partition"; Sexp.of_int ticks ]

let fault_of_sexp s =
  match Sexp.to_list s with
  | [ Sexp.Atom "cut"; seg; ticks ] ->
      Link_cut { seg = Sexp.to_atom seg; ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "loss"; seg; p; ticks ] ->
      Link_loss { seg = Sexp.to_atom seg; p = to_fl p; ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "corrupt"; seg; p; ticks ] ->
      Link_corrupt { seg = Sexp.to_atom seg; p = to_fl p; ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "flap"; seg; cycles; down_ms; up_ms ] ->
      Link_flap
        {
          seg = Sexp.to_atom seg;
          cycles = Sexp.to_int cycles;
          down_ms = Sexp.to_int down_ms;
          up_ms = Sexp.to_int up_ms;
        }
  | [ Sexp.Atom "mgmt-drop"; p; ticks ] -> Mgmt_drop { p = to_fl p; ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "mgmt-duplicate"; p; ticks ] ->
      Mgmt_duplicate { p = to_fl p; ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "mgmt-jitter"; ms; ticks ] ->
      Mgmt_jitter { ms = Sexp.to_int ms; ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "mgmt-partition"; dev; ticks ] ->
      Mgmt_partition { dev = Sexp.to_atom dev; ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "agent-crash"; dev; ticks ] ->
      Agent_crash { dev = Sexp.to_atom dev; ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "nm-crash" ] -> Nm_crash
  | [ Sexp.Atom "nm-failover"; ticks ] -> Nm_failover { ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "ha-partition"; ticks ] -> Ha_partition { ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "standby-crash"; ticks ] -> Standby_crash { ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "overload"; intensity; ticks ] ->
      Overload { intensity = to_fl intensity; ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "peer-nm-crash"; domain; ticks ] ->
      Peer_nm_crash { domain = Sexp.to_atom domain; ticks = Sexp.to_int ticks }
  | [ Sexp.Atom "inter-domain-partition"; ticks ] ->
      Inter_domain_partition { ticks = Sexp.to_int ticks }
  | _ -> raise (Sexp.Parse_error "chaos fault")

let to_sexp t =
  Sexp.list
    [
      Sexp.atom "chaos";
      Sexp.list [ Sexp.atom "seed"; Sexp.of_int t.seed ];
      Sexp.list [ Sexp.atom "ticks"; Sexp.of_int t.ticks ];
      Sexp.list [ Sexp.atom "tail"; Sexp.of_int t.tail ];
      Sexp.list
        (Sexp.atom "events"
        :: List.map
             (fun e -> Sexp.list [ Sexp.of_int e.at; fault_to_sexp e.fault ])
             t.events);
    ]

let of_sexp s =
  match Sexp.to_list s with
  | [ Sexp.Atom "chaos"; seed; ticks; tail; events ] ->
      let field name sx =
        match Sexp.to_list sx with
        | [ Sexp.Atom n; v ] when n = name -> Sexp.to_int v
        | _ -> raise (Sexp.Parse_error ("chaos schedule field " ^ name))
      in
      let events =
        match Sexp.to_list events with
        | Sexp.Atom "events" :: evs ->
            List.map
              (fun ev ->
                match Sexp.to_list ev with
                | [ at; f ] -> { at = Sexp.to_int at; fault = fault_of_sexp f }
                | _ -> raise (Sexp.Parse_error "chaos event"))
              evs
        | _ -> raise (Sexp.Parse_error "chaos events")
      in
      {
        seed = field "seed" seed;
        ticks = field "ticks" ticks;
        tail = field "tail" tail;
        events;
      }
  | _ -> raise (Sexp.Parse_error "chaos schedule")

let to_string t = Sexp.to_string (to_sexp t)
let of_string s = of_sexp (Sexp.of_string s)
