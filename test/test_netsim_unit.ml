(* Unit tests for the simulator's infrastructure: event queue, links,
   counters, tracing, ARP corner cases, UDP sockets, routing table
   internals and tunnel validation paths. *)

open Packet
open Netsim

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let ip = Ipv4_addr.of_string
let pfx = Prefix.of_string

(* --- event queue -------------------------------------------------------------- *)

let test_eq_fifo_at_same_time () =
  let eq = Event_queue.create () in
  let order = ref [] in
  List.iter
    (fun i -> Event_queue.schedule eq ~delay_ns:100L (fun () -> order := i :: !order))
    [ 1; 2; 3 ];
  let _ = Event_queue.run eq in
  check tbool "fifo order" true (List.rev !order = [ 1; 2; 3 ])

let test_eq_time_ordering () =
  let eq = Event_queue.create () in
  let order = ref [] in
  Event_queue.schedule eq ~delay_ns:300L (fun () -> order := "late" :: !order);
  Event_queue.schedule eq ~delay_ns:100L (fun () ->
      order := "early" :: !order;
      Event_queue.schedule eq ~delay_ns:100L (fun () -> order := "nested" :: !order));
  let n = Event_queue.run eq in
  check tint "three events" 3 n;
  check tbool "order" true (List.rev !order = [ "early"; "nested"; "late" ]);
  check tbool "clock advanced" true (Event_queue.now eq = 300L)

let test_eq_budget () =
  let eq = Event_queue.create () in
  let rec forever () = Event_queue.schedule eq ~delay_ns:1L forever in
  forever ();
  check tbool "budget guard" true
    (match Event_queue.run ~max_events:1000 eq with
    | exception Event_queue.Budget_exhausted -> true
    | _ -> false)

let test_eq_negative_delay_rejected () =
  let eq = Event_queue.create () in
  check tbool "invalid arg" true
    (match Event_queue.schedule eq ~delay_ns:(-1L) (fun () -> ()) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The Map-keyed queue the binary heap replaced, kept as the reference
   model: [prop_eq_matches_reference] runs random programs on both. A
   timer is the event's key, and cancelling removes it. *)
module Ref_queue = struct
  module M = Map.Make (struct
    type t = int64 * int

    let compare (t1, s1) (t2, s2) = match Int64.compare t1 t2 with 0 -> compare s1 s2 | c -> c
  end)

  type t = {
    mutable now : int64;
    mutable seq : int;
    mutable events : (unit -> unit) M.t;
    mutable processed : int;
  }

  type timer = int64 * int

  exception Budget_exhausted

  let create () = { now = 0L; seq = 0; events = M.empty; processed = 0 }
  let now t = t.now
  let pending t = M.cardinal t.events
  let processed t = t.processed

  let timer t ~delay_ns f =
    if delay_ns < 0L then invalid_arg "Ref_queue.schedule";
    let key = (Int64.add t.now delay_ns, t.seq) in
    t.seq <- t.seq + 1;
    t.events <- M.add key f t.events;
    key

  let cancel t key = t.events <- M.remove key t.events

  let drain ~max_events t due busy =
    let count = ref 0 in
    let rec loop () =
      match M.min_binding_opt t.events with
      | Some (((time, _) as key), f) when due time && busy () ->
          if !count >= max_events then raise Budget_exhausted;
          incr count;
          t.processed <- t.processed + 1;
          t.events <- M.remove key t.events;
          t.now <- time;
          f ();
          loop ()
      | _ -> ()
    in
    loop ();
    !count

  let always () = true
  let run ?(max_events = 10_000_000) t = drain ~max_events t (fun _ -> true) always

  let run_until ?(max_events = 10_000_000) t ~deadline =
    let count = drain ~max_events t (fun time -> time <= deadline) always in
    if deadline > t.now then t.now <- deadline;
    count

  let run_while ?(max_events = 10_000_000) t ~deadline busy =
    drain ~max_events t (fun time -> time <= deadline) busy
end

module type QUEUE = sig
  type t
  type timer

  exception Budget_exhausted

  val create : unit -> t
  val now : t -> int64
  val pending : t -> int
  val processed : t -> int
  val timer : t -> delay_ns:int64 -> (unit -> unit) -> timer
  val cancel : t -> timer -> unit
  val run : ?max_events:int -> t -> int
  val run_until : ?max_events:int -> t -> deadline:int64 -> int
  val run_while : ?max_events:int -> t -> deadline:int64 -> (unit -> bool) -> int
end

(* An event waits [delay] and, when it fires, cancels the [k]th newest
   event scheduled so far (if it names one) and schedules its children. *)
type ev = Ev of int64 * int option * ev list
type deadline = Behind of int64 | Ahead of int64 | Forever

type op =
  | Schedule of ev
  | Cancel of int  (** the [k]th newest event scheduled so far, run or not *)
  | Run of int option  (** max_events *)
  | Run_until of deadline * int option  (** deadline, max_events *)
  | Run_while of deadline * int * int option
      (** deadline, events the run may fire before it is idle, max_events *)

(* Runs a program and returns, after each op, its outcome, the events fired
   so far (numbered in scheduling order), [now], [pending] and
   [processed]. A run's outcome is its count, or -1 for
   [Budget_exhausted]. Once a [Forever] deadline has advanced the clock
   past 63 bits, later top-level schedules are skipped: the heap keeps
   [int] times. *)
module Drive (Q : QUEUE) = struct
  let go prog =
    let q = Q.create () in
    let fired = ref [] and nfired = ref 0 and next_id = ref 0 and timers = ref [] in
    let cancel k =
      match !timers with [] -> () | l -> Q.cancel q (List.nth l (k mod List.length l))
    in
    let rec sched (Ev (delay_ns, cancels, kids)) =
      let id = !next_id in
      incr next_id;
      timers :=
        Q.timer q ~delay_ns (fun () ->
            fired := id :: !fired;
            incr nfired;
            Option.iter cancel cancels;
            List.iter sched kids)
        :: !timers
    in
    let budgeted f = try f () with Q.Budget_exhausted -> -1 in
    let deadline = function
      | Behind k -> Int64.sub (Q.now q) k
      | Ahead k -> Int64.add (Q.now q) k
      | Forever -> Int64.max_int
    in
    List.map
      (fun op ->
        let outcome =
          match op with
          | Schedule ev ->
              if Q.now q < Int64.of_int max_int then sched ev;
              0
          | Cancel k ->
              cancel k;
              0
          | Run max_events -> budgeted (fun () -> Q.run ?max_events q)
          | Run_until (d, max_events) ->
              budgeted (fun () -> Q.run_until ?max_events q ~deadline:(deadline d))
          | Run_while (d, k, max_events) ->
              let stop = !nfired + k in
              budgeted (fun () ->
                  Q.run_while ?max_events q ~deadline:(deadline d) (fun () -> !nfired < stop))
        in
        (outcome, List.rev !fired, Q.now q, Q.pending q, Q.processed q))
      prog
end

module Heap_run = Drive (Event_queue)
module Ref_run = Drive (Ref_queue)

let rec pp_ev (Ev (d, c, kids)) =
  Printf.sprintf "%Ld%s[%s]" d
    (Option.fold ~none:"" ~some:(Printf.sprintf " cancel %d") c)
    (String.concat " " (List.map pp_ev kids))

let pp_deadline = function
  | Behind k -> Printf.sprintf "now-%Ld" k
  | Ahead k -> Printf.sprintf "now+%Ld" k
  | Forever -> "max_int"

let pp_max m = Option.fold ~none:"-" ~some:string_of_int m

let pp_op = function
  | Schedule ev -> "schedule " ^ pp_ev ev
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Run m -> Printf.sprintf "run %s" (pp_max m)
  | Run_until (d, m) -> Printf.sprintf "run_until %s max=%s" (pp_deadline d) (pp_max m)
  | Run_while (d, k, m) ->
      Printf.sprintf "run_while %s for %d max=%s" (pp_deadline d) k (pp_max m)

let prog_gen =
  let open QCheck.Gen in
  (* few distinct delays, so equal timestamps are common *)
  let delay = oneofl [ 0L; 0L; 1L; 2L; 5L; 100L ] in
  let cancels = frequency [ (4, return None); (1, map Option.some (int_bound 5)) ] in
  let ev =
    fix
      (fun self depth ->
        let* d = delay in
        let* c = cancels in
        let* kids = if depth = 0 then return [] else list_size (int_bound 2) (self (depth - 1)) in
        return (Ev (d, c, kids)))
      3
  in
  let budget = frequency [ (3, return None); (2, map Option.some (int_bound 6)) ] in
  let deadline =
    frequency
      [
        (2, map (fun k -> Behind (Int64.of_int k)) (int_bound 20));
        (5, map (fun k -> Ahead (Int64.of_int k)) (int_bound 120));
        (1, return Forever);
      ]
  in
  let op =
    frequency
      [
        (5, map (fun e -> Schedule e) ev);
        (2, map (fun k -> Cancel k) (int_bound 8));
        (1, map (fun m -> Run m) budget);
        (2, map2 (fun d m -> Run_until (d, m)) deadline budget);
        (2, map3 (fun d k m -> Run_while (d, k, m)) deadline (int_bound 6) budget);
      ]
  in
  list_size (int_bound 40) op

let prop_eq_matches_reference =
  QCheck.Test.make ~name:"heap matches the Map reference" ~count:1000
    (QCheck.make ~print:(fun p -> String.concat "; " (List.map pp_op p)) prog_gen)
    (fun prog -> Heap_run.go prog = Ref_run.go prog)

(* --- links ---------------------------------------------------------------------- *)

let test_link_mtu_drop () =
  let eq = Event_queue.create () in
  let seg = Link.create_segment ~mtu:100 eq in
  let a = Link.attach seg and b = Link.attach seg in
  let got = ref 0 in
  Link.set_rx b (fun _ -> incr got);
  Link.send a (Bytes.create 100);
  Link.send a (Bytes.create 101);
  let _ = Event_queue.run eq in
  check tint "only the fitting frame" 1 !got;
  check tint "drop counted" 1 (Link.dropped seg)

let test_link_broadcast_segment () =
  let eq = Event_queue.create () in
  let seg = Link.create_segment eq in
  let a = Link.attach seg and b = Link.attach seg and c = Link.attach seg in
  let got_b = ref 0 and got_c = ref 0 and got_a = ref 0 in
  Link.set_rx a (fun _ -> incr got_a);
  Link.set_rx b (fun _ -> incr got_b);
  Link.set_rx c (fun _ -> incr got_c);
  Link.send a (Bytes.create 10);
  let _ = Event_queue.run eq in
  check tint "b got it" 1 !got_b;
  check tint "c got it" 1 !got_c;
  check tint "no self delivery" 0 !got_a

let test_link_cut_mid_flight () =
  let eq = Event_queue.create () in
  let seg = Link.create_segment eq in
  let a = Link.attach seg and b = Link.attach seg in
  let got = ref 0 in
  Link.set_rx b (fun _ -> incr got);
  Link.send a (Bytes.create 10);
  Link.cut seg;
  let _ = Event_queue.run eq in
  check tint "frame in flight dropped by cut" 0 !got

let test_eq_run_until () =
  let eq = Event_queue.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Event_queue.schedule eq ~delay_ns:d (fun () -> fired := d :: !fired))
    [ 100L; 200L; 300L ];
  let n = Event_queue.run_until eq ~deadline:150L in
  check tint "one event before deadline" 1 n;
  check tbool "clock at deadline" true (Event_queue.now eq = 150L);
  check tint "later events still pending" 2 (Event_queue.pending eq);
  let n = Event_queue.run_until eq ~deadline:1_000L in
  check tint "rest processed" 2 n;
  check tbool "only up to deadline" true (List.rev !fired = [ 100L; 200L; 300L ]);
  check tbool "clock at second deadline" true (Event_queue.now eq = 1_000L)

(* A cancelled event never runs, never moves the clock and is not
   pending; a handle whose event already ran cancels nothing, not even the
   newer event that took over its slot. *)
let test_eq_cancel () =
  let eq = Event_queue.create () in
  let fired = ref [] in
  let at d = Event_queue.timer eq ~delay_ns:d (fun () -> fired := d :: !fired) in
  let a = at 100L and b = at 200L and c = at 300L in
  Event_queue.cancel eq c;
  check tint "the cancelled event is not pending" 2 (Event_queue.pending eq);
  check tint "only the live events ran" 2 (Event_queue.run eq);
  check (Alcotest.list Alcotest.int64) "in time order" [ 100L; 200L ] (List.rev !fired);
  check Alcotest.int64 "the clock stopped at the last live event" 200L (Event_queue.now eq);
  let d = at 50L in
  List.iter (Event_queue.cancel eq) [ a; b; c; Event_queue.no_timer ];
  check tint "stale handles cancel nothing" 1 (Event_queue.pending eq);
  ignore (Event_queue.run eq);
  check (Alcotest.list Alcotest.int64) "the newer event ran" [ 100L; 200L; 50L ] (List.rev !fired);
  Event_queue.cancel eq d;
  check tint "cancelling what ran does nothing" 0 (Event_queue.pending eq)

(* [run_while] stops as soon as the work it waits for is done, or at its
   deadline, leaving the clock at the last event it ran. *)
let test_eq_run_while () =
  let eq = Event_queue.create () in
  let fired = ref 0 in
  List.iter
    (fun d -> Event_queue.schedule eq ~delay_ns:d (fun () -> incr fired))
    [ 100L; 200L; 300L; 400L ];
  let n = Event_queue.run_while eq ~deadline:1_000L (fun () -> !fired < 2) in
  check tint "ran until the work was done" 2 n;
  check Alcotest.int64 "clock at the last event run" 200L (Event_queue.now eq);
  let n = Event_queue.run_while eq ~deadline:350L (fun () -> true) in
  check tint "never past the deadline" 1 n;
  check Alcotest.int64 "nor the clock" 300L (Event_queue.now eq);
  check tint "the rest still pending" 1 (Event_queue.pending eq)

let test_link_percause_counters () =
  let eq = Event_queue.create () in
  let seg = Link.create_segment ~mtu:100 eq in
  let a = Link.attach seg and b = Link.attach seg in
  let got = ref 0 in
  Link.set_rx b (fun _ -> incr got);
  Link.send a (Bytes.create 101);
  (* mtu drop *)
  Link.cut seg;
  Link.send a (Bytes.create 10);
  (* cut drop *)
  let _ = Event_queue.run eq in
  check tint "nothing delivered" 0 !got;
  check tint "mtu cause" 1 (Link.drop_count seg "mtu");
  check tint "cut cause" 1 (Link.drop_count seg "cut");
  check tint "no loss drops" 0 (Link.drop_count seg "loss");
  check tint "total is the sum" 2 (Link.dropped seg)

let test_link_seeded_loss () =
  let run seed =
    let eq = Event_queue.create () in
    let seg = Link.create_segment eq in
    let a = Link.attach seg and b = Link.attach seg in
    let got = ref 0 in
    Link.set_rx b (fun _ -> incr got);
    Link.set_seed seg seed;
    Link.set_loss seg 0.5;
    for _ = 1 to 200 do
      Link.send a (Bytes.create 10)
    done;
    let _ = Event_queue.run eq in
    (!got, Link.drop_count seg "loss")
  in
  let got, lost = run 7L in
  check tint "every frame accounted" 200 (got + lost);
  check tbool "some delivered" true (got > 0);
  check tbool "some lost" true (lost > 0);
  check tbool "same seed, same outcome" true (run 7L = (got, lost));
  check tbool "different seed, different outcome" true (run 8L <> (got, lost))

let test_link_corruption_dropped_by_crc () =
  let eq = Event_queue.create () in
  let seg = Link.create_segment eq in
  let a = Link.attach seg and b = Link.attach seg in
  let got = ref 0 in
  Link.set_rx b (fun _ -> incr got);
  Link.set_corrupt seg 1.0;
  Trace.with_trace (fun () ->
      Link.send a (Bytes.create 10);
      let _ = Event_queue.run eq in
      ());
  check tint "never delivered" 0 !got;
  check tint "counted as corrupt" 1 (Link.drop_count seg "corrupt");
  check tbool "drop traced" true
    (List.exists
       (fun e -> e.Trace.what = "drop" && e.Trace.port = "corrupt")
       (Trace.get ()))

let test_link_flap_schedule () =
  let eq = Event_queue.create () in
  let seg = Link.create_segment ~latency_ns:1L eq in
  let a = Link.attach seg and b = Link.attach seg in
  let got = ref 0 in
  Link.set_rx b (fun _ -> incr got);
  Link.flap seg ~cycles:2 ~first_down_ns:100L ~down_ns:100L ~up_ns:100L;
  (* up: 0-99, down: 100-199, up: 200-299, down: 300-399, up: 400- *)
  let send_at t expect =
    let _ = Event_queue.run_until eq ~deadline:t in
    check tbool (Printf.sprintf "cut state at %Ldns" t) expect (Link.is_cut seg);
    Link.send a (Bytes.create 10)
  in
  send_at 50L false;
  send_at 150L true;
  send_at 250L false;
  send_at 350L true;
  send_at 450L false;
  let _ = Event_queue.run eq in
  check tint "only the up-phase frames arrive" 3 !got;
  check tint "two flap cycles counted" 2 (Link.flaps seg);
  check tint "down-phase frames dropped as cut" 2 (Link.drop_count seg "cut")

let test_link_endpoint_ids_monotonic () =
  let eq = Event_queue.create () in
  let seg = Link.create_segment eq in
  let a = Link.attach seg in
  let b = Link.attach seg in
  Link.detach b;
  let c = Link.attach seg in
  check tbool "detached id never reused" true (Link.endpoint_id c <> Link.endpoint_id b);
  check tbool "distinct from the survivor" true (Link.endpoint_id c <> Link.endpoint_id a);
  let got_a = ref 0 and got_b = ref 0 and got_c = ref 0 in
  Link.set_rx a (fun _ -> incr got_a);
  Link.set_rx b (fun _ -> incr got_b);
  Link.set_rx c (fun _ -> incr got_c);
  Link.send a (Bytes.create 10);
  Link.send c (Bytes.create 10);
  let _ = Event_queue.run eq in
  check tint "a hears c" 1 !got_a;
  check tint "c hears a" 1 !got_c;
  check tint "detached endpoint hears nothing" 0 !got_b

(* --- counters and tracing -------------------------------------------------------- *)

let test_counters () =
  let c = Counters.create () in
  Counters.incr c (Counters.key "x");
  Counters.add c (Counters.key "x") 4;
  Counters.incr c (Counters.key "y");
  check tint "x" 5 (Counters.get c "x");
  check tint "missing" 0 (Counters.get c "z");
  check tint "two entries" 2 (List.length (Counters.to_list c));
  Counters.reset c;
  check tint "reset" 0 (Counters.get c "x")

let test_trace_captures_signatures () =
  let net = Net.create () in
  let mk name addr =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port d);
    Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx "10.0.0.0/24");
    d
  in
  let h1 = mk "h1" "10.0.0.1" and _h2 = mk "h2" "10.0.0.2" in
  let _ = Net.connect net (h1, 0) (_h2, 0) in
  Trace.with_trace (fun () ->
      check tbool "ping" true (Ping.reachable net ~from:h1 ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ()));
  let events = Trace.get () in
  check tbool "traced something" true (events <> []);
  check tbool "icmp seen" true
    (List.exists (fun e -> e.Trace.detail = "eth.ip.icmp") events);
  check tbool "arp seen" true (List.exists (fun e -> e.Trace.detail = "eth.arp") events)

let test_frame_signatures_layered () =
  let inner =
    Ipv4.encode
      (Ipv4.make ~proto:Ip_proto.Udp ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2") ())
      (Udp.encode ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2") { Udp.src_port = 1; dst_port = 2 }
         (Bytes.of_string "x"))
  in
  let mpls = Mpls.encode [ Mpls.entry 2001 ] inner in
  let frame =
    Ethernet.encode
      { Ethernet.dst = Mac_addr.broadcast; src = Mac_addr.make ~device:1 ~port:0; ethertype = Ethertype.Mpls_unicast }
      mpls
  in
  check tstr "mpls signature" "eth.mpls.ip.udp" (Frame.signature frame);
  let tagged =
    let tag = Bytes.create Vlan.size in
    Vlan.set tag 0 (Vlan.make ~vid:22 Ethertype.Ipv4);
    Ethernet.encode
      { Ethernet.dst = Mac_addr.broadcast; src = Mac_addr.make ~device:1 ~port:0; ethertype = Ethertype.Vlan }
      (Bytes.cat tag inner)
  in
  check tstr "vlan signature" "eth.vlan.ip.udp" (Frame.signature tagged)

(* --- ARP corner cases -------------------------------------------------------------- *)

let two_hosts () =
  let net = Net.create () in
  let mk name addr =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port d);
    Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx "10.0.0.0/24");
    d
  in
  let h1 = mk "h1" "10.0.0.1" and h2 = mk "h2" "10.0.0.2" in
  let _ = Net.connect net (h1, 0) (h2, 0) in
  (net, h1, h2)

let test_arp_cache_populated () =
  let net, h1, h2 = two_hosts () in
  check tbool "ping" true (Ping.reachable net ~from:h1 ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ());
  check tbool "h1 cached h2" true (Hashtbl.mem h1.Device.arp.Device.arp_cache (ip "10.0.0.2"));
  (* the request was broadcast, so h2 learnt h1 opportunistically *)
  check tbool "h2 learnt h1" true (Hashtbl.mem h2.Device.arp.Device.arp_cache (ip "10.0.0.1"))

let test_arp_no_reply_for_foreign_address () =
  let net, h1, _ = two_hosts () in
  (* h1 asks for an address nobody owns; the ping can never complete *)
  check tbool "no reply" false
    (Ping.reachable net ~from:h1 ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.99") ());
  check tbool "request went out" true (Counters.get h1.Device.dev_counters "arp_requests" > 0)

let test_proxy_arp_disabled_by_default () =
  let net, h1, h2 = two_hosts () in
  (* h2 routes 10.0.9.0/24 but proxy_arp is off: it must NOT answer for it *)
  Device.add_route h2
    { Device.rt_dst = pfx "10.0.9.0/24"; rt_via = None; rt_dev = Some "eth0"; rt_mpls = None };
  h2.Device.ip_forward <- true;
  Device.add_route h1
    { Device.rt_dst = pfx "10.0.9.0/24"; rt_via = None; rt_dev = Some "eth0"; rt_mpls = None };
  check tbool "no proxy reply" false
    (Ping.reachable net ~from:h1 ~src:(ip "10.0.0.1") ~dst:(ip "10.0.9.1") ())

(* --- ICMP time exceeded -------------------------------------------------------------- *)

let test_time_exceeded_reaches_sender () =
  let net = Net.create () in
  let h1 = Net.add_device net ~id:"id-h1" ~name:"h1" in
  ignore (Device.add_port h1);
  Device.add_addr h1 ~iface:"eth0" ~addr:(ip "10.0.1.2") ~prefix:(pfx "10.0.1.0/24");
  let r = Net.add_device net ~id:"id-r" ~name:"r" in
  ignore (Device.add_port r);
  ignore (Device.add_port r);
  r.Device.ip_forward <- true;
  Device.add_addr r ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r, 0) in
  Device.add_route h1
    { Device.rt_dst = pfx "0.0.0.0/0"; rt_via = Some (ip "10.0.1.1"); rt_dev = None; rt_mpls = None };
  let got_te = ref false in
  Device.add_icmp_waiter h1 (fun _ msg ->
      match msg with Icmp.Time_exceeded -> got_te := true | _ -> ());
  Datapath.ip_send h1
    (Ipv4.make ~ttl:1 ~proto:Ip_proto.Icmp ~src:(ip "10.0.1.2") ~dst:(ip "10.0.2.9") ())
    (Icmp.encode (Icmp.Echo_request { id = 1; seq = 1 }) Bytes.empty);
  let _ = Net.run net in
  check tbool "time-exceeded delivered to sender" true !got_te

(* --- UDP sockets ------------------------------------------------------------------------ *)

let test_udp_sockets () =
  let net, h1, h2 = two_hosts () in
  let got = ref None in
  Device.udp_bind h2 ~port:53 (fun ~src ~src_port data ->
      got := Some (Ipv4_addr.to_string src, src_port, Bytes.to_string data));
  Datapath.udp_send h1 ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:9999 ~dst_port:53
    (Bytes.of_string "query");
  let _ = Net.run net in
  check tbool "delivered" true (!got = Some ("10.0.0.1", 9999, "query"));
  (* unbound port: counted, not delivered *)
  Device.udp_unbind h2 ~port:53;
  Datapath.udp_send h1 ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ~src_port:9999 ~dst_port:53
    (Bytes.of_string "query2");
  let _ = Net.run net in
  check tbool "no-sock counted" true (Counters.get h2.Device.dev_counters "udp_no_sock" > 0)

(* --- routing internals -------------------------------------------------------------------- *)

let test_lpm_longest_prefix_wins () =
  let routes =
    [
      { Device.rt_dst = pfx "10.0.0.0/8"; rt_via = Some (ip "1.1.1.1"); rt_dev = None; rt_mpls = None };
      { Device.rt_dst = pfx "10.0.2.0/24"; rt_via = Some (ip "2.2.2.2"); rt_dev = None; rt_mpls = None };
      { Device.rt_dst = pfx "0.0.0.0/0"; rt_via = Some (ip "3.3.3.3"); rt_dev = None; rt_mpls = None };
    ]
  in
  (match Device.lpm routes (ip "10.0.2.7") with
  | r -> check tbool "most specific" true (r.Device.rt_via = Some (ip "2.2.2.2"))
  | exception Not_found -> Alcotest.fail "no route");
  match Device.lpm routes (ip "192.168.0.1") with
  | r -> check tbool "default" true (r.Device.rt_via = Some (ip "3.3.3.3"))
  | exception Not_found -> Alcotest.fail "no default"

let test_rule_priority_order () =
  let eq = Event_queue.create () in
  let d = Device.create ~eq ~id:"id-x" ~name:"x" () in
  ignore (Device.add_port ~name:"eth0" d);
  Device.register_table d "hi";
  Device.register_table d "lo";
  Device.add_route d ~table:"hi"
    { Device.rt_dst = pfx "0.0.0.0/0"; rt_via = None; rt_dev = Some "eth0"; rt_mpls = None };
  Device.add_route d ~table:"lo"
    { Device.rt_dst = pfx "0.0.0.0/0"; rt_via = None; rt_dev = Some "lo"; rt_mpls = None };
  Device.add_rule d { Device.rl_sel = Device.Match_all; rl_table = "lo"; rl_prio = 200 };
  Device.add_rule d { Device.rl_sel = Device.Match_all; rl_table = "hi"; rl_prio = 50 };
  match Device.lookup_route d ~in_iface:"" (ip "9.9.9.9") with
  | r -> check tbool "low prio number wins" true (r.Device.rt_dev = Some "eth0")
  | exception Not_found -> Alcotest.fail "no route"

let test_register_table_idempotent () =
  let eq = Event_queue.create () in
  let d = Device.create ~eq ~id:"id-x" ~name:"x" () in
  Device.register_table d "t";
  Device.register_table d "t";
  check tint "one entry" 1
    (List.length (List.filter (( = ) "t") d.Device.rt_table_names))

(* --- policy-table reclamation --------------------------------------------------------------- *)

let route ?via ?dev dst =
  { Device.rt_dst = pfx dst; rt_via = Option.map ip via; rt_dev = dev; rt_mpls = None }

(* A device with main routing 10.0.0.0/8 via 1.1.1.1 and policy table "t"
   sending 10.0.2.0/24 via 2.2.2.2, as the IP module installs it. *)
let policy_device () =
  let eq = Event_queue.create () in
  let d = Device.create ~eq ~id:"id-x" ~name:"x" () in
  ignore (Device.add_port ~name:"eth0" d);
  Device.add_route d (route ~via:"1.1.1.1" ~dev:"eth0" "10.0.0.0/8");
  Device.register_table d "t";
  Device.add_rule d
    { Device.rl_sel = Device.To_prefix (pfx "10.0.2.0/24"); rl_table = "t"; rl_prio = 100 };
  Device.add_route d ~table:"t" (route ~via:"2.2.2.2" ~dev:"eth0" "0.0.0.0/0");
  d

(* Whether [name] is a table and a registered table name. *)
let known d name = (List.mem_assoc name d.Device.tables, List.mem name d.Device.rt_table_names)

let del_rule_t d = Device.del_rule d (fun r -> r.Device.rl_table = "t")
let del_routes_t d = Device.del_routes d ~table:"t" (fun _ -> true)

let test_table_reclaimed () =
  List.iter
    (fun (first, second) ->
      let d = policy_device () in
      first d;
      check tbool "kept while a route or a rule uses it" true (known d "t" = (true, true));
      second d;
      check tbool "dropped once empty and unreferenced" true (known d "t" = (false, false)))
    [ (del_rule_t, del_routes_t); (del_routes_t, del_rule_t) ]

let test_table_kept_in_use () =
  let d = policy_device () in
  Device.add_route d ~table:"t" (route ~dev:"eth0" "10.0.3.0/24");
  Device.del_routes d ~table:"t" (fun r -> Prefix.equal r.Device.rt_dst (pfx "0.0.0.0/0"));
  check tbool "a route left" true (known d "t" = (true, true));
  Device.add_rule d { Device.rl_sel = Device.Match_all; rl_table = "t"; rl_prio = 50 };
  Device.del_routes d ~table:"t" (fun _ -> true);
  Device.del_rule d (fun r -> r.Device.rl_sel = Device.Match_all);
  check tbool "another rule still names it" true (known d "t" = (true, true))

let test_main_never_reclaimed () =
  let d = policy_device () in
  Device.add_rule d { Device.rl_sel = Device.Match_all; rl_table = "main"; rl_prio = 300 };
  Device.del_routes d (fun _ -> true);
  Device.del_rule d (fun r -> r.Device.rl_table = "main");
  check tbool "main stays" true (known d "main" = (true, true));
  check tbool "main empty" true (!(Device.table_exn d "main") = [])

let test_reclaimed_table_recreated () =
  let d = policy_device () in
  del_rule_t d;
  del_routes_t d;
  Device.add_route d ~table:"t" (route ~via:"3.3.3.3" ~dev:"eth0" "0.0.0.0/0");
  check tbool "recreated" true (known d "t" = (true, true));
  Device.add_rule d
    { Device.rl_sel = Device.To_prefix (pfx "10.0.2.0/24"); rl_table = "t"; rl_prio = 100 };
  match Device.lookup_route d ~in_iface:"" (ip "10.0.2.7") with
  | r -> check tbool "routes through it" true (r.Device.rt_via = Some (ip "3.3.3.3"))
  | exception Not_found -> Alcotest.fail "no route"

let test_lookup_unchanged_by_reclaim () =
  let via d =
    match Device.lookup_route d ~in_iface:"" (ip "10.0.2.7") with
    | r -> Some r.Device.rt_via
    | exception Not_found -> None
  in
  let d = policy_device () in
  check tbool "policy route first" true (via d = Some (Some (ip "2.2.2.2")));
  del_routes_t d;
  let before = via d in
  check tbool "empty table falls through to main" true (before = Some (Some (ip "1.1.1.1")));
  del_rule_t d;
  check tbool "dropped" true (known d "t" = (false, false));
  check tbool "same answer after the drop" true (via d = before);
  (* a rule naming the forgotten table reads it as empty *)
  Device.add_rule d { Device.rl_sel = Device.Match_all; rl_table = "t"; rl_prio = 10 };
  check tbool "missing table reads as empty" true (via d = before)

(* --- tunnel validation --------------------------------------------------------------------- *)

let test_gre_checksum_required () =
  (* receiver demands checksums (icsum); sender does not add them: drop *)
  let net = Net.create () in
  let mk name addr =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port d);
    Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx "192.168.0.0/30");
    Device.load_module d "ip_gre";
    d.Device.ip_forward <- true;
    d
  in
  let r1 = mk "r1" "192.168.0.1" and r2 = mk "r2" "192.168.0.2" in
  let _ = Net.connect net (r1, 0) (r2, 0) in
  let t1 =
    Device.add_tunnel r1 ~name:"g" ~mode:Device.Gre_mode ~local:(ip "192.168.0.1")
      ~remote:(ip "192.168.0.2") ()
  in
  let t2 =
    Device.add_tunnel r2 ~name:"g" ~mode:Device.Gre_mode ~local:(ip "192.168.0.2")
      ~remote:(ip "192.168.0.1") ()
  in
  t1.Device.if_up <- true;
  t2.Device.if_up <- true;
  (match t2.Device.if_kind with
  | Device.Tun t -> t.Device.t_icsum <- true
  | _ -> assert false);
  Device.add_addr r1 ~iface:"g" ~addr:(ip "172.16.0.1") ~prefix:(pfx "172.16.0.0/30");
  Device.add_addr r2 ~iface:"g" ~addr:(ip "172.16.0.2") ~prefix:(pfx "172.16.0.0/30");
  check tbool "dropped for missing checksum" false
    (Ping.reachable net ~from:r1 ~src:(ip "172.16.0.1") ~dst:(ip "172.16.0.2") ());
  check tbool "drop counted" true (Counters.get r2.Device.dev_counters "gre_check_drop" > 0)

let test_gre_inner_addresses_ping () =
  (* the classic `ifconfig greA 192.168.3.1` test: tunnel endpoints ping
     each other over the tunnel's inner addresses *)
  let net = Net.create () in
  let mk name addr =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port d);
    Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx "192.168.0.0/30");
    Device.load_module d "ip_gre";
    d
  in
  let r1 = mk "r1" "192.168.0.1" and r2 = mk "r2" "192.168.0.2" in
  let _ = Net.connect net (r1, 0) (r2, 0) in
  List.iter
    (fun (d, l, r) ->
      let t = Device.add_tunnel d ~name:"greA" ~mode:Device.Gre_mode ~local:(ip l) ~remote:(ip r) () in
      t.Device.if_up <- true;
      Device.add_addr d ~iface:"greA"
        ~addr:(ip (if l = "192.168.0.1" then "192.168.3.1" else "192.168.3.2"))
        ~prefix:(pfx "192.168.3.0/24"))
    [ (r1, "192.168.0.1", "192.168.0.2"); (r2, "192.168.0.2", "192.168.0.1") ];
  check tbool "inner ping over the tunnel" true
    (Ping.reachable net ~from:r1 ~src:(ip "192.168.3.1") ~dst:(ip "192.168.3.2") ())

(* --- malformed frames stay inside the datapath ---------------------------------------------- *)

(* A GRE header whose flags announce a key the packet is too short to hold
   is dropped and counted; nothing escapes the event loop. *)
let test_gre_header_shorter_than_its_flags () =
  let net = Net.create () in
  let mk name addr =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port d);
    Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx "192.168.0.0/30");
    d
  in
  let r1 = mk "r1" "192.168.0.1" and r2 = mk "r2" "192.168.0.2" in
  let _ = Net.connect net (r1, 0) (r2, 0) in
  let t =
    Device.add_tunnel r2 ~name:"g" ~mode:Device.Gre_mode ~local:(ip "192.168.0.2")
      ~remote:(ip "192.168.0.1") ()
  in
  t.Device.if_up <- true;
  let gre = Bytes.create 4 in
  Bytes.set_uint16_be gre 0 0x2000 (* key present *);
  Bytes.set_uint16_be gre 2 (Ethertype.to_int Ethertype.Ipv4);
  Datapath.ip_send r1
    (Ipv4.make ~proto:Ip_proto.Gre ~src:(ip "192.168.0.1") ~dst:(ip "192.168.0.2") ())
    gre;
  ignore (Net.run net);
  check tint "dropped as bad" 1 (Counters.get r2.Device.dev_counters "gre_bad_drop");
  check tint "tunnel rx error" 1 (Counters.get t.Device.if_counters "rx_errors")

(* A frame whose 802.1Q ethertype promises a tag it is too short to hold
   is dropped at the switch's trunk port and not forwarded. *)
let test_tagged_frame_shorter_than_its_tag () =
  let net = Net.create () in
  let sw = Net.add_device net ~switching:true ~id:"id-sw" ~name:"sw" in
  ignore (Device.add_port sw);
  ignore (Device.add_port sw);
  List.iter
    (fun i -> (Device.port sw i).Device.port_mode <- Device.Trunk { allowed = []; native = None })
    [ 0; 1 ];
  let h = Net.add_device net ~id:"id-h" ~name:"h" in
  ignore (Device.add_port h);
  let _ = Net.connect net (h, 0) (sw, 0) in
  let frame = Bytes.make (Ethernet.header_size + 2) '\000' in
  Ethernet.set frame ~dst:Mac_addr.broadcast ~src:(Device.port h 0).Device.port_mac Ethertype.Vlan;
  Datapath.transmit h 0 frame;
  ignore (Net.run net);
  check tint "dropped" 1 (Counters.get (Device.port sw 0).Device.port_counters "rx_vlan_drop");
  check tint "not forwarded" 0 (Counters.get (Device.port sw 1).Device.port_counters "tx_frames")

let () =
  Alcotest.run "netsim_unit"
    [
      ( "event-queue",
        [
          Alcotest.test_case "fifo at same time" `Quick test_eq_fifo_at_same_time;
          Alcotest.test_case "time ordering" `Quick test_eq_time_ordering;
          Alcotest.test_case "budget guard" `Quick test_eq_budget;
          Alcotest.test_case "negative delay" `Quick test_eq_negative_delay_rejected;
          Alcotest.test_case "run until deadline" `Quick test_eq_run_until;
          Alcotest.test_case "cancel" `Quick test_eq_cancel;
          Alcotest.test_case "run while busy" `Quick test_eq_run_while;
          QCheck_alcotest.to_alcotest prop_eq_matches_reference;
        ] );
      ( "links",
        [
          Alcotest.test_case "mtu drop" `Quick test_link_mtu_drop;
          Alcotest.test_case "broadcast segment" `Quick test_link_broadcast_segment;
          Alcotest.test_case "cut mid flight" `Quick test_link_cut_mid_flight;
          Alcotest.test_case "per-cause drop counters" `Quick test_link_percause_counters;
          Alcotest.test_case "seeded loss" `Quick test_link_seeded_loss;
          Alcotest.test_case "corruption drops at crc" `Quick test_link_corruption_dropped_by_crc;
          Alcotest.test_case "scheduled flapping" `Quick test_link_flap_schedule;
          Alcotest.test_case "monotonic endpoint ids" `Quick test_link_endpoint_ids_monotonic;
        ] );
      ( "observability",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "trace signatures" `Quick test_trace_captures_signatures;
          Alcotest.test_case "frame signatures" `Quick test_frame_signatures_layered;
        ] );
      ( "arp",
        [
          Alcotest.test_case "cache population" `Quick test_arp_cache_populated;
          Alcotest.test_case "foreign address" `Quick test_arp_no_reply_for_foreign_address;
          Alcotest.test_case "proxy off by default" `Quick test_proxy_arp_disabled_by_default;
        ] );
      ( "icmp",
        [ Alcotest.test_case "time exceeded" `Quick test_time_exceeded_reaches_sender ] );
      ("udp", [ Alcotest.test_case "sockets" `Quick test_udp_sockets ]);
      ( "routing",
        [
          Alcotest.test_case "lpm" `Quick test_lpm_longest_prefix_wins;
          Alcotest.test_case "rule priority" `Quick test_rule_priority_order;
          Alcotest.test_case "table idempotence" `Quick test_register_table_idempotent;
          Alcotest.test_case "reclaim, either order" `Quick test_table_reclaimed;
          Alcotest.test_case "reclaim keeps tables in use" `Quick test_table_kept_in_use;
          Alcotest.test_case "reclaim spares main" `Quick test_main_never_reclaimed;
          Alcotest.test_case "reclaimed table recreated" `Quick test_reclaimed_table_recreated;
          Alcotest.test_case "reclaim keeps lookups" `Quick test_lookup_unchanged_by_reclaim;
        ] );
      ( "tunnels",
        [
          Alcotest.test_case "gre checksum required" `Quick test_gre_checksum_required;
          Alcotest.test_case "gre inner addresses" `Quick test_gre_inner_addresses_ping;
        ] );
      ( "malformed",
        [
          Alcotest.test_case "gre header shorter than its flags" `Quick
            test_gre_header_shorter_than_its_flags;
          Alcotest.test_case "tagged frame shorter than its tag" `Quick
            test_tagged_frame_shorter_than_its_tag;
        ] );
    ]
