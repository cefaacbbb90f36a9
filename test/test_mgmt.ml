(* Tests for the management channel: frame codec, out-of-band delivery, and
   the 4D-style raw flooding channel (which must work with zero data-plane
   configuration, across switches and routers, and terminate on loops). *)

open Netsim
open Mgmt

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* Every send below states class 2 (interrogation): the payloads are not
   wire messages, and Reliable's pending cap never sheds class 2. *)

let test_frame_roundtrip () =
  let f =
    { Frame.src_device = "id-A"; dst_device = "id-NM"; seq = 42; payload = Bytes.of_string "hi" }
  in
  check tbool "roundtrip" true (Frame.equal f (Frame.decode (Frame.encode f) 0))

let test_frame_broadcast_roundtrip () =
  let f =
    { Frame.src_device = "x"; dst_device = Frame.broadcast; seq = 0; payload = Bytes.empty }
  in
  check tbool "roundtrip" true (Frame.equal f (Frame.decode (Frame.encode f) 0))

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame roundtrip" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* src = string_size (int_bound 20)
         and* dst = string_size (int_bound 20)
         and* seq = int_bound 100000
         and* payload = map Bytes.of_string (string_size (int_bound 200)) in
         return (src, dst, seq, payload)))
    (fun (src_device, dst_device, seq, payload) ->
      let f = { Frame.src_device; dst_device; seq; payload } in
      Frame.equal f (Frame.decode (Frame.encode f) 0))

let test_oob_unicast_and_broadcast () =
  let eq = Event_queue.create () in
  let chan = Channel.Oob.create eq in
  let got_a = ref [] and got_b = ref [] in
  Channel.subscribe chan ~device_id:"a" (fun ~src p -> got_a := (src, Bytes.to_string p) :: !got_a);
  Channel.subscribe chan ~device_id:"b" (fun ~src p -> got_b := (src, Bytes.to_string p) :: !got_b);
  Channel.send chan ~cls:2 ~src:"a" ~dst:"b" (Bytes.of_string "hello");
  Channel.send chan ~cls:2 ~src:"b" ~dst:Frame.broadcast (Bytes.of_string "all");
  let _ = Event_queue.run eq in
  check tbool "b got unicast" true (List.mem ("a", "hello") !got_b);
  check tbool "a got broadcast" true (List.mem ("b", "all") !got_a);
  check tbool "b did not self-deliver" false (List.mem ("b", "all") !got_b)

(* Line topology: h1 - sw - r - h2, where sw is a switch and r a router with
   NO configuration at all. The raw channel must still deliver h1 -> h2. *)
let raw_line () =
  let net = Net.create () in
  let chan, attach = Channel.Raw.create () in
  let h1 = Net.add_device net ~id:"id-h1" ~name:"h1" in
  ignore (Device.add_port h1);
  let sw = Net.add_device net ~switching:true ~id:"id-sw" ~name:"sw" in
  ignore (Device.add_port sw);
  ignore (Device.add_port sw);
  let r = Net.add_device net ~id:"id-r" ~name:"r" in
  ignore (Device.add_port r);
  ignore (Device.add_port r);
  let h2 = Net.add_device net ~id:"id-h2" ~name:"h2" in
  ignore (Device.add_port h2);
  let _ = Net.connect net (h1, 0) (sw, 0) in
  let _ = Net.connect net (sw, 1) (r, 0) in
  let _ = Net.connect net (r, 1) (h2, 0) in
  List.iter attach [ h1; sw; r; h2 ];
  (net, chan, h1, h2)

let test_raw_flooding_delivery () =
  let net, chan, _, _ = raw_line () in
  let got = ref None in
  Channel.subscribe chan ~device_id:"id-h2" (fun ~src p -> got := Some (src, Bytes.to_string p));
  Channel.send chan ~cls:2 ~src:"id-h1" ~dst:"id-h2" (Bytes.of_string "showPotential");
  let _ = Net.run net in
  check tbool "delivered without any configuration" true (!got = Some ("id-h1", "showPotential"))

let test_raw_broadcast_reaches_all () =
  let net, chan, _, _ = raw_line () in
  let seen = ref [] in
  List.iter
    (fun id -> Channel.subscribe chan ~device_id:id (fun ~src:_ _ -> seen := id :: !seen))
    [ "id-h1"; "id-sw"; "id-r"; "id-h2" ];
  Channel.send chan ~cls:2 ~src:"id-h1" ~dst:Frame.broadcast (Bytes.of_string "hello-nm");
  let _ = Net.run net in
  List.iter
    (fun id -> check tbool (id ^ " saw broadcast") true (List.mem id !seen))
    [ "id-sw"; "id-r"; "id-h2" ];
  check tbool "source did not self-deliver" false (List.mem "id-h1" !seen)

let test_raw_loop_terminates () =
  (* Ring of three devices: flooding with per-source dedup must terminate. *)
  let net = Net.create () in
  let chan, attach = Channel.Raw.create () in
  let mk name =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port d);
    ignore (Device.add_port d);
    d
  in
  let a = mk "a" and b = mk "b" and c = mk "c" in
  let _ = Net.connect net (a, 1) (b, 0) in
  let _ = Net.connect net (b, 1) (c, 0) in
  let _ = Net.connect net (c, 1) (a, 0) in
  List.iter attach [ a; b; c ];
  let got = ref 0 in
  Channel.subscribe chan ~device_id:"id-c" (fun ~src:_ _ -> incr got);
  Channel.send chan ~cls:2 ~src:"id-a" ~dst:"id-c" (Bytes.of_string "x");
  let events = Net.run ~max_events:100_000 net in
  check tbool "terminated" true (events < 100_000);
  check tint "delivered exactly once" 1 !got

let test_raw_independent_of_data_plane () =
  (* Flooding still works when IP forwarding is off everywhere and no
     addresses exist — the channel the NM bootstraps from. *)
  let net, chan, h1, _ = raw_line () in
  check tint "no addresses" 0 (List.length (Device.local_addrs h1) - 1);
  let got = ref false in
  Channel.subscribe chan ~device_id:"id-h2" (fun ~src:_ _ -> got := true);
  Channel.send chan ~cls:2 ~src:"id-h1" ~dst:"id-h2" (Bytes.of_string "boot");
  let _ = Net.run net in
  check tbool "delivered" true !got

let test_raw_stats_count () =
  let net, chan, _, _ = raw_line () in
  Channel.subscribe chan ~device_id:"id-h2" (fun ~src:_ _ -> ());
  Channel.send chan ~cls:2 ~src:"id-h1" ~dst:"id-h2" (Bytes.of_string "m");
  let _ = Net.run net in
  check tint "sent" 1 (Channel.stats chan).Channel.frames_sent;
  check tint "delivered" 1 (Channel.stats chan).Channel.frames_delivered

(* flooding delivers on arbitrary random tree topologies with mixed
   switches and routers, all unconfigured *)
let prop_raw_delivery_on_random_trees =
  QCheck.Test.make ~name:"raw channel delivers across random trees" ~count:30
    (QCheck.make
       ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
       QCheck.Gen.(pair (int_range 2 10) (int_bound 1000)))
    (fun (n, seed) ->
      let net = Net.create () in
      let chan, attach = Channel.Raw.create () in
      let devs =
        Array.init n (fun i ->
            let switching = (seed + i) mod 3 = 0 in
            let d =
              Net.add_device net ~switching ~id:(Printf.sprintf "id-%d" i)
                ~name:(Printf.sprintf "d%d" i)
            in
            (* enough ports for a tree plus slack *)
            for _ = 0 to n do
              ignore (Device.add_port d)
            done;
            d)
      in
      (* deterministic pseudo-random tree: node i attaches to some j < i *)
      let next_port = Array.make n 0 in
      for i = 1 to n - 1 do
        let parent = (seed * (i + 7)) mod i in
        let pp = next_port.(parent) in
        next_port.(parent) <- pp + 1;
        let pi = next_port.(i) in
        next_port.(i) <- pi + 1;
        ignore (Net.connect net (devs.(parent), pp) (devs.(i), pi))
      done;
      Array.iter attach devs;
      let got = ref false in
      Channel.subscribe chan
        ~device_id:(Printf.sprintf "id-%d" (n - 1))
        (fun ~src:_ _ -> got := true);
      Channel.send chan ~cls:2 ~src:"id-0" ~dst:(Printf.sprintf "id-%d" (n - 1))
        (Bytes.of_string "m");
      let events = Net.run ~max_events:1_000_000 net in
      events < 1_000_000 && !got)

(* --- sliding-window suppression state ------------------------------------ *)

let test_raw_seen_window_bounded () =
  (* With a tiny window, the per-source suppression table must evict old
     sequence numbers instead of growing with every frame sent. *)
  let net = Net.create () in
  let chan, attach = Channel.Raw.create ~window:8 () in
  let mk name =
    let d = Net.add_device net ~id:("id-" ^ name) ~name in
    ignore (Device.add_port d);
    d
  in
  let a = mk "a" and b = mk "b" in
  let _ = Net.connect net (a, 0) (b, 0) in
  List.iter attach [ a; b ];
  let got = ref 0 in
  Channel.subscribe chan ~device_id:"id-b" (fun ~src:_ _ -> incr got);
  for i = 1 to 100 do
    Channel.send chan ~cls:2 ~src:"id-a" ~dst:"id-b" (Bytes.of_string (string_of_int i));
    ignore (Net.run net)
  done;
  check tint "all delivered" 100 !got;
  check tbool
    (Printf.sprintf "seen table bounded by window (high water %d <= 8)"
       (Channel.stats chan).Channel.seen_high_water)
    true
    ((Channel.stats chan).Channel.seen_high_water <= 8)

let test_raw_unknown_source_drops () =
  (* A send from a device that is not attached (e.g. crashed mid-flight)
     must not raise — it is dropped and counted. *)
  let _, chan, _, _ = raw_line () in
  Channel.send chan ~cls:2 ~src:"id-ghost" ~dst:"id-h2" (Bytes.of_string "boo");
  check tint "dropped, not raised" 1 (Channel.stats chan).Channel.frames_dropped

(* --- fault injection ------------------------------------------------------ *)

(* One lossy Oob run: [n] unicasts under [drop] probability; returns
   (delivered count, fault counters). *)
let lossy_oob_run ~seed ~drop n =
  let eq = Event_queue.create () in
  let base = Channel.Oob.create eq in
  let chan, faults = Faults.wrap ~seed ~eq base in
  Faults.set_drop faults drop;
  let got = ref 0 in
  Channel.subscribe chan ~device_id:"b" (fun ~src:_ _ -> incr got);
  for i = 1 to n do
    Channel.send chan ~cls:2 ~src:"a" ~dst:"b" (Bytes.of_string (string_of_int i))
  done;
  let _ = Event_queue.run eq in
  (!got, Faults.counters faults)

let test_faults_drop_and_determinism () =
  let got1, c1 = lossy_oob_run ~seed:7 ~drop:0.3 1000 in
  let got2, c2 = lossy_oob_run ~seed:7 ~drop:0.3 1000 in
  check tbool "some frames dropped" true (c1.Faults.dropped > 0);
  check tbool "some frames survived" true (got1 > 0);
  check tint "same seed => same delivery" got1 got2;
  check tint "same seed => same drop count" c1.Faults.dropped c2.Faults.dropped;
  let got3, c3 = lossy_oob_run ~seed:8 ~drop:0.3 1000 in
  check tbool "different seed => different faults" true
    (got3 <> got1 || c3.Faults.dropped <> c1.Faults.dropped)

let test_faults_crash_blocks_both_ways () =
  let eq = Event_queue.create () in
  let chan, faults = Faults.wrap ~seed:1 ~eq (Channel.Oob.create eq) in
  let got = ref 0 in
  Channel.subscribe chan ~device_id:"b" (fun ~src:_ _ -> incr got);
  Faults.crash faults "b";
  Channel.send chan ~cls:2 ~src:"a" ~dst:"b" (Bytes.of_string "to-dead");
  Channel.send chan ~cls:2 ~src:"b" ~dst:"a" (Bytes.of_string "from-dead");
  let _ = Event_queue.run eq in
  check tint "nothing through a crashed endpoint" 0 !got;
  check tint "both counted" 2 (Faults.counters faults).Faults.crash_drops;
  Faults.restart faults "b";
  Channel.send chan ~cls:2 ~src:"a" ~dst:"b" (Bytes.of_string "alive");
  let _ = Event_queue.run eq in
  check tint "delivery resumes after restart" 1 !got

(* --- reliable delivery over a lossy channel ------------------------------- *)

let test_reliable_over_lossy_channel () =
  let eq = Event_queue.create () in
  let faulty, faults = Faults.wrap ~seed:3 ~eq (Channel.Oob.create eq) in
  Faults.set_drop faults 0.3;
  Faults.set_duplicate faults 0.2;
  let chan, rel = Reliable.create ~eq faulty in
  let got = ref [] in
  (* the sender endpoint must be subscribed too: acks come back to it *)
  Channel.subscribe chan ~device_id:"a" (fun ~src:_ _ -> ());
  Channel.subscribe chan ~device_id:"b" (fun ~src:_ p -> got := Bytes.to_string p :: !got);
  for i = 1 to 200 do
    Channel.send chan ~cls:2 ~src:"a" ~dst:"b" (Bytes.of_string (string_of_int i))
  done;
  let _ = Event_queue.run eq in
  let c = Reliable.counters rel in
  check tint "every payload delivered despite 30% loss" 200 (List.length !got);
  check tint "exactly once each" 200 (List.sort_uniq compare !got |> List.length);
  check tbool "losses were retransmitted" true (c.Reliable.retransmits > 0);
  check tbool "duplicates were suppressed" true (c.Reliable.duplicates > 0);
  check tint "nothing abandoned" 0 c.Reliable.gave_up;
  check tint "no unacked residue" 0 (Reliable.in_flight rel)

let test_reliable_gives_up_on_dead_destination () =
  let eq = Event_queue.create () in
  let faulty, faults = Faults.wrap ~seed:3 ~eq (Channel.Oob.create eq) in
  let chan, rel = Reliable.create ~eq faulty in
  Channel.subscribe chan ~device_id:"a" (fun ~src:_ _ -> ());
  Channel.subscribe chan ~device_id:"b" (fun ~src:_ _ -> ());
  let abandoned = ref [] in
  Reliable.on_give_up rel (fun ~src ~dst -> abandoned := (src, dst) :: !abandoned);
  Faults.crash faults "b";
  Channel.send chan ~cls:2 ~src:"a" ~dst:"b" (Bytes.of_string "anyone there?");
  let _ = Event_queue.run eq in
  check tint "retried the full budget" Reliable.default_config.Reliable.max_retries
    (Reliable.counters rel).Reliable.retransmits;
  check tbool "give-up listener told" true (List.mem ("a", "b") !abandoned);
  check tint "pending cleaned up" 0 (Reliable.in_flight rel)

(* Reliable's bookkeeping under 30% loss, duplication, jitter, cancels and
   give-ups, checked after every send, cancel and event: each link's count
   equals its unacked frames and [in_flight] is their sum. Every send that
   crosses the cap (4 per link here) must shed the frame a fold over all
   pending frames picks: the lowest-seq class-3 frame on that link that no
   cancel voided — the new frame itself when nothing older qualifies. *)
let test_reliable_bookkeeping () =
  let eq = Event_queue.create () in
  let faulty, faults = Faults.wrap ~seed:11 ~eq (Channel.Oob.create eq) in
  Faults.set_drop faults 0.3;
  Faults.set_duplicate faults 0.2;
  Faults.set_jitter faults 3_000L;
  let cap = 4 in
  let config =
    { Reliable.default_config with Reliable.max_retries = 3; max_pending_per_dst = cap }
  in
  let chan, rel = Reliable.create ~config ~eq faulty in
  let shed = ref [] in
  Reliable.set_observer rel (fun payload event ->
      if event = "transport-shed" then shed := Bytes.to_string payload :: !shed);
  let live = [ "nm"; "a"; "b" ] in
  List.iter (fun id -> Channel.subscribe chan ~device_id:id (fun ~src:_ _ -> ())) live;
  (* "dead" never subscribes: nothing sent to it is ever acked *)
  let stations = Array.of_list ("dead" :: live) in
  let audit () =
    let links = Reliable.links rel in
    List.iter
      (fun (src, dst, count, frames) ->
        let where = Printf.sprintf "%s->%s" src dst in
        check tint (where ^ " count") (List.length frames) count;
        let seqs = List.map (fun f -> f.Reliable.seq) frames in
        check (Alcotest.list tint) (where ^ " oldest first") (List.sort_uniq compare seqs) seqs)
      links;
    check tint "in_flight is the sum" (List.fold_left (fun acc (_, _, n, _) -> acc + n) 0 links)
      (Reliable.in_flight rel)
  in
  let reference_victim ~src ~dst ~cls payload =
    let all =
      List.concat_map (fun (s, d, _, fs) -> List.map (fun f -> (s, d, f)) fs) (Reliable.links rel)
    in
    let on_link = List.filter (fun (s, d, _) -> s = src && d = dst) all in
    let oldest =
      List.fold_left
        (fun acc (s, d, f) ->
          if s = src && d = dst && f.Reliable.cls >= 3 && Bytes.length f.Reliable.payload > 0 then
            match acc with Some g when g.Reliable.seq <= f.Reliable.seq -> acc | _ -> Some f
          else acc)
        None all
    in
    if List.length on_link + 1 <= cap then []
    else
      match oldest with
      | Some f -> [ Bytes.to_string f.Reliable.payload ]
      | None -> if cls >= 3 then [ payload ] else []
  in
  let rng = Random.State.make [| 5 |] in
  let sent = ref [] and cancelled = ref 0 in
  for i = 1 to 3000 do
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        let src = stations.(1 + Random.State.int rng 3) in
        let dst = stations.(Random.State.int rng 4) in
        if src <> dst then begin
          let cls = 1 + Random.State.int rng 3 and payload = Printf.sprintf "f%d" i in
          let expected = reference_victim ~src ~dst ~cls payload in
          shed := [];
          Channel.send chan ~cls ~src ~dst (Bytes.of_string payload);
          check (Alcotest.list Alcotest.string) "the cap's victim" expected !shed;
          sent := (src, dst, payload) :: !sent
        end
    | 4 -> (
        match !sent with
        | [] -> ()
        | l ->
            let src, dst, payload = List.nth l (Random.State.int rng (min 8 (List.length l))) in
            cancelled := !cancelled + Reliable.cancel rel ~src ~dst (Bytes.of_string payload))
    | _ -> (
        try ignore (Event_queue.run ~max_events:1 eq) with Event_queue.Budget_exhausted -> ()));
    audit ()
  done;
  let _ = Event_queue.run eq in
  audit ();
  let c = Reliable.counters rel in
  check tint "nothing left in flight" 0 (Reliable.in_flight rel);
  check tbool "frames were shed at the cap" true (c.Reliable.pending_shed > 0);
  check tbool "sends were given up" true (c.Reliable.gave_up > 0);
  check tbool "duplicates were suppressed" true (c.Reliable.duplicates > 0);
  check tbool "sends were cancelled" true (!cancelled > 0)

(* Out-of-band delivery (2 us a hop) that loses the frames sent [n]th
   (counting from 1) on the way down. *)
let losing eq lost =
  let inner = Channel.Oob.create eq in
  let sent = ref 0 in
  Channel.make
    ~send:(fun ~cls ~src ~dst b ->
      incr sent;
      if not (List.mem !sent lost) then Channel.send inner ~cls ~src ~dst b)
    ~subscribe:(fun id h -> Channel.subscribe inner ~device_id:id h)
    ~stats:(Channel.stats inner)

(* A request and its reply over a lossless channel: once the last ack is
   in, no retransmit timer is left queued, so the exchange ends at its
   round trips (6 us), not at a stale timer 1 ms later. *)
let test_reliable_exchange_leaves_no_event () =
  let eq = Event_queue.create () in
  let chan, rel = Reliable.create ~eq (losing eq []) in
  Channel.subscribe chan ~device_id:"a" (fun ~src:_ _ -> ());
  Channel.subscribe chan ~device_id:"b" (fun ~src p ->
      Channel.send chan ~cls:2 ~src:"b" ~dst:src (Bytes.cat p (Bytes.of_string "!")));
  Channel.send chan ~cls:2 ~src:"a" ~dst:"b" (Bytes.of_string "request");
  ignore (Event_queue.run_while eq ~deadline:Int64.max_int (fun () -> Reliable.in_flight rel > 0));
  check tint "no event left queued" 0 (Event_queue.pending eq);
  check Alcotest.int64 "the exchange took its round trips" 6_000L (Event_queue.now eq)

(* The request's first copy is lost: its retry 1 ms later is acked, and
   the ack cancels the retry's own timer. *)
let test_reliable_retried_frame_leaves_no_event () =
  let eq = Event_queue.create () in
  let chan, rel = Reliable.create ~eq (losing eq [ 1 ]) in
  let got = ref 0 in
  Channel.subscribe chan ~device_id:"a" (fun ~src:_ _ -> ());
  Channel.subscribe chan ~device_id:"b" (fun ~src:_ _ -> incr got);
  Channel.send chan ~cls:2 ~src:"a" ~dst:"b" (Bytes.of_string "request");
  ignore (Event_queue.run eq);
  check tint "delivered once" 1 !got;
  check tint "retried once" 1 (Reliable.counters rel).Reliable.retransmits;
  check Alcotest.int64 "nothing ran after the retry's ack" 1_004_000L (Event_queue.now eq)

(* Frame 1's first copy is lost, so frame 2 is held back behind the hole
   and the link arms its 50 ms gap flush. Frame 1's retry fills the hole
   and cancels the flush: nothing runs after its ack, and nothing is
   skipped. *)
let test_reliable_filled_hole_cancels_flush () =
  let eq = Event_queue.create () in
  let chan, rel = Reliable.create ~eq (losing eq [ 1 ]) in
  let got = ref [] in
  Channel.subscribe chan ~device_id:"a" (fun ~src:_ _ -> ());
  Channel.subscribe chan ~device_id:"b" (fun ~src:_ p -> got := Bytes.to_string p :: !got);
  List.iter
    (fun p -> Channel.send chan ~cls:2 ~src:"a" ~dst:"b" (Bytes.of_string p))
    [ "first"; "second" ];
  ignore (Event_queue.run_until eq ~deadline:10_000L);
  let c = Reliable.counters rel in
  check tint "the second frame waits behind the hole" 1 c.Reliable.held_back;
  check tint "a retry and a gap flush queued" 2 (Event_queue.pending eq);
  ignore (Event_queue.run eq);
  check (Alcotest.list Alcotest.string) "delivered in order" [ "first"; "second" ] (List.rev !got);
  check tint "no gap skipped" 0 c.Reliable.gap_skips;
  check Alcotest.int64 "the flush was cancelled" 1_004_000L (Event_queue.now eq)

let () =
  Alcotest.run "mgmt"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "broadcast roundtrip" `Quick test_frame_broadcast_roundtrip;
          QCheck_alcotest.to_alcotest prop_frame_roundtrip;
        ] );
      ( "oob",
        [ Alcotest.test_case "unicast + broadcast" `Quick test_oob_unicast_and_broadcast ] );
      ( "raw",
        [
          Alcotest.test_case "flooding delivery" `Quick test_raw_flooding_delivery;
          Alcotest.test_case "broadcast reaches all" `Quick test_raw_broadcast_reaches_all;
          Alcotest.test_case "loops terminate" `Quick test_raw_loop_terminates;
          Alcotest.test_case "independent of data plane" `Quick test_raw_independent_of_data_plane;
          Alcotest.test_case "stats" `Quick test_raw_stats_count;
          Alcotest.test_case "seen table bounded" `Quick test_raw_seen_window_bounded;
          Alcotest.test_case "unknown source drops" `Quick test_raw_unknown_source_drops;
          QCheck_alcotest.to_alcotest prop_raw_delivery_on_random_trees;
        ] );
      ( "faults",
        [
          Alcotest.test_case "seeded drop determinism" `Quick test_faults_drop_and_determinism;
          Alcotest.test_case "crash blocks both ways" `Quick test_faults_crash_blocks_both_ways;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "delivery over 30% loss" `Quick test_reliable_over_lossy_channel;
          Alcotest.test_case "gives up on dead destination" `Quick
            test_reliable_gives_up_on_dead_destination;
          Alcotest.test_case "per-link bookkeeping" `Quick test_reliable_bookkeeping;
          Alcotest.test_case "an exchange leaves no event" `Quick
            test_reliable_exchange_leaves_no_event;
          Alcotest.test_case "a retried frame leaves no event" `Quick
            test_reliable_retried_frame_leaves_no_event;
          Alcotest.test_case "a filled hole cancels its flush" `Quick
            test_reliable_filled_hole_cancels_flush;
        ] );
    ]
