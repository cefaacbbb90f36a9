(* Physical links. A segment is a broadcast medium with attached endpoints;
   a cable is a segment with exactly two. Frames are delivered to every other
   endpoint after the segment latency. Links can be cut (for fault-injection
   experiments) and have an MTU covering the Ethernet payload.

   Fault injection is first-class: each segment carries a seeded PRNG that
   drives random frame loss and corruption (a corrupted frame is dropped by
   the receiver's CRC check, never delivered mangled), and cuts/restores can
   be scheduled on the event queue so a flapping link is a simulator event
   rather than a test-side poke. Drops are counted per cause. *)

type endpoint = {
  segment : segment;
  ep_id : int;
  mutable rx : bytes -> unit;
}

and segment = {
  link_id : int;
  eq : Event_queue.t;
  latency_ns : int64;
  mtu : int;
  mutable endpoints : endpoint list;
  mutable next_ep : int;
  mutable cut : bool;
  mutable loss : float; (* per-delivery probability a frame is lost *)
  mutable corrupt : float; (* per-delivery probability the CRC check fails *)
  mutable rng : int64;
  mutable flaps : int;
  stats : Counters.t; (* per-cause drop counters *)
}

let next_id = ref 0

let create_segment ?(latency_ns = 1_000L) ?(mtu = 1518) eq =
  incr next_id;
  {
    link_id = !next_id;
    eq;
    latency_ns;
    mtu;
    endpoints = [];
    next_ep = 0;
    cut = false;
    loss = 0.0;
    corrupt = 0.0;
    rng = Int64.of_int !next_id;
    flaps = 0;
    stats = Counters.create ();
  }

let attach segment =
  let ep = { segment; ep_id = segment.next_ep; rx = (fun _ -> ()) } in
  segment.next_ep <- segment.next_ep + 1;
  segment.endpoints <- segment.endpoints @ [ ep ];
  ep

let detach ep =
  let seg = ep.segment in
  seg.endpoints <- List.filter (fun o -> o.ep_id <> ep.ep_id) seg.endpoints

let endpoint_id ep = ep.ep_id
let set_rx ep f = ep.rx <- f

(* splitmix64: a tiny, high-quality PRNG. Each segment owns one, seeded from
   its link id by default, so loss/corruption patterns are reproducible and
   independent of every other segment. *)
let next_u64 seg =
  seg.rng <- Int64.add seg.rng 0x9E3779B97F4A7C15L;
  let z = seg.rng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform seg =
  Int64.to_float (Int64.shift_right_logical (next_u64 seg) 11) /. 9007199254740992.0

let set_seed seg seed = seg.rng <- seed
let set_loss seg p = seg.loss <- p
let set_corrupt seg p = seg.corrupt <- p

(* Drop causes: the name a trace shows and the interned [drop_<cause>]
   counter. *)
type cause = { name : string; key : Counters.key }

let cause name = { name; key = Counters.key ("drop_" ^ name) }
let cut_drop = cause "cut"
let mtu_drop = cause "mtu"
let loss_drop = cause "loss"
let corrupt_drop = cause "corrupt"

let drop seg cause frame =
  Counters.incr seg.stats cause.key;
  if !Trace.enabled then
    Trace.emit ~device:(Printf.sprintf "link%d" seg.link_id) ~what:"drop" ~port:cause.name frame

(* One event per delivery. Every endpoint receives the same buffer, so no
   receiver may write into it. *)
let deliver seg other frame () =
  if seg.cut then drop seg cut_drop frame
  else if seg.loss > 0.0 && uniform seg < seg.loss then drop seg loss_drop frame
  else if seg.corrupt > 0.0 && uniform seg < seg.corrupt then
    (* modelled as the receiving NIC failing the CRC check *)
    drop seg corrupt_drop frame
  else other.rx frame

let rec schedule_deliveries seg ep frame = function
  | [] -> ()
  | other :: rest ->
      if other.ep_id <> ep.ep_id then
        Event_queue.schedule seg.eq ~delay_ns:seg.latency_ns (deliver seg other frame);
      schedule_deliveries seg ep frame rest

let send ep frame =
  let seg = ep.segment in
  if seg.cut then drop seg cut_drop frame
  else if Bytes.length frame > seg.mtu then drop seg mtu_drop frame
  else schedule_deliveries seg ep frame seg.endpoints

let cut segment =
  if not segment.cut then begin
    segment.cut <- true;
    segment.flaps <- segment.flaps + 1
  end

let restore segment = segment.cut <- false

let schedule_cut segment ~delay_ns =
  Event_queue.schedule segment.eq ~delay_ns (fun () -> cut segment)

let schedule_restore segment ~delay_ns =
  Event_queue.schedule segment.eq ~delay_ns (fun () -> restore segment)

let flap ?(cycles = 1) segment ~first_down_ns ~down_ns ~up_ns =
  let period = Int64.add down_ns up_ns in
  for i = 0 to cycles - 1 do
    let off = Int64.add first_down_ns (Int64.mul (Int64.of_int i) period) in
    schedule_cut segment ~delay_ns:off;
    schedule_restore segment ~delay_ns:(Int64.add off down_ns)
  done

let clear_faults segment =
  restore segment;
  segment.loss <- 0.0;
  segment.corrupt <- 0.0

let is_cut segment = segment.cut
let drop_count segment cause = Counters.get segment.stats ("drop_" ^ cause)

let dropped segment =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (Counters.to_list segment.stats)

let drop_stats segment = segment.stats
let flaps segment = segment.flaps
