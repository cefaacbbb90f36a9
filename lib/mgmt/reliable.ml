(* At-least-once delivery with duplicate suppression over any management
   channel.

   The paper's NM↔agent protocol implicitly assumes the management channel
   delivers; this layer makes that assumption explicit and earned. Every
   unicast is wrapped in a small envelope, acknowledged by the receiving
   endpoint, and retransmitted with exponential backoff until acked or
   [max_retries] is exhausted — at which point registered give-up listeners
   are told, so the NM can mark the destination unreachable instead of
   hanging. Duplicates created by retransmission (or by {!Faults}
   duplication) are suppressed at the receiver with a per-source sliding
   window and re-acked, making retried requests idempotent at this layer.

   Delivery is additionally in-order per (sender, receiver): a frame that
   arrives ahead of a predecessor (channel jitter, a retransmitted
   predecessor) is held back until the gap fills. Without this, a back-out
   deletion and its successor script's create can swap on the wire and the
   late delete clobbers the new state. Holes cannot block forever: after
   [gap_timeout_ns] of no progress the receiver skips the hole and drains
   what it holds (in seq order); a skipped frame that shows up later is
   still delivered, late, so at-least-once survives.

   Envelope wire format: 1-byte tag, 4-byte big-endian sequence number,
   payload. Tags: 'D' data (ack required), 'A' ack (seq echoes the data
   frame), 'U' unreliable (broadcasts — there is no single acker). A 'D'
   frame with an empty payload is a voided send (see [cancel]): it is
   acked and sequenced but not handed to the handler. *)

open Netsim

type config = {
  timeout_ns : int64;  (* first retransmission timeout *)
  backoff : float;  (* multiplier applied per retry *)
  max_retries : int;
  gap_timeout_ns : int64;  (* how long a seq hole may stall in-order delivery *)
  max_pending_per_dst : int;  (* in-flight unicasts tolerated per destination *)
}

let default_config =
  {
    timeout_ns = 1_000_000L;
    backoff = 2.0;
    max_retries = 12;
    gap_timeout_ns = 50_000_000L;
    max_pending_per_dst = 64;
  }

type counters = {
  mutable data_sent : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable acks_received : int;
  mutable duplicates : int;  (* data frames suppressed at the receiver *)
  mutable gave_up : int;
  mutable broadcasts : int;
  mutable held_back : int;  (* frames buffered awaiting a predecessor *)
  mutable gap_skips : int;  (* seq holes skipped after [gap_timeout_ns] *)
  mutable pending_high_water : int;  (* worst per-destination in-flight depth *)
  mutable pending_shed : int;  (* low-priority payloads abandoned at the cap *)
}

type pending = {
  p_cls : int;  (* admission class the sender stated; retries keep it *)
  mutable p_bytes : bytes;  (* full envelope, ready to retransmit *)
  mutable p_retries : int;
  mutable p_timer : Event_queue.timer;  (* the pending retransmission *)
}

module Seqs = Map.Make (Int)

(* Everything kept about one directed link [src → dst]. The sender's side:
   the last seq used and the unacked frames by seq, with their count (the
   pending cap's input). The receiver's side, ordering and duplicate
   suppression: [next] is the next seq due for delivery; anything below it
   already went up (or was skipped — those seqs sit in [skipped] so a late
   arrival is still delivered rather than mistaken for a duplicate).
   [held] buffers arrivals ahead of a hole; [flush] is the gap timer
   while one is armed. *)
type link = {
  src : string;
  dst : string;
  mutable last_seq : int;
  mutable frames : pending Seqs.t;
  mutable count : int;
  mutable next : int;
  mutable held : bytes Seqs.t;
  mutable skipped : unit Seqs.t;
  mutable flush_armed : bool;
  mutable flush : Event_queue.timer;
}

type t = {
  inner : Channel.t;
  eq : Event_queue.t;
  config : config;
  counters : counters;
  links : (string * string, link) Hashtbl.t;  (* (src, dst) *)
  mutable unacked : int;  (* the links' counts, summed *)
  mutable give_up_listeners : (src:string -> dst:string -> unit) list;
  mutable observer : (bytes -> string -> unit) option;
      (* (payload, event) tap on per-frame fate — retried / gave-up /
         dedup / transport-shed. The layer above decodes the payload and
         attributes the event to the goal it works for; this layer stays
         payload-agnostic. *)
}

let observe t payload event =
  match t.observer with None -> () | Some f -> ( try f payload event with _ -> ())

let link t ~src ~dst =
  let key = (src, dst) in
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
      let l =
        {
          src;
          dst;
          last_seq = 0;
          frames = Seqs.empty;
          count = 0;
          next = 1;
          held = Seqs.empty;
          skipped = Seqs.empty;
          flush_armed = false;
          flush = Event_queue.no_timer;
        }
      in
      Hashtbl.add t.links key l;
      l

(* Drops an unacked frame and cancels its retransmission, so an acked,
   shed or abandoned frame leaves no event behind. *)
let forget t l seq p =
  Event_queue.cancel t.eq p.p_timer;
  l.frames <- Seqs.remove seq l.frames;
  l.count <- l.count - 1;
  t.unacked <- t.unacked - 1

(* --- envelope codec ---------------------------------------------------- *)

let encode tag seq payload =
  let n = Bytes.length payload in
  let b = Bytes.create (5 + n) in
  Bytes.set b 0 tag;
  Bytes.set b 1 (Char.chr ((seq lsr 24) land 0xff));
  Bytes.set b 2 (Char.chr ((seq lsr 16) land 0xff));
  Bytes.set b 3 (Char.chr ((seq lsr 8) land 0xff));
  Bytes.set b 4 (Char.chr (seq land 0xff));
  Bytes.blit payload 0 b 5 n;
  b

let payload_of b = Bytes.sub b 5 (Bytes.length b - 5)

let decode b =
  if Bytes.length b < 5 then None
  else
    let byte i = Char.code (Bytes.get b i) in
    let seq = (byte 1 lsl 24) lor (byte 2 lsl 16) lor (byte 3 lsl 8) lor byte 4 in
    Some (Bytes.get b 0, seq, payload_of b)

(* A voided send (see [cancel]) is a bare envelope header. *)
let voided p = Bytes.length p.p_bytes = 5

(* Taps a pending frame's fate. The envelope is unwrapped only when an
   observer is attached; a voided send has no payload to attribute. *)
let observe_pending t p event =
  if Option.is_some t.observer && not (voided p) then observe t (payload_of p.p_bytes) event

(* --- in-order delivery + duplicate suppression ------------------------- *)

(* Voided sends (see [cancel]) travel as empty payloads: they keep the seq
   stream gapless but carry nothing for the layer above. *)
let deliver h ~src payload = if Bytes.length payload > 0 then h ~src payload

let rec drain l h =
  match Seqs.find_opt l.next l.held with
  | Some payload ->
      l.held <- Seqs.remove l.next l.held;
      l.next <- l.next + 1;
      deliver h ~src:l.src payload;
      drain l h
  | None -> ()

(* A hole ahead of buffered frames must not stall delivery forever — the
   missing frame may have been abandoned by its sender. After
   [gap_timeout_ns] of no progress, skip to the lowest held seq (recording
   the skipped seqs so stragglers are still delivered) and drain.
   The timer is cancelled when the hole fills, so it fires only on a link
   still holding frames. *)
let rec arm_flush t l h =
  if not l.flush_armed then begin
    l.flush_armed <- true;
    let expected = l.next in
    l.flush <-
      Event_queue.timer t.eq ~delay_ns:t.config.gap_timeout_ns (fun () ->
          l.flush_armed <- false;
          if l.next = expected then begin
            let lowest, _ = Seqs.min_binding l.held in
            for s = l.next to lowest - 1 do
              l.skipped <- Seqs.add s () l.skipped
            done;
            l.next <- lowest;
            t.counters.gap_skips <- t.counters.gap_skips + 1;
            drain l h
          end;
          if not (Seqs.is_empty l.held) then arm_flush t l h)
  end

let disarm_flush t l =
  if l.flush_armed then begin
    l.flush_armed <- false;
    Event_queue.cancel t.eq l.flush
  end

(* --- sender side ------------------------------------------------------- *)

let retry_delay t retries =
  Int64.of_float (Int64.to_float t.config.timeout_ns *. (t.config.backoff ** float_of_int retries))

(* The timer runs only while the frame is unacked: [forget] cancels it. *)
let rec arm_timer t l seq p delay =
  p.p_timer <-
    Event_queue.timer t.eq ~delay_ns:delay (fun () ->
        if p.p_retries >= t.config.max_retries then begin
          forget t l seq p;
          t.counters.gave_up <- t.counters.gave_up + 1;
          observe_pending t p "gave-up";
          List.iter (fun f -> f ~src:l.src ~dst:l.dst) t.give_up_listeners
        end
        else begin
          p.p_retries <- p.p_retries + 1;
          t.counters.retransmits <- t.counters.retransmits + 1;
          observe_pending t p "retried";
          Channel.send t.inner ~cls:p.p_cls ~src:l.src ~dst:l.dst p.p_bytes;
          arm_timer t l seq p (retry_delay t p.p_retries)
        end)

(* The pending set is otherwise unbounded under a partitioned peer: every
   send to it parks an envelope in the retry wheel for the full backoff
   schedule. At [max_pending_per_dst] in-flight frames on one link,
   abandon the oldest telemetry payload (stated class 3) owed on it —
   the receiver's gap-skip machinery already copes with abandoned senders,
   and by the time the peer heals a stale perf scrape answers nothing.
   Frames of any other class are never shed here; if only those remain the
   set is allowed to exceed the cap (at-least-once beats the bound). *)
let enforce_pending_cap t l =
  if l.count > t.counters.pending_high_water then t.counters.pending_high_water <- l.count;
  if l.count > t.config.max_pending_per_dst then
    match Seqs.to_seq l.frames |> Seq.find (fun (_, p) -> p.p_cls >= 3 && not (voided p)) with
    | Some (seq, p) ->
        observe_pending t p "transport-shed";
        forget t l seq p;
        t.counters.pending_shed <- t.counters.pending_shed + 1
    | None -> ()

let send t ~cls ~src ~dst payload =
  if dst = Frame.broadcast then begin
    (* No single acker for a broadcast: ship once, unreliably. Callers
       needing certainty (e.g. discovery) already re-broadcast. *)
    t.counters.broadcasts <- t.counters.broadcasts + 1;
    Channel.send t.inner ~cls ~src ~dst (encode 'U' 0 payload)
  end
  else begin
    let l = link t ~src ~dst in
    let seq = l.last_seq + 1 in
    l.last_seq <- seq;
    let b = encode 'D' seq payload in
    let p = { p_cls = cls; p_bytes = b; p_retries = 0; p_timer = Event_queue.no_timer } in
    l.frames <- Seqs.add seq p l.frames;
    l.count <- l.count + 1;
    t.unacked <- t.unacked + 1;
    t.counters.data_sent <- t.counters.data_sent + 1;
    enforce_pending_cap t l;
    Channel.send t.inner ~cls ~src ~dst b;
    (* the cap may have shed this very frame: then it is not retried *)
    if Seqs.mem seq l.frames then arm_timer t l seq p t.config.timeout_ns
  end

(* --- receiver side ----------------------------------------------------- *)

let subscribe t id (h : Channel.handler) =
  Channel.subscribe t.inner ~device_id:id (fun ~src b ->
      match decode b with
      | None -> () (* not ours; garbage on the channel *)
      | Some ('U', _, payload) -> h ~src payload
      | Some ('A', seq, _) -> (
          t.counters.acks_received <- t.counters.acks_received + 1;
          match Hashtbl.find_opt t.links (id, src) with
          | Some l -> (
              match Seqs.find seq l.frames with
              | p -> forget t l seq p
              | exception Not_found -> ())
          | None -> ())
      | Some ('D', seq, payload) ->
          (* Always (re-)ack: the previous ack may have been lost. Acks
             state class 1, as acks do in the P0–P3 table; nothing below
             this layer reads it. *)
          t.counters.acks_sent <- t.counters.acks_sent + 1;
          Channel.send t.inner ~cls:1 ~src:id ~dst:src (encode 'A' seq Bytes.empty);
          let l = link t ~src ~dst:id in
          if Seqs.mem seq l.skipped then begin
            (* A straggler we already skipped past: deliver it late rather
               than break at-least-once. Order was forfeited at the skip. *)
            l.skipped <- Seqs.remove seq l.skipped;
            deliver h ~src payload
          end
          else if seq < l.next || Seqs.mem seq l.held then begin
            t.counters.duplicates <- t.counters.duplicates + 1;
            if Bytes.length payload > 0 then observe t payload "dedup"
          end
          else begin
            if seq <> l.next then t.counters.held_back <- t.counters.held_back + 1;
            l.held <- Seqs.add seq payload l.held;
            drain l h;
            if Seqs.is_empty l.held then disarm_flush t l else arm_flush t l h
          end
      | Some _ -> ())

(* --- construction ------------------------------------------------------ *)

let create ?(config = default_config) ~eq inner =
  let t =
    {
      inner;
      eq;
      config;
      counters =
        {
          data_sent = 0;
          retransmits = 0;
          acks_sent = 0;
          acks_received = 0;
          duplicates = 0;
          gave_up = 0;
          broadcasts = 0;
          held_back = 0;
          gap_skips = 0;
          pending_high_water = 0;
          pending_shed = 0;
        };
      links = Hashtbl.create 32;
      unacked = 0;
      give_up_listeners = [];
      observer = None;
    }
  in
  let chan =
    Channel.make
      ~send:(fun ~cls ~src ~dst payload -> send t ~cls ~src ~dst payload)
      ~subscribe:(fun id h -> subscribe t id h)
      ~stats:(Channel.stats inner)
  in
  (chan, t)

(* Recalls unacked unicasts: any pending frame from [src] to [dst] carrying
   exactly [payload] is voided — its envelope keeps its seq but the payload
   is emptied, so retransmissions continue until acked but deliver nothing.
   The NM uses this to cancel the creates of a script it is backing out —
   without it, a retry surviving in the timer wheel could land after the
   back-out's deletion and resurrect the state. Voiding (rather than
   dropping the pending entry) keeps the seq stream gapless, so in-order
   delivery of later frames to [dst] is not stalled behind a hole.
   Returns the number of sends recalled. *)
let cancel t ~src ~dst payload =
  let n = Bytes.length payload in
  let carries p =
    n > 0 && Bytes.length p.p_bytes = 5 + n && Bytes.equal (payload_of p.p_bytes) payload
  in
  match Hashtbl.find_opt t.links (src, dst) with
  | None -> 0
  | Some l ->
      Seqs.fold
        (fun seq p recalled ->
          if carries p then begin
            p.p_bytes <- encode 'D' seq Bytes.empty;
            recalled + 1
          end
          else recalled)
        l.frames 0

let on_give_up t f = t.give_up_listeners <- f :: t.give_up_listeners
let set_observer t f = t.observer <- Some f
let counters t = t.counters
let in_flight t = t.unacked

type frame_view = { seq : int; cls : int; payload : bytes }

let links t =
  Hashtbl.fold
    (fun _ l acc ->
      let frames =
        List.map
          (fun (seq, p) -> { seq; cls = p.p_cls; payload = payload_of p.p_bytes })
          (Seqs.bindings l.frames)
      in
      (l.src, l.dst, l.count, frames) :: acc)
    t.links []

(* Registry-source form of the counters, named per the subsystem.name
   convention (see Obs.Registry in lib/obs). *)
let obs_counters t =
  let c = t.counters in
  [
    ("data_sent", c.data_sent);
    ("retransmits", c.retransmits);
    ("acks_sent", c.acks_sent);
    ("acks_received", c.acks_received);
    ("duplicates", c.duplicates);
    ("gave_up", c.gave_up);
    ("broadcasts", c.broadcasts);
    ("held_back", c.held_back);
    ("gap_skips", c.gap_skips);
    ("pending_high_water", c.pending_high_water);
    ("pending_shed", c.pending_shed);
  ]
