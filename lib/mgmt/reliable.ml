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
  p_dst : string;
  p_cls : int;  (* admission class the sender stated; retries keep it *)
  mutable p_bytes : bytes;  (* full envelope, ready to retransmit *)
  mutable p_retries : int;
}

(* Receiver-side ordering + duplicate suppression, per (receiver, sender).
   [next] is the next seq due for delivery; anything below it already went
   up (or was skipped — those seqs sit in [skipped] so a late arrival is
   still delivered rather than mistaken for a duplicate). [held] buffers
   arrivals ahead of a hole. *)
type order = {
  mutable next : int;
  held : (int, bytes) Hashtbl.t;
  skipped : (int, unit) Hashtbl.t;
  mutable flush_armed : bool;
}

type t = {
  inner : Channel.t;
  eq : Event_queue.t;
  config : config;
  counters : counters;
  next_seq : (string * string, int) Hashtbl.t;  (* (src, dst) -> last seq *)
  pending : (string * string * int, pending) Hashtbl.t;  (* (src, dst, seq) *)
  order : (string * string, order) Hashtbl.t;  (* (receiver, sender) *)
  mutable give_up_listeners : (src:string -> dst:string -> unit) list;
  mutable observer : (bytes -> string -> unit) option;
      (* (payload, event) tap on per-frame fate — retried / gave-up /
         dedup / transport-shed. The layer above decodes the payload and
         attributes the event to the goal it works for; this layer stays
         payload-agnostic. *)
}

let observe t payload event =
  match t.observer with None -> () | Some f -> ( try f payload event with _ -> ())

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

let decode b =
  if Bytes.length b < 5 then None
  else
    let byte i = Char.code (Bytes.get b i) in
    let seq = (byte 1 lsl 24) lor (byte 2 lsl 16) lor (byte 3 lsl 8) lor byte 4 in
    let payload = Bytes.sub b 5 (Bytes.length b - 5) in
    Some (Bytes.get b 0, seq, payload)

(* A voided send (see [cancel]) is a bare envelope header. *)
let voided p = Bytes.length p.p_bytes = 5

(* Taps a pending frame's fate. The envelope is unwrapped only when an
   observer is attached; a voided send has no payload to attribute. *)
let observe_pending t p event =
  if Option.is_some t.observer then
    match decode p.p_bytes with
    | Some (_, _, pl) when Bytes.length pl > 0 -> observe t pl event
    | _ -> ()

(* --- in-order delivery + duplicate suppression ------------------------- *)

let order_win t ~receiver ~sender =
  let key = (receiver, sender) in
  match Hashtbl.find_opt t.order key with
  | Some w -> w
  | None ->
      let w =
        { next = 1; held = Hashtbl.create 8; skipped = Hashtbl.create 4; flush_armed = false }
      in
      Hashtbl.add t.order key w;
      w

(* Voided sends (see [cancel]) travel as empty payloads: they keep the seq
   stream gapless but carry nothing for the layer above. *)
let deliver h ~src payload = if Bytes.length payload > 0 then h ~src payload

let rec drain w ~src h =
  match Hashtbl.find_opt w.held w.next with
  | Some payload ->
      Hashtbl.remove w.held w.next;
      w.next <- w.next + 1;
      deliver h ~src payload;
      drain w ~src h
  | None -> ()

(* A hole ahead of buffered frames must not stall delivery forever — the
   missing frame may have been abandoned by its sender. After
   [gap_timeout_ns] of no progress, skip to the lowest held seq (recording
   the skipped seqs so stragglers are still delivered) and drain. *)
let rec arm_flush t w ~src h =
  if not w.flush_armed then begin
    w.flush_armed <- true;
    let expected = w.next in
    Event_queue.schedule t.eq ~delay_ns:t.config.gap_timeout_ns (fun () ->
        w.flush_armed <- false;
        if Hashtbl.length w.held > 0 then begin
          if w.next = expected then begin
            let lowest = Hashtbl.fold (fun s _ acc -> min s acc) w.held max_int in
            for s = w.next to lowest - 1 do
              Hashtbl.replace w.skipped s ()
            done;
            w.next <- lowest;
            t.counters.gap_skips <- t.counters.gap_skips + 1;
            drain w ~src h
          end;
          if Hashtbl.length w.held > 0 then arm_flush t w ~src h
        end)
  end

(* --- sender side ------------------------------------------------------- *)

let retry_delay t retries =
  Int64.of_float (Int64.to_float t.config.timeout_ns *. (t.config.backoff ** float_of_int retries))

let rec arm_timer t key delay =
  Event_queue.schedule t.eq ~delay_ns:delay (fun () ->
      match Hashtbl.find_opt t.pending key with
      | None -> () (* acked in the meantime; timers are never cancelled *)
      | Some p ->
          if p.p_retries >= t.config.max_retries then begin
            Hashtbl.remove t.pending key;
            t.counters.gave_up <- t.counters.gave_up + 1;
            observe_pending t p "gave-up";
            let src, dst, _ = key in
            List.iter (fun f -> f ~src ~dst) t.give_up_listeners
          end
          else begin
            p.p_retries <- p.p_retries + 1;
            t.counters.retransmits <- t.counters.retransmits + 1;
            observe_pending t p "retried";
            let src, _, _ = key in
            Channel.send t.inner ~cls:p.p_cls ~src ~dst:p.p_dst p.p_bytes;
            arm_timer t key (retry_delay t p.p_retries)
          end)

(* The pending set is otherwise unbounded under a partitioned peer: every
   send to it parks an envelope in the retry wheel for the full backoff
   schedule. At [max_pending_per_dst] in-flight frames to one destination,
   abandon the oldest telemetry payload (stated class 3) owed to it —
   the receiver's gap-skip machinery already copes with abandoned senders,
   and by the time the peer heals a stale perf scrape answers nothing.
   Frames of any other class are never shed here; if only those remain the
   set is allowed to exceed the cap (at-least-once beats the bound). *)
let enforce_pending_cap t ~src ~dst =
  let per_dst =
    Hashtbl.fold
      (fun (s, d, _) _ acc -> if s = src && d = dst then acc + 1 else acc)
      t.pending 0
  in
  if per_dst > t.counters.pending_high_water then t.counters.pending_high_water <- per_dst;
  if per_dst > t.config.max_pending_per_dst then
    let victim =
      Hashtbl.fold
        (fun (s, d, seq) (p : pending) acc ->
          if s = src && d = dst && p.p_cls >= 3 && not (voided p) then
            match acc with Some (s0, _) when s0 <= seq -> acc | _ -> Some (seq, p)
          else acc)
        t.pending None
    in
    match victim with
    | Some (seq, p) ->
        observe_pending t p "transport-shed";
        Hashtbl.remove t.pending (src, dst, seq);
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
    let seq = 1 + (try Hashtbl.find t.next_seq (src, dst) with Not_found -> 0) in
    Hashtbl.replace t.next_seq (src, dst) seq;
    let b = encode 'D' seq payload in
    Hashtbl.replace t.pending (src, dst, seq)
      { p_dst = dst; p_cls = cls; p_bytes = b; p_retries = 0 };
    t.counters.data_sent <- t.counters.data_sent + 1;
    enforce_pending_cap t ~src ~dst;
    Channel.send t.inner ~cls ~src ~dst b;
    arm_timer t (src, dst, seq) t.config.timeout_ns
  end

(* --- receiver side ----------------------------------------------------- *)

let subscribe t id (h : Channel.handler) =
  Channel.subscribe t.inner ~device_id:id (fun ~src b ->
      match decode b with
      | None -> () (* not ours; garbage on the channel *)
      | Some ('U', _, payload) -> h ~src payload
      | Some ('A', seq, _) ->
          t.counters.acks_received <- t.counters.acks_received + 1;
          Hashtbl.remove t.pending (id, src, seq)
      | Some ('D', seq, payload) ->
          (* Always (re-)ack: the previous ack may have been lost. Acks
             state class 1, as acks do in the P0–P3 table; nothing below
             this layer reads it. *)
          t.counters.acks_sent <- t.counters.acks_sent + 1;
          Channel.send t.inner ~cls:1 ~src:id ~dst:src (encode 'A' seq Bytes.empty);
          let w = order_win t ~receiver:id ~sender:src in
          if Hashtbl.mem w.skipped seq then begin
            (* A straggler we already skipped past: deliver it late rather
               than break at-least-once. Order was forfeited at the skip. *)
            Hashtbl.remove w.skipped seq;
            deliver h ~src payload
          end
          else if seq < w.next || Hashtbl.mem w.held seq then begin
            t.counters.duplicates <- t.counters.duplicates + 1;
            if Bytes.length payload > 0 then observe t payload "dedup"
          end
          else begin
            if seq <> w.next then t.counters.held_back <- t.counters.held_back + 1;
            Hashtbl.replace w.held seq payload;
            drain w ~src h;
            if Hashtbl.length w.held > 0 then arm_flush t w ~src h
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
      next_seq = Hashtbl.create 32;
      pending = Hashtbl.create 32;
      order = Hashtbl.create 32;
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
  let victims =
    Hashtbl.fold
      (fun (s, d, seq) (p : pending) acc ->
        if s = src && d = dst then
          match decode p.p_bytes with
          | Some ('D', _, pl) when Bytes.length pl > 0 && Bytes.equal pl payload ->
              (seq, p) :: acc
          | _ -> acc
        else acc)
      t.pending []
  in
  List.iter (fun (seq, p) -> p.p_bytes <- encode 'D' seq Bytes.empty) victims;
  List.length victims

let on_give_up t f = t.give_up_listeners <- f :: t.give_up_listeners
let set_observer t f = t.observer <- Some f
let counters t = t.counters
let in_flight t = Hashtbl.length t.pending

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
