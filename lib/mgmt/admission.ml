(* Overload protection for the management plane.

   The layers below make the channel *reliable* (Reliable) and *hostile*
   (Faults); this layer makes it *survivable*: when management traffic
   exceeds what the channel should carry, the excess is shed by priority
   instead of squeezing out the frames the control plane cannot live
   without. Every outgoing frame arrives with one of four classes, stated
   by its sender (see Channel.send):

     P0  liveness: HA heartbeats and takeover announcements. Unsheddable
         and unthrottled — a starved failure detector fakes a dead primary.
     P1  mutations: script bundles, back-out deletions, their acks,
         module-to-module conveys and journal/in-flight replication.
         Unsheddable: shedding a back-out leaks datapath state, shedding a
         convey leaves an LSP half-built, shedding replication loses
         intents.
     P2  interrogation: Hello, showPotential/showActual, self-tests,
         completions and triggers. Sheddable under pressure, served
         before P3.
     P3  telemetry: showPerf scrapes and their responses. First to queue,
         first to shed, and stale scrapes expire — a perf counter snapshot
         nobody read for half a second answers a question nobody is still
         asking.

   P2/P3 admission is a per-peer token bucket on virtual time: a sender
   may burst [bucket_capacity] frames and sustain [refill_per_s] frames
   per second. Over-budget frames wait in bounded per-class FIFOs drained
   highest-class-first as tokens return; at the shared queue cap the
   strictly lowest-priority frame is shed (oldest first, so fresher
   telemetry survives). Everything runs on the event queue's virtual
   clock, so runs stay deterministic under the chaos engine. *)

open Netsim

type config = {
  bucket_capacity : int;  (* per-peer burst budget, frames *)
  refill_per_s : int;  (* per-peer sustained budget, frames per virtual second *)
  queue_capacity : int;  (* shared P2+P3 backlog bound *)
  p3_deadline_ns : int64;  (* queued P3 frames older than this expire *)
  drain_period_ns : int64;  (* backstop drainer period while frames wait *)
}

(* Generous enough that fault-free deployments and ordinary chaos runs
   never notice the layer; only a storm (hundreds of frames per monitor
   tick from one peer) trips it. *)
let default_config =
  {
    bucket_capacity = 512;
    refill_per_s = 1024;
    queue_capacity = 128;
    p3_deadline_ns = 400_000_000L;
    drain_period_ns = 1_000_000L;
  }

type class_counters = {
  mutable admitted : int;  (* frames handed to the layer below *)
  mutable deferred : int;  (* frames that had to wait for tokens *)
  mutable shed : int;  (* frames dropped at the queue cap *)
  mutable expired : int;  (* P3 frames dropped on deadline *)
  mutable queue_high_water : int;
}

let fresh_class () =
  { admitted = 0; deferred = 0; shed = 0; expired = 0; queue_high_water = 0 }

type bucket = { mutable tokens : float; mutable last_ns : int64 }

type entry = { e_src : string; e_dst : string; e_cls : int; e_bytes : bytes; e_enq_ns : int64 }

type t = {
  inner : Channel.t;
  eq : Event_queue.t;
  config : config;
  buckets : (string, bucket) Hashtbl.t;  (* sending peer -> budget *)
  q2 : entry Queue.t;
  q3 : entry Queue.t;
  classes : class_counters array;  (* indexed by class *)
  mutable drainer_armed : bool;
  mutable observer : (bytes -> string -> unit) option;
      (* (payload, event) tap — deferred / shed / expired — so the layer
         above can attribute the fate to the goal the frame works for *)
}

let counters t = t.classes

let observe t payload event =
  match t.observer with None -> () | Some f -> ( try f payload event with _ -> ())

let reset_counters t =
  Array.iteri (fun i _ -> t.classes.(i) <- fresh_class ()) t.classes

(* Total frames lost to shedding or expiry across the sheddable classes —
   the load signal Telemetry watches to back its scrape period off.
   Deliberately not called "shed": queue-cap sheds and deadline expiries
   are distinct fates (reported separately by [obs_counters]); this is
   their union. *)
let lost_total t =
  t.classes.(2).shed + t.classes.(2).expired + t.classes.(3).shed + t.classes.(3).expired

let queue_depth t = Queue.length t.q2 + Queue.length t.q3

(* --- token buckets ------------------------------------------------------ *)

let bucket_of t peer =
  match Hashtbl.find_opt t.buckets peer with
  | Some b -> b
  | None ->
      let b =
        { tokens = float_of_int t.config.bucket_capacity; last_ns = Event_queue.now t.eq }
      in
      Hashtbl.add t.buckets peer b;
      b

let take_token t peer =
  let b = bucket_of t peer in
  let now = Event_queue.now t.eq in
  let dt = Int64.to_float (Int64.sub now b.last_ns) in
  if dt > 0.0 then begin
    b.tokens <-
      Float.min
        (float_of_int t.config.bucket_capacity)
        (b.tokens +. (dt *. float_of_int t.config.refill_per_s /. 1e9));
    b.last_ns <- now
  end;
  if b.tokens >= 1.0 then begin
    b.tokens <- b.tokens -. 1.0;
    true
  end
  else false

(* --- queueing and draining --------------------------------------------- *)

let expire_stale t =
  let now = Event_queue.now t.eq in
  let rec loop () =
    match Queue.peek_opt t.q3 with
    | Some e when Int64.sub now e.e_enq_ns > t.config.p3_deadline_ns ->
        ignore (Queue.pop t.q3);
        t.classes.(3).expired <- t.classes.(3).expired + 1;
        observe t e.e_bytes "expired";
        loop ()
    | _ -> ()
  in
  loop ()

let rec serve t idx q =
  match Queue.peek_opt q with
  | Some e when take_token t e.e_src ->
      ignore (Queue.pop q);
      t.classes.(idx).admitted <- t.classes.(idx).admitted + 1;
      Channel.send t.inner ~cls:e.e_cls ~src:e.e_src ~dst:e.e_dst e.e_bytes;
      serve t idx q
  | _ -> ()

let drain t =
  expire_stale t;
  serve t 2 t.q2;
  serve t 3 t.q3

let rec ensure_drainer t =
  if (not t.drainer_armed) && queue_depth t > 0 then begin
    t.drainer_armed <- true;
    Event_queue.schedule t.eq ~delay_ns:t.config.drain_period_ns (fun () ->
        t.drainer_armed <- false;
        drain t;
        ensure_drainer t)
  end

let enqueue t idx ~cls ~src ~dst payload =
  let q = if idx = 2 then t.q2 else t.q3 in
  let c = t.classes.(idx) in
  if queue_depth t >= t.config.queue_capacity then begin
    (* the backlog is full: make room by shedding the strictly
       lowest-priority frame, oldest first *)
    if not (Queue.is_empty t.q3) then begin
      let v = Queue.pop t.q3 in
      t.classes.(3).shed <- t.classes.(3).shed + 1;
      observe t v.e_bytes "shed"
    end
    else if idx = 2 && not (Queue.is_empty t.q2) then begin
      let v = Queue.pop t.q2 in
      t.classes.(2).shed <- t.classes.(2).shed + 1;
      observe t v.e_bytes "shed"
    end
  end;
  if queue_depth t < t.config.queue_capacity then begin
    Queue.push
      { e_src = src; e_dst = dst; e_cls = cls; e_bytes = payload; e_enq_ns = Event_queue.now t.eq }
      q;
    c.deferred <- c.deferred + 1;
    observe t payload "deferred";
    let depth = Queue.length q in
    if depth > c.queue_high_water then c.queue_high_water <- depth
  end
  else begin
    (* an incoming P3 with nothing lower-priority to displace: the
       newcomer itself is the shed victim *)
    c.shed <- c.shed + 1;
    observe t payload "shed"
  end;
  ensure_drainer t

(* The sender's class picks the counters and the policy; classes outside
   0–3 clamp to the nearest end. *)
let send t ~cls ~src ~dst payload =
  match max 0 (min 3 cls) with
  | (0 | 1) as idx ->
      (* liveness and mutations bypass admission entirely: nothing a
         telemetry storm does may delay a heartbeat or a back-out *)
      t.classes.(idx).admitted <- t.classes.(idx).admitted + 1;
      Channel.send t.inner ~cls ~src ~dst payload
  | 2 ->
      drain t;
      if Queue.is_empty t.q2 && take_token t src then begin
        t.classes.(2).admitted <- t.classes.(2).admitted + 1;
        Channel.send t.inner ~cls ~src ~dst payload
      end
      else enqueue t 2 ~cls ~src ~dst payload
  | _ ->
      drain t;
      if queue_depth t = 0 && take_token t src then begin
        t.classes.(3).admitted <- t.classes.(3).admitted + 1;
        Channel.send t.inner ~cls ~src ~dst payload
      end
      else enqueue t 3 ~cls ~src ~dst payload

let set_observer t f = t.observer <- Some f

(* Registry-source form: every class counter under its own unambiguous
   key — [p3_shed] (queue-cap drops) never mixes with [p3_expired]
   (deadline drops); [lost_total] is their explicit union. *)
let obs_counters t =
  let per i =
    let c = t.classes.(i) in
    [
      (Printf.sprintf "p%d_admitted" i, c.admitted);
      (Printf.sprintf "p%d_deferred" i, c.deferred);
      (Printf.sprintf "p%d_shed" i, c.shed);
      (Printf.sprintf "p%d_expired" i, c.expired);
      (Printf.sprintf "p%d_queue_high_water" i, c.queue_high_water);
    ]
  in
  List.concat_map per [ 0; 1; 2; 3 ] @ [ ("lost_total", lost_total t) ]

let wrap ?(config = default_config) ~eq inner =
  let t =
    {
      inner;
      eq;
      config;
      buckets = Hashtbl.create 16;
      q2 = Queue.create ();
      q3 = Queue.create ();
      classes = Array.init 4 (fun _ -> fresh_class ());
      drainer_armed = false;
      observer = None;
    }
  in
  let chan =
    Channel.make
      ~send:(fun ~cls ~src ~dst payload -> send t ~cls ~src ~dst payload)
      ~subscribe:(fun id h -> Channel.subscribe inner ~device_id:id h)
      ~stats:(Channel.stats inner)
  in
  (chan, t)
