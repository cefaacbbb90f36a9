(* NM high availability (§V, made automatic).

   Two NM stations share the management channel: a primary that manages
   the network and a warm standby. The primary heartbeats to the standby
   every tick and continuously ships its write-ahead intent journal and
   in-flight request deltas; the standby runs a phi/timeout-style failure
   detector over the heartbeat arrivals and, when suspicion crosses the
   threshold, promotes itself — bumping the leadership epoch, announcing
   the takeover, and replaying only the requests the primary died without
   seeing confirmed.

   Leadership is fenced by the epoch: every frame a promoted NM sends is
   wrapped in [Wire.Fenced] and agents reject lower epochs, so a deposed
   or partitioned old primary cannot issue conflicting configuration or
   steal agents back (split-brain). Epochs are strictly increased on every
   promotion past anything the promoting node has observed, so two acting
   primaries can never share an epoch.

   Journal shipping uses the journal's absolute sequence numbers: both
   journals number entries alike from the bootstrap replication on, the
   standby appends entry [k+1] only when its journal length is exactly [k]
   and cumulatively acks its length, and the primary re-ships a bounded
   unacked tail each tick. The ack is also the primary's compaction floor,
   so the primary keeps every entry the standby has not acknowledged.
   Losses, duplicates and reordering below are absorbed by the
   {!Mgmt.Reliable} envelope layer; a gap only delays shipping, never
   corrupts the prefix. *)

type role = Primary | Standby

type config = {
  heartbeat_period_ns : int64;
      (* nominal heartbeat spacing in simulated time — the driver is
         expected to call [tick] about this often. The detector itself
         counts ticks (heartbeat opportunities), not raw simulated time:
         a harness draining seconds of retry backlog between two ticks
         advances the clock without giving the primary a chance to
         heartbeat, and must not look like a death. *)
  phi_threshold : float; (* promote when gap / mean-interval crosses this *)
  window : int; (* heartbeat intervals kept for the mean *)
  ship_batch : int; (* unacked journal entries re-shipped per tick *)
  replay_horizon_ns : int64 option;
      (* when set, promotion bounds its takeover replay at now + horizon so
         scheduled data-plane faults are not fast-forwarded through (the
         chaos engine sets this to its tick interval) *)
}

let default_config =
  {
    heartbeat_period_ns = 500_000_000L; (* one monitor tick *)
    phi_threshold = 3.0;
    window = 8;
    ship_batch = 16;
    replay_horizon_ns = None;
  }

type stats = {
  mutable promotions : int;
  mutable demotions : int;
  mutable heartbeats_sent : int;
  mutable heartbeats_seen : int;
  mutable stale_rejects : int; (* HA frames dropped for a lower epoch *)
  mutable entries_shipped : int;
  mutable entries_applied : int;
  mutable inflight_seen : int; (* in-flight deltas applied to the replica *)
  mutable replayed : int; (* requests replayed across all promotions *)
  mutable promotion_ticks : int list; (* newest first *)
}

type t = {
  nm : Nm.t;
  peer : string; (* station id of the other NM *)
  config : config;
  mutable role : role;
  mutable epoch : int; (* highest leadership epoch this node knows of *)
  mutable alive : bool; (* a crashed node neither ticks nor reacts *)
  (* failure detector (standby side), in tick units *)
  mutable cur_tick : int; (* last tick number handed to [tick] *)
  mutable last_hb_tick : int; (* tick during which the last heartbeat landed *)
  mutable intervals : int list; (* recent heartbeat gaps in ticks, <= window *)
  mutable grace : bool; (* forgive the accrued gap at the next tick *)
  mutable hb_seq : int;
  (* journal shipping (primary side): cumulative ack from the standby *)
  mutable acked : int;
  (* replica of the primary's in-flight set (standby side), newest first *)
  mutable replica_inflight : (int * string * Wire.t) list;
  stats : stats;
}

let now_ns t = Netsim.Event_queue.now (Netsim.Net.eq (Nm.net t.nm))

(* Forgive whatever gap accrued: the grace is consumed at the next [tick],
   which restarts the gap measurement from that tick. *)
let reset_detector t =
  t.intervals <- [];
  t.grace <- true

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let note_heartbeat t =
  let gap = t.cur_tick - t.last_hb_tick in
  if gap > 0 then t.intervals <- take t.config.window (gap :: t.intervals);
  t.last_hb_tick <- t.cur_tick;
  t.stats.heartbeats_seen <- t.stats.heartbeats_seen + 1

(* Accrued suspicion that the primary is dead: ticks since a heartbeat last
   landed, in units of the mean observed inter-heartbeat gap. Counting
   ticks — heartbeat opportunities — rather than simulated time keeps the
   detector honest when the harness drains a long retry backlog between
   two ticks (time jumps, but the primary had no chance to heartbeat). The
   mean adapts upward on lossy channels (fewer false positives) and is
   floored at one tick, so delivery bunching cannot shrink it into
   hair-trigger territory. *)
let suspicion t =
  let gap = float_of_int (t.cur_tick - t.last_hb_tick) in
  let mean =
    match t.intervals with
    | [] -> 1.0
    | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  let mean = Float.max mean 1.0 in
  gap /. mean

let send_peer t msg = Nm.send_msg t.nm ~dst:t.peer msg

let journal_len t = Intent.length (Nm.journal t.nm)

let ship_entry t seq entry =
  t.stats.entries_shipped <- t.stats.entries_shipped + 1;
  send_peer t (Wire.Ha_journal { epoch = t.epoch; seq; entry })

let ack_journal t = send_peer t (Wire.Ha_journal_ack { epoch = t.epoch; upto = journal_len t })

(* Another leader with a strictly newer epoch exists: step down (if acting)
   and give it a fresh detection grace period. A deposed primary also
   surrenders its unconfirmed requests to the new leader: agents fence its
   frames silently (the transport still acks, so it never retries), so any
   back-out deletion or script slice it issued after losing leadership
   would otherwise be stranded forever, leaking datapath state. *)
let observe_epoch t epoch =
  if epoch > t.epoch then begin
    t.epoch <- epoch;
    if t.role = Primary then begin
      t.role <- Standby;
      t.stats.demotions <- t.stats.demotions + 1;
      List.iter
        (fun (req, dst, msg) ->
          send_peer t (Wire.Ha_inflight { epoch = t.epoch; req; dst; msg }))
        (Nm.inflight t.nm)
    end;
    reset_detector t
  end

let on_msg t ~src:_ msg =
  if t.alive then
    match msg with
    | Wire.Ha_heartbeat { epoch; seq = _ } ->
        if epoch < t.epoch then t.stats.stale_rejects <- t.stats.stale_rejects + 1
        else begin
          observe_epoch t epoch;
          if t.role = Standby then begin
            note_heartbeat t;
            (* cumulative ack doubles as the primary's shipping cursor *)
            ack_journal t
          end
        end
    | Wire.Ha_journal { epoch; seq; entry } ->
        if epoch < t.epoch then t.stats.stale_rejects <- t.stats.stale_rejects + 1
        else begin
          observe_epoch t epoch;
          if t.role = Standby then begin
            note_heartbeat t;
            (* absolute-index shipping: append only the exact next entry;
               anything else is a duplicate or a gap the cumulative ack
               will cause to be re-shipped in order *)
            if seq = journal_len t + 1 then begin
              Nm.apply_replicated_entry t.nm entry;
              t.stats.entries_applied <- t.stats.entries_applied + 1
            end;
            ack_journal t
          end
        end
    | Wire.Ha_journal_ack { epoch = _; upto } ->
        (* journal indexes are absolute and journals only grow, so the ack
           is meaningful whatever epoch the standby believed in *)
        t.acked <- max t.acked upto
    | Wire.Ha_inflight { epoch; req; dst; msg } -> (
        (* accepted whatever epoch the sender believed in: a delta from a
           deposed primary (racing its own demotion, or the demotion
           hand-off above) is exactly the unconfirmed work the new leader
           must adopt — request ids are process-unique and agents answer
           re-sends of executed requests from cache, so adopting one twice
           is harmless *)
        observe_epoch t epoch;
        match t.role with
        | Standby ->
            if not (List.exists (fun (r, _, _) -> r = req) t.replica_inflight) then begin
              t.replica_inflight <- (req, dst, msg) :: t.replica_inflight;
              t.stats.inflight_seen <- t.stats.inflight_seen + 1
            end
        | Primary ->
            let ours = Nm.inflight t.nm in
            if not (List.exists (fun (r, _, _) -> r = req) ours) then begin
              Nm.set_inflight t.nm ((req, dst, msg) :: ours);
              t.stats.inflight_seen <- t.stats.inflight_seen + 1
            end)
    | Wire.Ha_confirm { epoch; req } ->
        (* a confirm means some agent answered the request: drop it from
           the replica and (if leading) from the live re-issue set *)
        observe_epoch t epoch;
        t.replica_inflight <- List.filter (fun (r, _, _) -> r <> req) t.replica_inflight;
        if t.role = Primary then
          Nm.set_inflight t.nm
            (List.filter (fun (r, _, _) -> r <> req) (Nm.inflight t.nm))
    | Wire.Nm_takeover { nm = _; epoch } ->
        if epoch < t.epoch then t.stats.stale_rejects <- t.stats.stale_rejects + 1
        else begin
          (* the peer promoted: step down and treat the announcement as
             proof of its liveness *)
          observe_epoch t epoch;
          if t.role = Standby then note_heartbeat t
        end
    | _ -> ()

(* Promotion: become the acting primary under a strictly newer epoch,
   merge the replicated in-flight set with anything already ours, announce
   the takeover (which replays every unconfirmed request under the new
   epoch) and refresh the module abstractions. Replay is bounded by the
   configured horizon so a promotion inside a chaos tick cannot
   fast-forward through scheduled faults. *)
let promote t ~tick =
  t.epoch <- t.epoch + 1;
  t.role <- Primary;
  t.stats.promotions <- t.stats.promotions + 1;
  t.stats.promotion_ticks <- tick :: t.stats.promotion_ticks;
  let ours = Nm.inflight t.nm in
  let extra =
    List.filter
      (fun (r, _, _) -> not (List.exists (fun (r2, _, _) -> r2 = r) ours))
      t.replica_inflight
  in
  Nm.set_inflight t.nm (extra @ ours);
  t.replica_inflight <- [];
  t.stats.replayed <- t.stats.replayed + List.length (Nm.inflight t.nm);
  (match t.config.replay_horizon_ns with
  | Some h -> Nm.set_horizon t.nm (Some (Int64.add (now_ns t) h))
  | None -> ());
  Nm.take_over ~epoch:t.epoch t.nm;
  (* relearn potentials and reachability under the new epoch — responses
     also restore devices the dead primary's transport had given up on *)
  Nm.harvest_potentials t.nm
    (List.filter_map
       (fun (d : Topology.device_info) ->
         if d.Topology.di_id = Nm.my_id t.nm then None else Some d.Topology.di_id)
       (Nm.topology t.nm).Topology.devices)

(* One HA tick, driven by the harness at the heartbeat period. The primary
   heartbeats and re-ships its unacked journal tail; the standby accrues
   suspicion and promotes past the threshold. *)
let tick t ~tick:tick_no =
  t.cur_tick <- max t.cur_tick tick_no;
  if t.grace then begin
    t.last_hb_tick <- t.cur_tick;
    t.grace <- false
  end;
  if t.alive then
    match t.role with
    | Primary ->
        t.hb_seq <- t.hb_seq + 1;
        t.stats.heartbeats_sent <- t.stats.heartbeats_sent + 1;
        send_peer t (Wire.Ha_heartbeat { epoch = t.epoch; seq = t.hb_seq });
        List.iteri
          (fun i (seq, entry) -> if i < t.config.ship_batch then ship_entry t seq entry)
          (Intent.since (Nm.journal t.nm) t.acked)
    | Standby -> if suspicion t >= t.config.phi_threshold then promote t ~tick:tick_no

let set_alive t v =
  if v && not t.alive then
    (* revival: the heartbeat gap accrued while crashed says nothing about
       the current leader — grant a fresh grace period *)
    reset_detector t;
  t.alive <- v

let create ?(config = default_config) ~role ~peer nm =
  let t =
    {
      nm;
      peer;
      config;
      role;
      epoch = 1;
      alive = true;
      cur_tick = 0;
      last_hb_tick = 0;
      intervals = [];
      grace = false;
      hb_seq = 0;
      acked = 0;
      replica_inflight = [];
      stats =
        {
          promotions = 0;
          demotions = 0;
          heartbeats_sent = 0;
          heartbeats_seen = 0;
          stale_rejects = 0;
          entries_shipped = 0;
          entries_applied = 0;
          inflight_seen = 0;
          replayed = 0;
          promotion_ticks = [];
        };
    }
  in
  Nm.set_ha_hook nm (fun ~src msg -> on_msg t ~src msg);
  (* compaction keeps whatever the standby has not acknowledged; a
     standby's own cursor stays 0, so it keeps its whole journal *)
  Intent.set_floor (Nm.journal nm) (fun () -> t.acked);
  (* continuous replication: every journal append and in-flight delta on
     the acting primary streams to the standby as it happens *)
  Intent.on_append (Nm.journal nm) (fun entry ->
      if t.alive && t.role = Primary then ship_entry t (journal_len t) entry);
  Nm.set_repl_hooks nm
    ~on_add:(fun (req, dst, msg) ->
      if t.alive && t.role = Primary then
        send_peer t (Wire.Ha_inflight { epoch = t.epoch; req; dst; msg }))
    ~on_confirm:(fun req ->
      if t.alive && t.role = Primary then
        send_peer t (Wire.Ha_confirm { epoch = t.epoch; req }));
  t

(* Wires a primary/standby pair: bootstraps the standby with a one-shot
   replication (topology, scripts, journal prefix, in-flight set), marks
   the journal prefix as already acked, and fences the primary at epoch 1
   so every frame it sends carries a rejectable leadership claim. *)
let pair ?config ~primary ~standby () =
  let p = create ?config ~role:Primary ~peer:(Nm.my_id standby) primary in
  let s = create ?config ~role:Standby ~peer:(Nm.my_id primary) standby in
  Nm.replicate_to primary ~standby;
  p.acked <- Intent.length (Nm.journal primary);
  Nm.set_epoch primary 1;
  (p, s)

let role t = t.role
let epoch t = t.epoch
let is_alive t = t.alive
let nm t = t.nm
let promotions t = t.stats.promotions
let demotions t = t.stats.demotions
let heartbeats_seen t = t.stats.heartbeats_seen
let entries_applied t = t.stats.entries_applied
let replayed t = t.stats.replayed
let promotion_ticks t = List.rev t.stats.promotion_ticks
let replica_inflight_count t = List.length t.replica_inflight

(* Registry-source form of the stats (see Obs.Registry in lib/obs). *)
let obs_counters t =
  [
    ("promotions", t.stats.promotions);
    ("demotions", t.stats.demotions);
    ("heartbeats_sent", t.stats.heartbeats_sent);
    ("heartbeats_seen", t.stats.heartbeats_seen);
    ("stale_rejects", t.stats.stale_rejects);
    ("entries_shipped", t.stats.entries_shipped);
    ("entries_applied", t.stats.entries_applied);
    ("inflight_seen", t.stats.inflight_seen);
    ("replayed", t.stats.replayed);
  ]
