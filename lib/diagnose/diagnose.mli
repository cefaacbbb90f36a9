(** Fault diagnosis over the showPerf telemetry scrape.

    A bounded time-series store of per-(device, module, pipe) counter
    deltas, anomaly flags over it, and a root-cause localizer that walks a
    configured path's dependency chain (as hops and inter-device segments)
    and emits a ranked diagnosis. Protocol-agnostic: it only understands
    the standardized counter names every module reports per pipe —
    [up_frames]/[up_bytes] (traffic delivered upwards), [down_frames]/
    [down_bytes] (traffic pushed downwards) and [drop:<cause>].

    Each series is a fixed ring of [window] samples with its cumulative
    totals kept beside it, so an observation costs O(counters): one pass
    over the new snapshot in step with the previous one, one ring slot
    overwritten, the totals updated in place. *)

type t

type key = { device : string; module_id : string; pipe : string }

type sample = { at_ns : int64; deltas : (string * int) list }

val create : ?window:int -> unit -> t
(** [window] bounds the per-series delta ring (default 32); older samples
    are evicted and counted in {!dropped}. *)

val observe :
  t -> at_ns:int64 -> device:string -> module_id:string -> pipe:string -> (string * int) list -> unit
(** Feeds one absolute (monotonic) counter snapshot. The first observation
    of a series only sets its baseline; subsequent ones push the
    scrape-to-scrape delta into the ring, in the snapshot's order: a
    counter absent from the previous snapshot counts from 0, one that went
    backwards (a reset) reports 0. Counter names are unique within a
    snapshot. *)

val note_unreachable : t -> string -> unit
(** The device failed to answer a showPerf round. *)

val note_reachable : t -> string -> unit
val is_silent : t -> string -> bool

val samples : t -> key -> sample list
(** Oldest first. *)

val dropped : t -> key -> int
(** Samples evicted from the series' ring. *)

val recent : ?n:int -> t -> key -> string -> int
(** Sum of the last [n] (default 3) deltas of a counter. *)

val total : t -> key -> string -> int
(** Cumulative delta since the series' baseline. *)

(** {1 Anomaly flags} *)

type anomaly =
  | Stalled of key * string  (** counter previously active, flat over the recent window *)
  | Asymmetric of key  (** one direction moving while the other (once active) is flat *)
  | Rising_drops of key * string * int  (** a [drop:<cause>] counter increased last scrape *)
  | Silent of string * int  (** device unanswering for n scrape rounds *)

val pp_anomaly : anomaly Fmt.t
val anomalies : t -> anomaly list

(** {1 Root-cause localization} *)

type hop = {
  h_dev : string;
  h_modules : string list;  (** qualified module ids the path visits on this device *)
}

type seg = {
  s_name : string;  (** reported link name, e.g. ["id-A--id-B"] *)
  s_from : string;  (** tx-side device *)
  s_from_module : string;
  s_from_pipe : string;
  s_to : string;  (** rx-side device *)
  s_to_module : string;
  s_to_pipe : string;
}

type verdict =
  | Cut_link of seg  (** the segment the localizer found cut, as it was given *)
  | Lossy_segment of seg
  | Misconfigured_module of { dev : string; module_id : string }
  | Unreachable_agent of string

type diagnosis = { verdict : verdict; confidence : float; evidence : string list }

val pp_verdict : verdict Fmt.t
val pp_diagnosis : diagnosis Fmt.t

val localize : t -> hops:hop list -> segs:seg list -> diagnosis list
(** Ranked (most confident first). Conservation arguments: frames sent
    onto a segment must arrive at the other end (else the link is cut or
    lossy); frames entering a transit device must leave it (else a module
    on it is misconfigured — the one with a rising drop cause is blamed);
    a hop that stopped answering showPerf is reported unreachable. *)
