(* The interface every CONMan protocol module implements, and the
   environment its device's management agent provides to it.

   A protocol module is a wrapper around an existing protocol implementation
   (here: the netsim data plane, driven through the same device-level
   commands as the "today" scripts). It exposes the generic abstraction and
   translates the NM's primitives into low-level state, coordinating
   protocol-specific parameters with its peers via conveyMessage. *)

type env = {
  device : Netsim.Device.t;
  my_dev : string; (* device id *)
  (* conveyMessage: module-to-module communication relayed by the NM. *)
  convey : src:Ids.t -> dst:Ids.t -> Peer_msg.t -> unit;
  (* unsolicited module-to-NM messages (Completion, Trigger). *)
  notify_nm : Wire.t -> unit;
  (* intra-device listFieldsAndValues: query another local module. *)
  local_query : Ids.t -> string -> string option;
  (* NM knowledge shipped in the bundle annex (§III-C). *)
  domain_prefix : string -> string option;
  domains : unit -> (string * string) list;
  is_reporter : Ids.t -> bool;
  (* Ask the agent to re-poll all modules: deferred work may now be ready. *)
  progress : unit -> unit;
  schedule : delay_ns:int64 -> (unit -> unit) -> unit;
}

(* Our position on a pipe: [`Top] means the pipe hangs below us (it is our
   down pipe); [`Bottom] means it is our up pipe. *)
type role = [ `Top | `Bottom ]

type t = {
  mref : Ids.t;
  abstraction : unit -> Abstraction.t;
  create_pipe : Primitive.pipe_spec -> role -> unit;
  delete_pipe : string -> unit;
  create_switch : Primitive.switch_rule -> unit;
  delete_switch : Primitive.switch_rule -> unit;
  create_filter : drop_src:Ids.t -> drop_dst:Ids.t -> unit;
  delete_filter : drop_src:Ids.t -> drop_dst:Ids.t -> unit;
  create_perf : pipe_id:string -> rate_kbps:int -> unit;
  delete_perf : pipe_id:string -> unit;
  set_address : addr:string -> plen:int -> unit;
  on_peer : src:Ids.t -> Peer_msg.t -> unit;
  (* low-level field lookup backing listFieldsAndValues *)
  fields : string -> string option;
  actual : unit -> (string * string) list;
  (* showPerf: per-pipe monotonic counter snapshots (the performance aspect
     of the abstraction); keys must cover the advertised perf_reporting *)
  perf : unit -> (string * (string * int) list) list;
  (* retry deferred work (switch rules waiting on peer coordination) *)
  poll : unit -> unit;
  (* [against]: probe data-plane connectivity towards that module rather
     than the default local/peer checks (used by the NM's end-to-end
     fault localisation) *)
  self_test : against:Ids.t option -> reply:(ok:bool -> detail:string -> unit) -> unit;
}

let no_op_module mref abstraction =
  {
    mref;
    abstraction;
    create_pipe = (fun _ _ -> ());
    delete_pipe = ignore;
    create_switch = ignore;
    delete_switch = ignore;
    create_filter = (fun ~drop_src:_ ~drop_dst:_ -> ());
    delete_filter = (fun ~drop_src:_ ~drop_dst:_ -> ());
    create_perf = (fun ~pipe_id:_ ~rate_kbps:_ -> ());
    delete_perf = (fun ~pipe_id:_ -> ());
    set_address = (fun ~addr:_ ~plen:_ -> ());
    on_peer = (fun ~src:_ _ -> ());
    fields = (fun _ -> None);
    actual = (fun () -> []);
    perf = (fun () -> []);
    poll = ignore;
    self_test = (fun ~against:_ ~reply -> reply ~ok:true ~detail:"no-op");
  }

(* Deterministic initiator election between two peer modules. *)
let initiates (me : Ids.t) (peer : Ids.t) =
  compare (me.Ids.dev, me.Ids.mid) (peer.Ids.dev, peer.Ids.mid) < 0

(* Runs one device-level command through the Linux CLI wrapper, the same
   interpreter the "today" scripts use. The command is an argument vector,
   as a module that wraps the real tool would hand it to execve. *)
let run device argv = ignore (Devconf.Linux_cli.exec device argv)

(* A command line, split on spaces: the IP module's form, whose lines are
   also its showActual record and its undo log. *)
let run_cmd device line = run device (String.split_on_char ' ' line |> List.filter (( <> ) ""))

(* A showPerf entry: each (reported name, counter name) pair's counter is
   interned once, when the reader is built; the reader then reads a
   counter set by key, or reports zeros when there is none. *)
let report fields =
  let keyed = List.map (fun (name, counter) -> (name, Netsim.Counters.key counter)) fields in
  function
  | Some counters -> List.map (fun (name, k) -> (name, Netsim.Counters.value counters k)) keyed
  | None -> List.map (fun (name, _) -> (name, 0)) keyed

(* "rx=<n> tx=<m>": the traffic a showActual entry reports, its two
   counters interned once, as [report]'s. *)
let traffic ~rx ~tx =
  let rx = Netsim.Counters.key rx and tx = Netsim.Counters.key tx in
  fun counters ->
    "rx=" ^ string_of_int (Netsim.Counters.value counters rx) ^ " tx="
    ^ string_of_int (Netsim.Counters.value counters tx)
