(* Messages exchanged between the NM and the management agents over the
   management channel, and their byte encoding. *)

type annex = {
  (* NM knowledge shipped alongside a script bundle: address-domain
     resolutions and role hints. This mirrors the paper's §III-C admission
     that the NM explicitly knows IP addresses and domains; it is not part
     of the counted CONMan script. *)
  domains : (string * string) list; (* domain name -> prefix *)
  reporter : Ids.t option; (* module that reports path completion *)
}

let empty_annex = { domains = []; reporter = None }

type t =
  (* device -> NM: physical connectivity announcement *)
  | Hello of { ports : (string * string * string) list (* port, peer dev, peer port *) }
  (* NM -> device *)
  | Show_potential_req of { req : int }
  | Show_actual_req of { req : int }
  (* showActual unless the device's state still carries [tag] (see
     [state_tag]): the drift check's read of a device it checked before *)
  | Show_actual_unless of { req : int; tag : string }
  (* showPerf: the generic query over the abstraction's performance aspect —
     per-pipe counter snapshots from every module (§II-B's perf reporting) *)
  | Show_perf_req of { req : int }
  | Bundle of { req : int; cmds : Primitive.t list; annex : annex }
  | Nm_takeover of { nm : string; epoch : int }
      (* a standby NM announces it is now primary, under a new leadership
         epoch; agents reject announcements that are not strictly newer *)
  (* Leadership fence: an NM holding a non-zero epoch wraps everything it
     sends, so agents can reject frames from a deposed primary. Unwrapped
     frames are treated as epoch 0 (the single-NM legacy mode). *)
  | Fenced of { epoch : int; msg : t }
  (* Trace context piggyback: a goal-bearing frame (bundle, federation
     message) carries the span doing the work, so the receiving station
     can parent its own spans correctly and lower layers can attribute
     retries/sheds to the goal. Unwrapped frames simply have no trace. *)
  | Traced of { ctx : Obs.Trace.ctx; msg : t }
  (* NM <-> NM high availability (lib/core/ha.ml): heartbeats for failure
     detection and continuous journal/in-flight replication to the standby *)
  | Ha_heartbeat of { epoch : int; seq : int }
  | Ha_journal of { epoch : int; seq : int; entry : Intent.entry }
  | Ha_journal_ack of { epoch : int; upto : int }
  | Ha_inflight of { epoch : int; req : int; dst : string; msg : t }
  | Ha_confirm of { epoch : int; req : int }
  (* explicit address assignment by the NM (§II-E: the one task the paper
     keeps protocol-specific and centralised, like a DHCP server) *)
  | Set_address of { req : int; target : Ids.t; addr : string; plen : int }
  | Self_test_req of { req : int; target : Ids.t; against : Ids.t option }
  (* device -> NM *)
  | Show_potential_resp of { req : int; modules : (Ids.t * Abstraction.t) list }
  | Show_actual_resp of { req : int; state : (Ids.t * (string * string) list) list }
  (* the answer to [Show_actual_unless] when the tags match *)
  | Show_actual_unchanged of { req : int }
  (* per module: pipe id -> monotonic counter snapshot; and the
     [state_tag] of the device's showActual state *)
  | Show_perf_resp of {
      req : int;
      tag : string;
      perf : (Ids.t * (string * (string * int) list) list) list;
    }
  | Bundle_ack of { req : int } (* explicit success: the bundle was applied *)
  | Ack of { req : int } (* generic ack for requests without a richer reply *)
  | Bundle_err of { req : int; error : string }
  | Self_test_resp of { req : int; target : Ids.t; ok : bool; detail : string }
  | Completion of { src : Ids.t; what : string }
  | Trigger of { src : Ids.t; field : string; value : string }
  (* module -> NM -> module *)
  | Convey of { src : Ids.t; dst : Ids.t; payload : Peer_msg.t }
  (* NM <-> NM federation (lib/federation): each NM owns one administrative
     domain; cross-domain goals are planned by the goal's home NM and
     executed by delegation. Adverts export only border modules plus an
     abridged reachability summary — never the raw internal topology. *)
  | Fed_advert of {
      domain : string; (* administrative domain name *)
      nm : string; (* station id of the owning NM *)
      borders : Ids.t list; (* border modules facing other domains *)
      summary : (string * int) list; (* customer domain -> reachable-module count *)
      devices : string list; (* device ids the NM owns (for relay routing) *)
    }
  (* coordinator -> peer: expand the peer's segment of a goal — the walk
     from [entry_dev] (the peer's border device) towards [target] *)
  | Fed_plan_req of { req : int; domain : string; entry_dev : string; target : Ids.t }
  (* peer -> coordinator: the scoped expansion — per device on the segment,
     its links and module abstractions, plus the address knowledge needed
     to plan over them *)
  | Fed_plan_resp of {
      req : int;
      devices : (string * (string * string * string) list * (Ids.t * Abstraction.t) list) list;
      module_domains : (Ids.t * string) list;
      prefixes : (string * string) list;
    }
  | Fed_plan_err of { req : int; error : string }
  (* two-phase stitched execution: the coordinator ships each peer its
     per-device slices of the one global script; the peer acks only once
     every slice is confirmed by its devices. [domain] names the
     coordinator so (domain, gid) is unique across coordinators. *)
  | Fed_commit of {
      domain : string;
      gid : int;
      slices : (string * Primitive.t list) list;
      reporter : Ids.t option;
    }
  | Fed_commit_ack of { gid : int }
  | Fed_commit_err of { gid : int; error : string }
  (* distributed back-out: every participant dismantles its slices, so no
     domain is left half-configured when a segment fails *)
  | Fed_abort of { domain : string; gid : int }
  | Fed_abort_ack of { gid : int }
  (* cross-domain conveyMessage: the NM owning the source module forwards
     the opaque payload to the NM owning the destination module *)
  | Fed_relay of { src : Ids.t; dst : Ids.t; payload : Peer_msg.t }

let annex_to_sexp a =
  Sexp.List
    [
      Sexp.List (List.map (Sexp.of_pair Sexp.atom Sexp.atom) a.domains);
      Sexp.of_option Sexp.of_mref a.reporter;
    ]

let annex_of_sexp = function
  | Sexp.List [ Sexp.List d; r ] ->
      {
        domains = List.map (Sexp.to_pair Sexp.to_atom Sexp.to_atom) d;
        reporter = Sexp.to_option Sexp.to_mref r;
      }
  | _ -> raise (Sexp.Parse_error "annex")

let rec to_sexp msg =
  let a = Sexp.atom in
  match msg with
  | Hello { ports } ->
      Sexp.List
        [
          a "hello";
          Sexp.List
            (List.map (fun (p, d, pp) -> Sexp.List [ a p; a d; a pp ]) ports);
        ]
  | Show_potential_req { req } -> Sexp.List [ a "show-potential"; Sexp.of_int req ]
  | Show_actual_req { req } -> Sexp.List [ a "show-actual"; Sexp.of_int req ]
  | Show_actual_unless { req; tag } -> Sexp.List [ a "show-actual-unless"; Sexp.of_int req; a tag ]
  | Show_perf_req { req } -> Sexp.List [ a "show-perf"; Sexp.of_int req ]
  | Bundle { req; cmds; annex } ->
      Sexp.List
        [ a "bundle"; Sexp.of_int req; Sexp.List (List.map Primitive.to_sexp cmds); annex_to_sexp annex ]
  | Nm_takeover { nm; epoch } -> Sexp.List [ a "nm-takeover"; a nm; Sexp.of_int epoch ]
  | Fenced { epoch; msg } -> Sexp.List [ a "fenced"; Sexp.of_int epoch; to_sexp msg ]
  | Traced { ctx; msg } -> Sexp.List [ a "traced"; Obs_codec.ctx_to_sexp ctx; to_sexp msg ]
  | Ha_heartbeat { epoch; seq } ->
      Sexp.List [ a "ha-heartbeat"; Sexp.of_int epoch; Sexp.of_int seq ]
  | Ha_journal { epoch; seq; entry } ->
      Sexp.List [ a "ha-journal"; Sexp.of_int epoch; Sexp.of_int seq; Intent.entry_to_sexp entry ]
  | Ha_journal_ack { epoch; upto } ->
      Sexp.List [ a "ha-journal-ack"; Sexp.of_int epoch; Sexp.of_int upto ]
  | Ha_inflight { epoch; req; dst; msg } ->
      Sexp.List [ a "ha-inflight"; Sexp.of_int epoch; Sexp.of_int req; a dst; to_sexp msg ]
  | Ha_confirm { epoch; req } ->
      Sexp.List [ a "ha-confirm"; Sexp.of_int epoch; Sexp.of_int req ]
  | Set_address { req; target; addr; plen } ->
      Sexp.List [ a "set-address"; Sexp.of_int req; Sexp.of_mref target; a addr; Sexp.of_int plen ]
  | Self_test_req { req; target; against } ->
      Sexp.List
        [ a "self-test"; Sexp.of_int req; Sexp.of_mref target; Sexp.of_option Sexp.of_mref against ]
  | Show_potential_resp { req; modules } ->
      Sexp.List
        [
          a "potential";
          Sexp.of_int req;
          Sexp.List (List.map (fun (m, ab) -> Sexp.List [ Sexp.of_mref m; Abstraction.to_sexp ab ]) modules);
        ]
  | Show_actual_resp { req; state } ->
      Sexp.List
        [
          a "actual";
          Sexp.of_int req;
          Sexp.List
            (List.map
               (fun (m, kvs) ->
                 Sexp.List
                   [ Sexp.of_mref m; Sexp.List (List.map (Sexp.of_pair a a) kvs) ])
               state);
        ]
  | Show_perf_resp { req; tag; perf } ->
      Sexp.List
        [
          a "perf";
          Sexp.of_int req;
          a tag;
          Sexp.List
            (List.map
               (fun (m, pipes) ->
                 Sexp.List
                   [
                     Sexp.of_mref m;
                     Sexp.List
                       (List.map
                          (fun (pipe, kvs) ->
                            Sexp.List
                              [ a pipe; Sexp.List (List.map (Sexp.of_pair a Sexp.of_int) kvs) ])
                          pipes);
                   ])
               perf);
        ]
  | Show_actual_unchanged { req } -> Sexp.List [ a "actual-unchanged"; Sexp.of_int req ]
  | Bundle_ack { req } -> Sexp.List [ a "bundle-ack"; Sexp.of_int req ]
  | Ack { req } -> Sexp.List [ a "ack"; Sexp.of_int req ]
  | Bundle_err { req; error } -> Sexp.List [ a "bundle-err"; Sexp.of_int req; a error ]
  | Self_test_resp { req; target; ok; detail } ->
      Sexp.List [ a "self-test-resp"; Sexp.of_int req; Sexp.of_mref target; Sexp.of_bool ok; a detail ]
  | Completion { src; what } -> Sexp.List [ a "completion"; Sexp.of_mref src; a what ]
  | Trigger { src; field; value } -> Sexp.List [ a "trigger"; Sexp.of_mref src; a field; a value ]
  | Convey { src; dst; payload } ->
      Sexp.List [ a "convey"; Sexp.of_mref src; Sexp.of_mref dst; Peer_msg.to_sexp payload ]
  | Fed_advert { domain; nm; borders; summary; devices } ->
      Sexp.List
        [
          a "fed-advert";
          a domain;
          a nm;
          Sexp.List (List.map Sexp.of_mref borders);
          Sexp.List (List.map (Sexp.of_pair a Sexp.of_int) summary);
          Sexp.List (List.map a devices);
        ]
  | Fed_plan_req { req; domain; entry_dev; target } ->
      Sexp.List [ a "fed-plan"; Sexp.of_int req; a domain; a entry_dev; Sexp.of_mref target ]
  | Fed_plan_resp { req; devices; module_domains; prefixes } ->
      Sexp.List
        [
          a "fed-plan-resp";
          Sexp.of_int req;
          Sexp.List
            (List.map
               (fun (dev, links, mods) ->
                 Sexp.List
                   [
                     a dev;
                     Sexp.List (List.map (fun (p, d, pp) -> Sexp.List [ a p; a d; a pp ]) links);
                     Sexp.List
                       (List.map (fun (m, ab) -> Sexp.List [ Sexp.of_mref m; Abstraction.to_sexp ab ]) mods);
                   ])
               devices);
          Sexp.List (List.map (Sexp.of_pair Sexp.of_mref a) module_domains);
          Sexp.List (List.map (Sexp.of_pair a a) prefixes);
        ]
  | Fed_plan_err { req; error } -> Sexp.List [ a "fed-plan-err"; Sexp.of_int req; a error ]
  | Fed_commit { domain; gid; slices; reporter } ->
      Sexp.List
        [
          a "fed-commit";
          a domain;
          Sexp.of_int gid;
          Sexp.List
            (List.map
               (fun (dev, prims) -> Sexp.List [ a dev; Sexp.List (List.map Primitive.to_sexp prims) ])
               slices);
          Sexp.of_option Sexp.of_mref reporter;
        ]
  | Fed_commit_ack { gid } -> Sexp.List [ a "fed-commit-ack"; Sexp.of_int gid ]
  | Fed_commit_err { gid; error } -> Sexp.List [ a "fed-commit-err"; Sexp.of_int gid; a error ]
  | Fed_abort { domain; gid } -> Sexp.List [ a "fed-abort"; a domain; Sexp.of_int gid ]
  | Fed_abort_ack { gid } -> Sexp.List [ a "fed-abort-ack"; Sexp.of_int gid ]
  | Fed_relay { src; dst; payload } ->
      Sexp.List [ a "fed-relay"; Sexp.of_mref src; Sexp.of_mref dst; Peer_msg.to_sexp payload ]

let rec of_sexp sexp =
  let s = Sexp.to_atom in
  match sexp with
  | Sexp.List [ Sexp.Atom "hello"; Sexp.List ports ] ->
      Hello
        {
          ports =
            List.map
              (function
                | Sexp.List [ p; d; pp ] -> (s p, s d, s pp)
                | _ -> raise (Sexp.Parse_error "hello port"))
              ports;
        }
  | Sexp.List [ Sexp.Atom "show-potential"; req ] -> Show_potential_req { req = Sexp.to_int req }
  | Sexp.List [ Sexp.Atom "show-actual"; req ] -> Show_actual_req { req = Sexp.to_int req }
  | Sexp.List [ Sexp.Atom "show-actual-unless"; req; tag ] ->
      Show_actual_unless { req = Sexp.to_int req; tag = s tag }
  | Sexp.List [ Sexp.Atom "show-perf"; req ] -> Show_perf_req { req = Sexp.to_int req }
  | Sexp.List [ Sexp.Atom "bundle"; req; Sexp.List cmds; annex ] ->
      Bundle
        { req = Sexp.to_int req; cmds = List.map Primitive.of_sexp cmds; annex = annex_of_sexp annex }
  | Sexp.List [ Sexp.Atom "nm-takeover"; nm; epoch ] ->
      Nm_takeover { nm = s nm; epoch = Sexp.to_int epoch }
  | Sexp.List [ Sexp.Atom "fenced"; epoch; msg ] ->
      Fenced { epoch = Sexp.to_int epoch; msg = of_sexp msg }
  | Sexp.List [ Sexp.Atom "traced"; ctx; msg ] ->
      Traced { ctx = Obs_codec.ctx_of_sexp ctx; msg = of_sexp msg }
  | Sexp.List [ Sexp.Atom "ha-heartbeat"; epoch; seq ] ->
      Ha_heartbeat { epoch = Sexp.to_int epoch; seq = Sexp.to_int seq }
  | Sexp.List [ Sexp.Atom "ha-journal"; epoch; seq; entry ] ->
      Ha_journal
        { epoch = Sexp.to_int epoch; seq = Sexp.to_int seq; entry = Intent.entry_of_sexp entry }
  | Sexp.List [ Sexp.Atom "ha-journal-ack"; epoch; upto ] ->
      Ha_journal_ack { epoch = Sexp.to_int epoch; upto = Sexp.to_int upto }
  | Sexp.List [ Sexp.Atom "ha-inflight"; epoch; req; dst; msg ] ->
      Ha_inflight
        { epoch = Sexp.to_int epoch; req = Sexp.to_int req; dst = s dst; msg = of_sexp msg }
  | Sexp.List [ Sexp.Atom "ha-confirm"; epoch; req ] ->
      Ha_confirm { epoch = Sexp.to_int epoch; req = Sexp.to_int req }
  | Sexp.List [ Sexp.Atom "set-address"; req; t; addr; plen ] ->
      Set_address
        { req = Sexp.to_int req; target = Sexp.to_mref t; addr = s addr; plen = Sexp.to_int plen }
  | Sexp.List [ Sexp.Atom "self-test"; req; t; against ] ->
      Self_test_req
        { req = Sexp.to_int req; target = Sexp.to_mref t; against = Sexp.to_option Sexp.to_mref against }
  | Sexp.List [ Sexp.Atom "potential"; req; Sexp.List mods ] ->
      Show_potential_resp
        {
          req = Sexp.to_int req;
          modules =
            List.map
              (function
                | Sexp.List [ m; ab ] -> (Sexp.to_mref m, Abstraction.of_sexp ab)
                | _ -> raise (Sexp.Parse_error "potential module"))
              mods;
        }
  | Sexp.List [ Sexp.Atom "actual"; req; Sexp.List mods ] ->
      Show_actual_resp
        {
          req = Sexp.to_int req;
          state =
            List.map
              (function
                | Sexp.List [ m; Sexp.List kvs ] ->
                    (Sexp.to_mref m, List.map (Sexp.to_pair s s) kvs)
                | _ -> raise (Sexp.Parse_error "actual module"))
              mods;
        }
  | Sexp.List [ Sexp.Atom "perf"; req; tag; Sexp.List mods ] ->
      Show_perf_resp
        {
          req = Sexp.to_int req;
          tag = s tag;
          perf =
            List.map
              (function
                | Sexp.List [ m; Sexp.List pipes ] ->
                    ( Sexp.to_mref m,
                      List.map
                        (function
                          | Sexp.List [ pipe; Sexp.List kvs ] ->
                              (s pipe, List.map (Sexp.to_pair s Sexp.to_int) kvs)
                          | _ -> raise (Sexp.Parse_error "perf pipe"))
                        pipes )
                | _ -> raise (Sexp.Parse_error "perf module"))
              mods;
        }
  | Sexp.List [ Sexp.Atom "actual-unchanged"; req ] ->
      Show_actual_unchanged { req = Sexp.to_int req }
  | Sexp.List [ Sexp.Atom "bundle-ack"; req ] -> Bundle_ack { req = Sexp.to_int req }
  | Sexp.List [ Sexp.Atom "ack"; req ] -> Ack { req = Sexp.to_int req }
  | Sexp.List [ Sexp.Atom "bundle-err"; req; e ] ->
      Bundle_err { req = Sexp.to_int req; error = s e }
  | Sexp.List [ Sexp.Atom "self-test-resp"; req; t; ok; d ] ->
      Self_test_resp
        { req = Sexp.to_int req; target = Sexp.to_mref t; ok = Sexp.to_bool ok; detail = s d }
  | Sexp.List [ Sexp.Atom "completion"; src; what ] ->
      Completion { src = Sexp.to_mref src; what = s what }
  | Sexp.List [ Sexp.Atom "trigger"; src; f; v ] ->
      Trigger { src = Sexp.to_mref src; field = s f; value = s v }
  | Sexp.List [ Sexp.Atom "convey"; src; dst; p ] ->
      Convey { src = Sexp.to_mref src; dst = Sexp.to_mref dst; payload = Peer_msg.of_sexp p }
  | Sexp.List [ Sexp.Atom "fed-advert"; domain; nm; Sexp.List borders; Sexp.List summary; Sexp.List devices ] ->
      Fed_advert
        {
          domain = s domain;
          nm = s nm;
          borders = List.map Sexp.to_mref borders;
          summary = List.map (Sexp.to_pair s Sexp.to_int) summary;
          devices = List.map s devices;
        }
  | Sexp.List [ Sexp.Atom "fed-plan"; req; domain; entry; target ] ->
      Fed_plan_req
        { req = Sexp.to_int req; domain = s domain; entry_dev = s entry; target = Sexp.to_mref target }
  | Sexp.List [ Sexp.Atom "fed-plan-resp"; req; Sexp.List devices; Sexp.List md; Sexp.List pfx ] ->
      Fed_plan_resp
        {
          req = Sexp.to_int req;
          devices =
            List.map
              (function
                | Sexp.List [ dev; Sexp.List links; Sexp.List mods ] ->
                    ( s dev,
                      List.map
                        (function
                          | Sexp.List [ p; d; pp ] -> (s p, s d, s pp)
                          | _ -> raise (Sexp.Parse_error "fed-plan link"))
                        links,
                      List.map
                        (function
                          | Sexp.List [ m; ab ] -> (Sexp.to_mref m, Abstraction.of_sexp ab)
                          | _ -> raise (Sexp.Parse_error "fed-plan module"))
                        mods )
                | _ -> raise (Sexp.Parse_error "fed-plan device"))
              devices;
          module_domains = List.map (Sexp.to_pair Sexp.to_mref s) md;
          prefixes = List.map (Sexp.to_pair s s) pfx;
        }
  | Sexp.List [ Sexp.Atom "fed-plan-err"; req; e ] ->
      Fed_plan_err { req = Sexp.to_int req; error = s e }
  | Sexp.List [ Sexp.Atom "fed-commit"; domain; gid; Sexp.List slices; reporter ] ->
      Fed_commit
        {
          domain = s domain;
          gid = Sexp.to_int gid;
          slices =
            List.map
              (function
                | Sexp.List [ dev; Sexp.List prims ] -> (s dev, List.map Primitive.of_sexp prims)
                | _ -> raise (Sexp.Parse_error "fed-commit slice"))
              slices;
          reporter = Sexp.to_option Sexp.to_mref reporter;
        }
  | Sexp.List [ Sexp.Atom "fed-commit-ack"; gid ] -> Fed_commit_ack { gid = Sexp.to_int gid }
  | Sexp.List [ Sexp.Atom "fed-commit-err"; gid; e ] ->
      Fed_commit_err { gid = Sexp.to_int gid; error = s e }
  | Sexp.List [ Sexp.Atom "fed-abort"; domain; gid ] ->
      Fed_abort { domain = s domain; gid = Sexp.to_int gid }
  | Sexp.List [ Sexp.Atom "fed-abort-ack"; gid ] -> Fed_abort_ack { gid = Sexp.to_int gid }
  | Sexp.List [ Sexp.Atom "fed-relay"; src; dst; p ] ->
      Fed_relay { src = Sexp.to_mref src; dst = Sexp.to_mref dst; payload = Peer_msg.of_sexp p }
  | _ -> raise (Sexp.Parse_error "wire message")

let encode t = Bytes.of_string (Sexp.to_string (to_sexp t))

(* Decode must be total up to [Sexp.Parse_error]: the payload arrived off
   the wire, and a malformed frame (fuzzed, corrupted, or from a buggy
   peer) must surface as a parse error the caller already handles — never
   as a Match_failure or Failure escaping from a nested codec. *)
let decode b =
  try of_sexp (Sexp.of_string (Bytes.to_string b)) with
  | Sexp.Parse_error _ as e -> raise e
  | _ -> raise (Sexp.Parse_error "undecodable wire message")

(* Admission-control class of a message, 0 (never shed) to 3 (shed first).
   The class of a fenced frame is the class of what it carries. *)
let rec priority_of = function
  | Ha_heartbeat _ | Nm_takeover _ -> 0
  | Fenced { msg; _ } | Traced { msg; _ } -> priority_of msg
  | Bundle _ | Bundle_ack _ | Bundle_err _ | Ack _ | Set_address _ | Ha_journal _
  | Ha_journal_ack _ | Ha_inflight _ | Ha_confirm _
  (* inter-NM federation traffic rides with scripts: a shed advert or
     commit would wedge a cross-domain goal exactly when the plane is
     stressed *)
  | Fed_advert _ | Fed_plan_req _ | Fed_plan_resp _ | Fed_plan_err _ | Fed_commit _
  | Fed_commit_ack _ | Fed_commit_err _ | Fed_abort _ | Fed_abort_ack _ | Fed_relay _
  (* a module-to-module convey is part of a script, as its cross-domain
     form [Fed_relay] is: the NM relays every one of them from its own
     budget, and a shed label binding leaves an LSP half-built *)
  | Convey _ ->
      1
  | Hello _ | Show_potential_req _ | Show_potential_resp _ | Show_actual_req _
  | Show_actual_unless _ | Show_actual_resp _ | Show_actual_unchanged _ | Self_test_req _
  | Self_test_resp _ | Completion _ | Trigger _ ->
      2
  | Show_perf_req _ | Show_perf_resp _ -> 3

(* The digest of a showActual state's module ids and keys, leaving out
   the values (traffic counters and other readings that move without a
   configuration change). Each string goes in behind its length, so two
   states share a tag exactly when their (module, keys) lists are equal. *)
let state_tag state =
  let b = Buffer.create 512 in
  let add s =
    Buffer.add_int32_le b (Int32.of_int (String.length s));
    Buffer.add_string b s
  in
  List.iter
    (fun ((m : Ids.t), kvs) ->
      add m.Ids.name;
      add m.Ids.mid;
      add m.Ids.dev;
      Buffer.add_int32_le b (Int32.of_int (List.length kvs));
      List.iter (fun (k, _) -> add k) kvs)
    state;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The trace context a frame carries, looking through fences. *)
let rec trace_of = function
  | Traced { ctx; _ } -> Some ctx
  | Fenced { msg; _ } -> trace_of msg
  | _ -> None

let equal a b = to_sexp a = to_sexp b
let pp ppf t = Sexp.pp ppf (to_sexp t)
