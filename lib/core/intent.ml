(* Desired-state intents and their write-ahead journal.

   Every state-changing NM operation (achieve, achieve_l2, assign_address,
   enforce_rate) records an intent *before* configuring anything, so the
   desired state of the network survives an NM crash: a restarted NM replays
   the journal, rebuilds its intent set and re-converges. The journal is a
   plain sequence of sexp entries — Begin (the intent exists), Commit (its
   configuration was applied successfully at least once) and Retire (it was
   torn down) — so replay is a trivial left fold and duplicated Commits are
   harmless. Everything else on an intent (script, health, repair counters)
   is runtime state rebuilt by the monitor loop. The journal forgets all
   but the most recent retired intents (see [journal] below), so it stays
   bounded however many goals an NM serves. *)

type spec =
  | Connect of Path_finder.goal
  | Connect_l2 of { scope : string list; from_eth : Ids.t; to_eth : Ids.t }
  | Address of { target : Ids.t; addr : string; plen : int }
  | Rate of { owner : Ids.t; pipe_id : string; rate_kbps : int }

type status = Pending | Active | Degraded | Failed | Retired

type t = {
  id : int;
  spec : spec;
  mutable status : status;
  mutable script : Script_gen.script option; (* the configuration realising it *)
  mutable expected : (string * string list) list;
      (* per-device structural state keys snapshotted when last healthy —
         the baseline the monitor's drift check compares show_actual to *)
  mutable tags : (string * string) list;
      (* per device, the Wire.state_tag of the last show_actual the drift
         check found free of drift: its reads are conditional on it *)
  mutable tried : string list; (* path signatures tried since last healthy *)
  mutable journal_sig : string option;
      (* last path signature journalled by a Bind entry. After a crash the
         script itself is gone; this lets the recovered NM regenerate the
         dead incarnation's script and back its datapath state out before
         re-achieving, instead of leaking it. *)
  mutable repairs : int; (* successful re-achievements *)
  mutable repair_attempts : int; (* consecutive attempts since last healthy *)
  mutable probe_failures : int;
  mutable last_error : string option;
}

let make ~id spec =
  {
    id;
    spec;
    status = Pending;
    script = None;
    expected = [];
    tags = [];
    tried = [];
    journal_sig = None;
    repairs = 0;
    repair_attempts = 0;
    probe_failures = 0;
    last_error = None;
  }

let clear_baseline t =
  t.expected <- [];
  t.tags <- []

let note_error t e = t.last_error <- Some e
let spec_equal (a : spec) (b : spec) = a = b

let kind t =
  match t.spec with
  | Connect _ -> "connect"
  | Connect_l2 _ -> "connect-l2"
  | Address _ -> "address"
  | Rate _ -> "rate"

let status_to_string = function
  | Pending -> "pending"
  | Active -> "active"
  | Degraded -> "degraded"
  | Failed -> "failed"
  | Retired -> "retired"

(* --- sexp codec --------------------------------------------------------------- *)

let goal_to_sexp (g : Path_finder.goal) =
  Sexp.list
    [
      Sexp.of_mref g.Path_finder.g_from;
      Sexp.of_mref g.Path_finder.g_to;
      Sexp.atom g.Path_finder.g_customer;
      Sexp.atom g.Path_finder.g_src_domain;
      Sexp.atom g.Path_finder.g_dst_domain;
      Sexp.atom g.Path_finder.g_src_site;
      Sexp.atom g.Path_finder.g_dst_site;
      Sexp.list (List.map Sexp.atom g.Path_finder.g_tradeoffs);
      Sexp.list (List.map Sexp.atom g.Path_finder.g_scope);
    ]

let goal_of_sexp s =
  match Sexp.to_list s with
  | [ from_; to_; customer; src_dom; dst_dom; src_site; dst_site; tradeoffs; scope ] ->
      {
        Path_finder.g_from = Sexp.to_mref from_;
        g_to = Sexp.to_mref to_;
        g_customer = Sexp.to_atom customer;
        g_src_domain = Sexp.to_atom src_dom;
        g_dst_domain = Sexp.to_atom dst_dom;
        g_src_site = Sexp.to_atom src_site;
        g_dst_site = Sexp.to_atom dst_site;
        g_tradeoffs = List.map Sexp.to_atom (Sexp.to_list tradeoffs);
        g_scope = List.map Sexp.to_atom (Sexp.to_list scope);
      }
  | _ -> raise (Sexp.Parse_error "intent goal")

let spec_to_sexp = function
  | Connect g -> Sexp.list [ Sexp.atom "connect"; goal_to_sexp g ]
  | Connect_l2 { scope; from_eth; to_eth } ->
      Sexp.list
        [
          Sexp.atom "connect-l2";
          Sexp.list (List.map Sexp.atom scope);
          Sexp.of_mref from_eth;
          Sexp.of_mref to_eth;
        ]
  | Address { target; addr; plen } ->
      Sexp.list [ Sexp.atom "address"; Sexp.of_mref target; Sexp.atom addr; Sexp.of_int plen ]
  | Rate { owner; pipe_id; rate_kbps } ->
      Sexp.list [ Sexp.atom "rate"; Sexp.of_mref owner; Sexp.atom pipe_id; Sexp.of_int rate_kbps ]

let spec_of_sexp s =
  match Sexp.to_list s with
  | [ Sexp.Atom "connect"; g ] -> Connect (goal_of_sexp g)
  | [ Sexp.Atom "connect-l2"; scope; from_eth; to_eth ] ->
      Connect_l2
        {
          scope = List.map Sexp.to_atom (Sexp.to_list scope);
          from_eth = Sexp.to_mref from_eth;
          to_eth = Sexp.to_mref to_eth;
        }
  | [ Sexp.Atom "address"; target; addr; plen ] ->
      Address { target = Sexp.to_mref target; addr = Sexp.to_atom addr; plen = Sexp.to_int plen }
  | [ Sexp.Atom "rate"; owner; pipe_id; rate_kbps ] ->
      Rate
        {
          owner = Sexp.to_mref owner;
          pipe_id = Sexp.to_atom pipe_id;
          rate_kbps = Sexp.to_int rate_kbps;
        }
  | _ -> raise (Sexp.Parse_error "intent spec")

(* --- journal ------------------------------------------------------------------- *)

type entry = Begin of int * spec | Commit of int | Retire of int | Bind of int * string

let entry_to_sexp = function
  | Begin (id, spec) -> Sexp.list [ Sexp.atom "begin"; Sexp.of_int id; spec_to_sexp spec ]
  | Commit id -> Sexp.list [ Sexp.atom "commit"; Sexp.of_int id ]
  | Retire id -> Sexp.list [ Sexp.atom "retire"; Sexp.of_int id ]
  | Bind (id, s) -> Sexp.list [ Sexp.atom "bind"; Sexp.of_int id; Sexp.atom s ]

let entry_of_sexp s =
  match Sexp.to_list s with
  | [ Sexp.Atom "begin"; id; spec ] -> Begin (Sexp.to_int id, spec_of_sexp spec)
  | [ Sexp.Atom "commit"; id ] -> Commit (Sexp.to_int id)
  | [ Sexp.Atom "retire"; id ] -> Retire (Sexp.to_int id)
  | [ Sexp.Atom "bind"; id; sg ] -> Bind (Sexp.to_int id, Sexp.to_atom sg)
  | _ -> raise (Sexp.Parse_error "intent journal entry")

(* The retired intents a journal keeps, and the bound on the NM's log
   rings (Nm.log_capacity): one constant for all of an NM's history. *)
let log_capacity = 256

(* Compaction drops the entries of retired intents but never renumbers, so
   [length] keeps counting every entry ever appended. Replay never sees a
   retired intent and the newest intent is always held, so neither
   [replay] nor [next_id] changes. *)
type journal = {
  mutable log : (int * entry) list; (* held entries and their sequence numbers, newest first *)
  mutable length : int; (* entries ever appended: the newest sequence number *)
  mutable retired : int; (* retired intents held: those the last pass kept, plus Retires since *)
  mutable next_pass : int; (* compact when [retired] reaches this *)
  mutable compacted : int; (* retired intents dropped *)
  mutable floor : unit -> int;
  mutable sinks : (entry -> unit) list; (* durability hooks *)
}

let journal () =
  {
    log = [];
    length = 0;
    retired = 0;
    next_pass = 2 * log_capacity;
    compacted = 0;
    floor = (fun () -> max_int);
    sinks = [];
  }

let entry_id = function Begin (id, _) | Commit id | Retire id | Bind (id, _) -> id

let compact j =
  (* newest entry first: an id's first entry seen is its newest (an
     intent's Retire is its last entry) *)
  let newest = Hashtbl.create 64 and retired = ref [] in
  List.iter
    (fun (seq, e) ->
      let id = entry_id e in
      if not (Hashtbl.mem newest id) then Hashtbl.add newest id seq;
      match e with Retire _ -> retired := id :: !retired | Begin _ | Commit _ | Bind _ -> ())
    j.log;
  let retired = List.sort_uniq (fun a b -> compare b a) !retired in
  let floor = j.floor () and drop = Hashtbl.create 64 in
  List.iteri
    (fun rank id ->
      if rank >= log_capacity && Hashtbl.find newest id <= floor then Hashtbl.replace drop id ())
    retired;
  j.log <- List.filter (fun (_, e) -> not (Hashtbl.mem drop (entry_id e))) j.log;
  j.compacted <- j.compacted + Hashtbl.length drop;
  j.retired <- List.length retired - Hashtbl.length drop;
  (* what the floor pinned waits for another [log_capacity] retirements *)
  j.next_pass <- max (2 * log_capacity) (j.retired + log_capacity)

let push j seq e =
  j.length <- seq;
  j.log <- (seq, e) :: j.log;
  List.iter (fun sink -> sink e) j.sinks;
  match e with
  | Retire _ ->
      j.retired <- j.retired + 1;
      if j.retired >= j.next_pass then compact j
  | Begin _ | Commit _ | Bind _ -> ()

let append j e = push j (j.length + 1) e
let on_append j sink = j.sinks <- sink :: j.sinks
let set_floor j floor = j.floor <- floor
let length j = j.length
let compacted j = j.compacted
let entries j = List.rev_map snd j.log

let since j n =
  let rec tail acc = function
    | ((seq, _) as x) :: rest when seq > n -> tail (x :: acc) rest
    | _ -> acc
  in
  tail [] j.log

let catch_up j ~from =
  List.iter (fun (seq, e) -> push j seq e) (since from j.length);
  j.length <- max j.length from.length

let journal_to_string j =
  String.concat "\n" (List.map (fun e -> Sexp.to_string (entry_to_sexp e)) (entries j))

let journal_of_string s =
  let j = journal () in
  String.split_on_char '\n' s
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" then append j (entry_of_sexp (Sexp.of_string line)));
  j

(* Rebuilds the live intent set: Begin creates a Pending intent, Commit
   promotes it to Active (it was configured successfully at least once),
   Retire drops it. Returned in id order. *)
let replay j =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (function
      | Begin (id, spec) ->
          if not (Hashtbl.mem tbl id) then begin
            Hashtbl.add tbl id (make ~id spec);
            order := id :: !order
          end
      | Commit id -> (
          match Hashtbl.find_opt tbl id with Some i -> i.status <- Active | None -> ())
      | Retire id -> (
          match Hashtbl.find_opt tbl id with Some i -> i.status <- Retired | None -> ())
      | Bind (id, sg) -> (
          match Hashtbl.find_opt tbl id with
          | Some i -> i.journal_sig <- Some sg
          | None -> ()))
    (entries j);
  List.rev !order
  |> List.filter_map (fun id ->
         match Hashtbl.find tbl id with i when i.status = Retired -> None | i -> Some i)

let next_id j =
  List.fold_left (fun acc -> function _, Begin (id, _) -> max acc (id + 1) | _ -> acc) 1 j.log
