(* Bounded per-station span collectors; see trace.mli for the model. *)

type ctx = { goal : int; span : int; parent : int }

type span = {
  s_goal : int;
  s_id : int;
  s_parent : int;
  s_name : string;
  s_station : string;
  s_start : int;
  mutable s_end : int;
  mutable s_status : string;
  mutable s_events : (int * string) list;
}

type t = {
  st_station : string;
  st_limit : int;
  order : int Queue.t; (* insertion order, for drop-oldest *)
  by_id : (int, span) Hashtbl.t;
  mutable st_dropped : int;
  mutable clock : unit -> int;
}

let default_limit = 10_000

let create ?(limit = default_limit) ~station () =
  {
    st_station = station;
    st_limit = max 1 limit;
    order = Queue.create ();
    by_id = Hashtbl.create 64;
    st_dropped = 0;
    clock = (fun () -> 0);
  }

let station t = t.st_station
let set_clock t f = t.clock <- f
let now t = t.clock ()
let dropped t = t.st_dropped

let clear t =
  Queue.clear t.order;
  Hashtbl.reset t.by_id;
  t.st_dropped <- 0

(* One global allocator: span ids must be unique across every collector
   in the process (a federated goal's spans live in several), and
   resettable so seeded runs are reproducible. *)
let next_id = ref 0
let reset_ids () = next_id := 0

let fresh_id () =
  incr next_id;
  !next_id

let add t span =
  Queue.push span.s_id t.order;
  Hashtbl.replace t.by_id span.s_id span;
  while Queue.length t.order > t.st_limit do
    let victim = Queue.pop t.order in
    Hashtbl.remove t.by_id victim;
    t.st_dropped <- t.st_dropped + 1
  done

let start ?parent t name =
  let id = fresh_id () in
  let goal, parent_id = match parent with None -> (id, 0) | Some c -> (c.goal, c.span) in
  add t
    {
      s_goal = goal;
      s_id = id;
      s_parent = parent_id;
      s_name = name;
      s_station = t.st_station;
      s_start = t.clock ();
      s_end = -1;
      s_status = "";
      s_events = [];
    };
  { goal; span = id; parent = parent_id }

let find t id = Hashtbl.find_opt t.by_id id

let event t ctx what =
  match find t ctx.span with
  | None -> () (* span evicted: the dropped counter already told the story *)
  | Some s -> s.s_events <- s.s_events @ [ (t.clock (), what) ]

let finish t ctx ~status =
  match find t ctx.span with
  | None -> ()
  | Some s ->
      if s.s_end < 0 then begin
        s.s_end <- t.clock ();
        s.s_status <- status
      end

let spans t =
  Queue.fold (fun acc id -> match find t id with Some s -> s :: acc | None -> acc) [] t.order
  |> List.rev

(* --- cross-collector queries -------------------------------------------- *)

let route_event ts ctx what =
  match List.find_opt (fun t -> find t ctx.span <> None) ts with
  | Some t -> event t ctx what
  | None -> ()

let goal_spans ts goal =
  List.concat_map (fun t -> List.filter (fun s -> s.s_goal = goal) (spans t)) ts
  |> List.sort (fun a b -> compare a.s_id b.s_id)

let orphans ts goal =
  let ss = goal_spans ts goal in
  let ids = List.map (fun s -> s.s_id) ss in
  List.filter (fun s -> s.s_parent <> 0 && not (List.mem s.s_parent ids)) ss

let connected ts goal =
  let ss = goal_spans ts goal in
  ss <> []
  && List.length (List.filter (fun s -> s.s_parent = 0) ss) = 1
  && orphans ts goal = []

let goals ts =
  List.concat_map (fun t -> List.map (fun s -> s.s_goal) (spans t)) ts
  |> List.sort_uniq compare

let render ts goal =
  let ss = goal_spans ts goal in
  let buf = Buffer.create 256 in
  let line depth (s : span) =
    let pad = String.make (2 * depth) ' ' in
    let status = if s.s_status = "" then "open" else s.s_status in
    let fin = if s.s_end < 0 then "" else Printf.sprintf " end=%d" s.s_end in
    Buffer.add_string buf
      (Printf.sprintf "%s%s [span %d @ %s] start=%d%s %s\n" pad s.s_name s.s_id s.s_station
         s.s_start fin status);
    List.iter
      (fun (tick, what) ->
        Buffer.add_string buf (Printf.sprintf "%s  · t%d %s\n" pad tick what))
      s.s_events
  in
  let rec walk depth (s : span) =
    line depth s;
    List.iter (walk (depth + 1)) (List.filter (fun c -> c.s_parent = s.s_id) ss)
  in
  let roots = List.filter (fun s -> s.s_parent = 0) ss in
  List.iter (walk 0) roots;
  let orphaned = orphans ts goal in
  if orphaned <> [] then begin
    Buffer.add_string buf "ORPHANS (parent missing):\n";
    List.iter (walk 1) orphaned
  end;
  Buffer.contents buf
