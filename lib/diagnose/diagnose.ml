(* The fault-diagnosis layer on top of the showPerf telemetry scrape.

   The store keeps a bounded ring of scrape-to-scrape counter deltas per
   (device, module, pipe) and flags anomalies; the localizer walks a
   configured path's module dependency chain (handed to it as hops and
   inter-device segments), intersects the anomaly evidence and emits a
   ranked root-cause diagnosis. Everything here is protocol-agnostic: it
   only knows the standardized counter names the modules report
   (up/down_frames, up/down_bytes, drop:<cause>). *)

type key = { device : string; module_id : string; pipe : string }

let pp_key ppf k = Fmt.pf ppf "%s/%s/%s" k.device k.module_id k.pipe

type sample = { at_ns : int64; deltas : (string * int) list }

type series = {
  s_key : key;
  (* previous absolute snapshot; None until the first observation, which
     only sets the baseline (a counter's whole history is not a delta) *)
  mutable s_last : (string * int) list option;
  (* the newest [s_count] samples; slot [s_next] is overwritten next *)
  s_ring : sample array;
  mutable s_next : int;
  mutable s_count : int;
  mutable s_dropped : int; (* samples overwritten in the ring *)
  mutable s_total : (string * int ref) list; (* cumulative deltas since baseline *)
}

module Index = Hashtbl.Make (struct
  type t = key

  let equal a b =
    String.equal a.pipe b.pipe && String.equal a.module_id b.module_id
    && String.equal a.device b.device

  let hash = Hashtbl.hash
end)

type t = {
  window : int;
  (* flattened key -> series: [anomalies] walks this table, so its order is
     the order the anomalies are reported in *)
  series : (string, series) Hashtbl.t;
  index : series Index.t; (* the same series, found without building a string *)
  (* consecutive scrape rounds a device failed to answer showPerf *)
  silent : (string, int) Hashtbl.t;
}

let create ?(window = 32) () =
  {
    window = max 1 window;
    series = Hashtbl.create 64;
    index = Index.create 64;
    silent = Hashtbl.create 8;
  }

let flat k = k.device ^ "|" ^ k.module_id ^ "|" ^ k.pipe

let find_series t k = Index.find_opt t.index k
let no_sample = { at_ns = 0L; deltas = [] }

(* [l] from its element named [name] on ([] if none). Agents report their
   counters in a fixed order, so a cursor walked in step with the new
   snapshot finds each name at its head; [all] is searched only when the
   names stop lining up. Names are unique within a snapshot. *)
let rec find_from name = function
  | [] -> []
  | (n, _) :: _ as l when String.equal n name -> l
  | _ :: rest -> find_from name rest

let at name cursor all =
  match cursor with
  | (n, _) :: _ when String.equal n name -> cursor
  | _ -> find_from name all

let tail = function _ :: l -> l | [] -> []

(* The deltas of [counters] against the previous snapshot [before], in the
   new snapshot's order, added to the series' totals on the way. A counter
   absent from [before] counts from 0, one that went backwards (a reset)
   clamps to 0. *)
let deltas s ~before counters =
  let rec go b_cur t_cur = function
    | [] -> []
    | (name, v) :: rest ->
        let b = at name b_cur before in
        let was = match b with (_, w) :: _ -> w | [] -> 0 in
        let d = if v >= was then v - was else 0 in
        let tot = at name t_cur s.s_total in
        (match tot with
        | (_, sum) :: _ -> sum := !sum + d
        | [] -> s.s_total <- s.s_total @ [ (name, ref d) ]);
        (name, d) :: go (tail b) (tail tot) rest
  in
  go before s.s_total counters

let observe t ~at_ns ~device ~module_id ~pipe counters =
  let k = { device; module_id; pipe } in
  let s =
    match find_series t k with
    | Some s -> s
    | None ->
        let s =
          {
            s_key = k;
            s_last = None;
            s_ring = Array.make t.window no_sample;
            s_next = 0;
            s_count = 0;
            s_dropped = 0;
            s_total = [];
          }
        in
        Hashtbl.replace t.series (flat k) s;
        Index.replace t.index k s;
        s
  in
  (match s.s_last with
  | None -> () (* baseline only *)
  | Some before ->
      s.s_ring.(s.s_next) <- { at_ns; deltas = deltas s ~before counters };
      s.s_next <- (s.s_next + 1) mod t.window;
      if s.s_count = t.window then s.s_dropped <- s.s_dropped + 1
      else s.s_count <- s.s_count + 1);
  s.s_last <- Some counters

(* The [i]-th newest sample (0 = newest), for [i < s_count]. *)
let nth_newest s i =
  let w = Array.length s.s_ring in
  s.s_ring.((s.s_next - 1 - i + w) mod w)

let dropped t k = match find_series t k with Some s -> s.s_dropped | None -> 0

let samples t k =
  match find_series t k with
  | Some s -> List.init s.s_count (fun i -> nth_newest s (s.s_count - 1 - i))
  | None -> []

let note_unreachable t device =
  let n = match Hashtbl.find_opt t.silent device with Some n -> n | None -> 0 in
  Hashtbl.replace t.silent device (n + 1)

let note_reachable t device = Hashtbl.remove t.silent device
let is_silent t device = match Hashtbl.find_opt t.silent device with Some n -> n > 0 | None -> false
let silent_rounds t device = match Hashtbl.find_opt t.silent device with Some n -> n | None -> 0

(* --- delta accessors -------------------------------------------------- *)

let counter_of sample name =
  match List.assoc_opt name sample.deltas with Some v -> v | None -> 0

(* Sum of a series' last [n] deltas of [name]. *)
let series_recent s n name =
  let acc = ref 0 in
  for i = 0 to min n s.s_count - 1 do
    acc := !acc + counter_of (nth_newest s i) name
  done;
  !acc

let series_total s name = match List.assoc_opt name s.s_total with Some v -> !v | None -> 0

(* Sum of the last [n] deltas of [name] (0 when the series is unknown). *)
let recent ?(n = 3) t k name =
  match find_series t k with None -> 0 | Some s -> series_recent s n name

let last_delta t k name = recent ~n:1 t k name
let total t k name = match find_series t k with None -> 0 | Some s -> series_total s name

(* --- anomaly flags ---------------------------------------------------- *)

type anomaly =
  | Stalled of key * string (* counter previously active, flat over the recent window *)
  | Asymmetric of key (* one direction moving while the other (once active) is flat *)
  | Rising_drops of key * string * int (* a drop cause increased recently *)
  | Silent of string * int (* device unanswering for n scrape rounds *)

let pp_anomaly ppf = function
  | Stalled (k, c) -> Fmt.pf ppf "stall %a %s" pp_key k c
  | Asymmetric k -> Fmt.pf ppf "asymmetry %a" pp_key k
  | Rising_drops (k, c, n) -> Fmt.pf ppf "drops %a %s +%d" pp_key k c n
  | Silent (d, n) -> Fmt.pf ppf "silent %s (%d rounds)" d n

let is_drop name = String.starts_with ~prefix:"drop:" name

let anomalies t =
  let out = ref [] in
  Hashtbl.iter (fun d n -> if n > 0 then out := Silent (d, n) :: !out) t.silent;
  Hashtbl.iter
    (fun _ s ->
      let k = s.s_key in
      if s.s_count > 0 then begin
        let ever_active c = series_total s c > 0 in
        List.iter
          (fun c ->
            if ever_active c && series_recent s 2 c = 0 then out := Stalled (k, c) :: !out)
          [ "up_frames"; "down_frames" ];
        (let up = series_recent s 3 "up_frames" and down = series_recent s 3 "down_frames" in
         if
           (up > 0 && down = 0 && ever_active "down_frames")
           || (down > 0 && up = 0 && ever_active "up_frames")
         then out := Asymmetric k :: !out);
        List.iter
          (fun (name, d) -> if d > 0 && is_drop name then out := Rising_drops (k, name, d) :: !out)
          (nth_newest s 0).deltas
      end)
    t.series;
  List.rev !out

(* --- root-cause localization ------------------------------------------ *)

type hop = {
  h_dev : string;
  h_modules : string list; (* qualified module ids the path visits on this device *)
}

type seg = {
  s_name : string; (* for reporting, e.g. "id-A--id-B" *)
  s_from : string; (* tx-side device *)
  s_from_module : string;
  s_from_pipe : string;
  s_to : string; (* rx-side device *)
  s_to_module : string;
  s_to_pipe : string;
}

type verdict =
  | Cut_link of seg
  | Lossy_segment of seg
  | Misconfigured_module of { dev : string; module_id : string }
  | Unreachable_agent of string

type diagnosis = { verdict : verdict; confidence : float; evidence : string list }

let pp_verdict ppf = function
  | Cut_link s -> Fmt.pf ppf "cut link %s" s.s_name
  | Lossy_segment s -> Fmt.pf ppf "lossy segment %s" s.s_name
  | Misconfigured_module { dev; module_id } ->
      Fmt.pf ppf "misconfigured module %s on %s" module_id dev
  | Unreachable_agent d -> Fmt.pf ppf "unreachable agent %s" d

let pp_diagnosis ppf d =
  Fmt.pf ppf "%a (confidence %.2f)%a" pp_verdict d.verdict d.confidence
    (Fmt.list ~sep:Fmt.nop (fun ppf e -> Fmt.pf ppf "@,  - %s" e))
    d.evidence

let localize t ~hops ~segs =
  let out = ref [] in
  let add verdict confidence evidence = out := { verdict; confidence; evidence } :: !out in
  (* 1. A hop that stopped answering showPerf dominates everything else we
     could say about it. *)
  List.iter
    (fun h ->
      if is_silent t h.h_dev then
        add (Unreachable_agent h.h_dev) 0.95
          [ Fmt.str "%s unanswering for %d scrape round(s)" h.h_dev (silent_rounds t h.h_dev) ])
    hops;
  (* 2. Per-segment conservation: everything the tx side pushed onto the
     wire must show up at the rx side. *)
  List.iter
    (fun s ->
      if not (is_silent t s.s_from || is_silent t s.s_to) then begin
        let txk = { device = s.s_from; module_id = s.s_from_module; pipe = s.s_from_pipe } in
        let rxk = { device = s.s_to; module_id = s.s_to_module; pipe = s.s_to_pipe } in
        let tx = last_delta t txk "down_frames" and rx = last_delta t rxk "up_frames" in
        let txw = recent t txk "down_frames" and rxw = recent t rxk "up_frames" in
        if tx > 0 && rx = 0 then
          add (Cut_link s) 0.9
            [
              Fmt.str "%s sent %d frame(s) towards %s, %s received 0 (last scrape)" s.s_from tx
                s.s_to s.s_to;
            ]
        else if txw > 0 && rxw < txw && txw - rxw >= max 2 (txw / 5) then
          add (Lossy_segment s) 0.7
            [
              Fmt.str "%s sent %d frame(s), %s received only %d over the recent window" s.s_from
                txw s.s_to rxw;
            ]
      end)
    segs;
  (* 3. Intra-device conservation: traffic enters a transit hop but never
     leaves it, while its adjacent segments look healthy — the fault is a
     module on the device. Blame the one whose own counters flag it. *)
  List.iter
    (fun h ->
      if not (is_silent t h.h_dev) then begin
        let seg_in = List.find_opt (fun s -> s.s_to = h.h_dev) segs in
        let seg_out = List.find_opt (fun s -> s.s_from = h.h_dev) segs in
        match (seg_in, seg_out) with
        | Some si, Some so ->
            let rxk = { device = h.h_dev; module_id = si.s_to_module; pipe = si.s_to_pipe } in
            let txk = { device = h.h_dev; module_id = so.s_from_module; pipe = so.s_from_pipe } in
            let rx_in = last_delta t rxk "up_frames" in
            let tx_out = last_delta t txk "down_frames" in
            if rx_in > 0 && tx_out = 0 then begin
              (* strongest: a drop cause rising on one of the module's pipes,
                 which are read in pipe order *)
              let module_anomaly m =
                Hashtbl.fold
                  (fun _ s acc ->
                    if s.s_key.device = h.h_dev && s.s_key.module_id = m && s.s_count > 0 then
                      s :: acc
                    else acc)
                  t.series []
                |> List.sort (fun a b -> String.compare a.s_key.pipe b.s_key.pipe)
                |> List.filter_map (fun s ->
                       let latest = nth_newest s 0 in
                       List.find_opt (fun (name, d) -> d > 0 && is_drop name) latest.deltas
                       |> Option.map (fun (name, d) -> Fmt.str "%s %s +%d" s.s_key.pipe name d))
              in
              (* the ETH modules carrying the adjacent segments are healthy
                 by construction here (traffic reached the device); blame
                 the forwarding modules between them *)
              let candidates =
                List.filter (fun m -> m <> si.s_to_module && m <> so.s_from_module) h.h_modules
              in
              let blamed =
                List.find_map
                  (fun m -> match module_anomaly m with [] -> None | ev -> Some (m, ev))
                  candidates
              in
              match blamed with
              | Some (m, ev) ->
                  add
                    (Misconfigured_module { dev = h.h_dev; module_id = m })
                    0.85
                    (Fmt.str "%d frame(s) entered %s, none left" rx_in h.h_dev :: ev)
              | None -> (
                  match candidates with
                  | m :: _ ->
                      add
                        (Misconfigured_module { dev = h.h_dev; module_id = m })
                        0.5
                        [
                          Fmt.str "%d frame(s) entered %s, none left; no drop cause visible" rx_in
                            h.h_dev;
                        ]
                  | [] -> ())
            end
        | _ -> ()
      end)
    hops;
  List.stable_sort (fun a b -> compare b.confidence a.confidence) (List.rev !out)
