(* Named monotonic counters, used for the performance-reporting part of the
   module abstraction and for debugging. Names are interned once into keys
   (small ints shared by every counter set), so an increment is an array
   store: no string is hashed on the datapath. *)

type key = int

let keys : (string, key) Hashtbl.t = Hashtbl.create 64
let names = ref [||]

let key name =
  match Hashtbl.find_opt keys name with
  | Some k -> k
  | None ->
      let k = Hashtbl.length keys in
      Hashtbl.add keys name k;
      names := Array.append !names [| name |];
      k

(* A counter never incremented holds [absent]: it reads 0 but is not
   listed, as a name never seen was not before interning. *)
let absent = min_int

type t = { mutable values : int array }

let create () = { values = [||] }

let add t k n =
  if k >= Array.length t.values then begin
    let values = Array.make (Hashtbl.length keys) absent in
    Array.blit t.values 0 values 0 (Array.length t.values);
    t.values <- values
  end;
  let v = Array.unsafe_get t.values k in
  Array.unsafe_set t.values k (if v = absent then n else v + n)

let incr t k = add t k 1

let value t k = if k < Array.length t.values && t.values.(k) <> absent then t.values.(k) else 0

let get t name = match Hashtbl.find_opt keys name with Some k -> value t k | None -> 0

let to_list t =
  let acc = ref [] in
  Array.iteri (fun k v -> if v <> absent then acc := (!names.(k), v) :: !acc) t.values;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

let reset t = Array.fill t.values 0 (Array.length t.values) absent

let snapshot = to_list

(* Delta semantics for telemetry scrapes: counters are monotonic, so a
   scrape-to-scrape delta is [after - before], with names absent from
   [before] counting from zero. Names absent from [after] (a reset
   device) are dropped rather than reported negative. *)
let delta ~before ~after =
  List.filter_map
    (fun (name, v_after) ->
      let v_before = match List.assoc_opt name before with Some v -> v | None -> 0 in
      if v_after >= v_before then Some (name, v_after - v_before) else Some (name, 0))
    after
