(* A discrete-event scheduler. Events at equal timestamps run in
   scheduling order, which keeps simulations deterministic.

   The queue is a binary min-heap on (time, key) kept in parallel arrays:
   scheduling allocates nothing but the occasional doubling, and popping
   only boxes the new clock value. Times are virtual nanoseconds held as
   [int]: 63 bits cover 146 years of virtual time, and [schedule] refuses
   to go past that.

   An event's key is its scheduling seq shifted left, with the event's
   slot in the low bits: a small integer that stays the event's own while
   the heap moves it. Keys order like seqs, and [pos] maps a slot to the
   event's heap index, so the key doubles as the [timer] handle: [cancel]
   finds its event in O(1) and takes it out of the heap at once. A slot
   is freed when its event runs or is cancelled, and the seq bits tell a
   stale handle from the slot's next occupant. Slot [slot_mask] is never
   handed out, so [no_timer] names no event. Keys stay positive for 2^39
   events. *)

type t = {
  mutable now : int64;
  mutable seq : int;
  mutable size : int;
  mutable times : int array;
  mutable keys : int array;
  mutable fns : (unit -> unit) array;
  mutable pos : int array;  (* slot -> heap index, -1 while free *)
  mutable free : int array;  (* a stack of free slots *)
  mutable nfree : int;
  mutable processed : int;
}

type timer = int

let slot_bits = 23
let slot_mask = (1 lsl slot_bits) - 1
let no_timer = slot_mask
let nop () = ()
let always () = true

let create () =
  let cap = 64 in
  {
    now = 0L;
    seq = 0;
    size = 0;
    times = Array.make cap 0;
    keys = Array.make cap 0;
    fns = Array.make cap nop;
    pos = Array.make cap (-1);
    free = Array.init cap (fun i -> cap - 1 - i);
    nfree = cap;
    processed = 0;
  }

let now t = t.now
let pending t = t.size
let processed t = t.processed

(* (time, key) fires before slot [j]. *)
let before t time key j =
  let tj = t.times.(j) in
  time < tj || (time = tj && key < t.keys.(j))

let place t i time key f =
  t.times.(i) <- time;
  t.keys.(i) <- key;
  t.fns.(i) <- f;
  t.pos.(key land slot_mask) <- i

let move t ~src ~dst = place t dst t.times.(src) t.keys.(src) t.fns.(src)

(* Both sifts move a hole rather than swapping, and fill it once. *)
let rec sift_up t i time key f =
  let parent = (i - 1) / 2 in
  if i > 0 && before t time key parent then begin
    move t ~src:parent ~dst:i;
    sift_up t parent time key f
  end
  else place t i time key f

let rec sift_down t i time key f =
  let l = (2 * i) + 1 in
  let c = if l + 1 < t.size && before t t.times.(l + 1) t.keys.(l + 1) l then l + 1 else l in
  if c < t.size && not (before t time key c) then begin
    move t ~src:c ~dst:i;
    sift_down t c time key f
  end
  else place t i time key f

(* Doubles every array; the new slots go on the free stack. Only called
   when the heap is full, so the stack is empty. *)
let grow t =
  let old = Array.length t.times in
  let cap = 2 * old in
  if cap > slot_mask then invalid_arg "Event_queue.schedule: too many pending events";
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.times <- extend t.times 0;
  t.keys <- extend t.keys 0;
  t.fns <- extend t.fns nop;
  t.pos <- extend t.pos (-1);
  t.free <- Array.init cap (fun i -> if i < old then cap - 1 - i else 0);
  t.nfree <- old

let max_time = Int64.of_int max_int

let timer t ~delay_ns f =
  if delay_ns < 0L then invalid_arg "Event_queue.schedule";
  let time = Int64.add t.now delay_ns in
  if time < t.now || time > max_time then invalid_arg "Event_queue.schedule: clock overflow";
  if t.size = Array.length t.times then grow t;
  t.nfree <- t.nfree - 1;
  let key = (t.seq lsl slot_bits) lor t.free.(t.nfree) in
  t.seq <- t.seq + 1;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i (Int64.to_int time) key f;
  key

let schedule t ~delay_ns f = ignore (timer t ~delay_ns f)

(* Takes the event at heap index [i] out: its slot is freed, the last
   event fills the hole and sifts whichever way it must, and the vacated
   array cell is cleared so the heap holds no dead closure. *)
let remove t i =
  let s = t.keys.(i) land slot_mask in
  t.pos.(s) <- -1;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1;
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let time = t.times.(last) and key = t.keys.(last) and f = t.fns.(last) in
    if i > 0 && before t time key ((i - 1) / 2) then sift_up t i time key f
    else sift_down t i time key f
  end;
  t.fns.(last) <- nop

let cancel t h =
  let s = h land slot_mask in
  if s < Array.length t.pos then begin
    let i = t.pos.(s) in
    if i >= 0 && t.keys.(i) = h then remove t i
  end

exception Budget_exhausted

(* Takes the earliest event off the heap, sets the clock to its time and
   returns it. *)
let pop t =
  let time = t.times.(0) and f = t.fns.(0) in
  remove t 0;
  t.processed <- t.processed + 1;
  t.now <- Int64.of_int time;
  f

(* Runs events while the earliest is due by [limit] (an int time) and
   [busy ()] holds. *)
let drain ~max_events t limit busy =
  let count = ref 0 in
  while t.size > 0 && t.times.(0) <= limit && busy () do
    if !count >= max_events then raise Budget_exhausted;
    incr count;
    (pop t) ()
  done;
  !count

let limit_of deadline =
  if deadline >= max_time then max_int
  else if deadline < Int64.of_int min_int then min_int
  else Int64.to_int deadline

let run ?(max_events = 10_000_000) t = drain ~max_events t max_int always

let run_until ?(max_events = 10_000_000) t ~deadline =
  let count = drain ~max_events t (limit_of deadline) always in
  if deadline > t.now then t.now <- deadline;
  count

let run_while ?(max_events = 10_000_000) t ~deadline busy =
  drain ~max_events t (limit_of deadline) busy
