(* A discrete-event scheduler. Events at equal timestamps run in
   scheduling order, which keeps simulations deterministic.

   The queue is a binary min-heap on (time, seq) kept in three parallel
   arrays: scheduling allocates nothing but the occasional doubling, and
   popping only boxes the new clock value. Times are virtual nanoseconds
   held as [int]: 63 bits cover 146 years of virtual time, and [schedule]
   refuses to go past that. *)

type t = {
  mutable now : int64;
  mutable seq : int;
  mutable size : int;
  mutable times : int array;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
  mutable processed : int;
}

let nop () = ()

let create () =
  {
    now = 0L;
    seq = 0;
    size = 0;
    times = Array.make 64 0;
    seqs = Array.make 64 0;
    fns = Array.make 64 nop;
    processed = 0;
  }

let now t = t.now
let pending t = t.size
let processed t = t.processed

(* (time, seq) fires before slot [j]. *)
let before t time seq j =
  let tj = t.times.(j) in
  time < tj || (time = tj && seq < t.seqs.(j))

let move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.fns.(dst) <- t.fns.(src)

let place t i time seq f =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.fns.(i) <- f

(* Both sifts move a hole rather than swapping, and fill it once. *)
let rec sift_up t i time seq f =
  let parent = (i - 1) / 2 in
  if i > 0 && before t time seq parent then begin
    move t ~src:parent ~dst:i;
    sift_up t parent time seq f
  end
  else place t i time seq f

let rec sift_down t i time seq f =
  let l = (2 * i) + 1 in
  let c = if l + 1 < t.size && before t t.times.(l + 1) t.seqs.(l + 1) l then l + 1 else l in
  if c < t.size && not (before t time seq c) then begin
    move t ~src:c ~dst:i;
    sift_down t c time seq f
  end
  else place t i time seq f

let grow t =
  let cap = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.fns <- extend t.fns nop

let max_time = Int64.of_int max_int

let schedule t ~delay_ns f =
  if delay_ns < 0L then invalid_arg "Event_queue.schedule";
  let time = Int64.add t.now delay_ns in
  if time < t.now || time > max_time then invalid_arg "Event_queue.schedule: clock overflow";
  if t.size = Array.length t.times then grow t;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i (Int64.to_int time) t.seq f;
  t.seq <- t.seq + 1

exception Budget_exhausted

(* Takes the earliest event off the heap, sets the clock to its time and
   returns it. The vacated slot is cleared so the heap holds no dead
   closure. *)
let pop t =
  let time = t.times.(0) and f = t.fns.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t 0 t.times.(last) t.seqs.(last) t.fns.(last);
  t.fns.(last) <- nop;
  t.processed <- t.processed + 1;
  t.now <- Int64.of_int time;
  f

(* Runs events while the earliest is due by [limit] (an int time). *)
let drain ~max_events t limit =
  let count = ref 0 in
  while t.size > 0 && t.times.(0) <= limit do
    if !count >= max_events then raise Budget_exhausted;
    incr count;
    (pop t) ()
  done;
  !count

let run ?(max_events = 10_000_000) t = drain ~max_events t max_int

let run_until ?(max_events = 10_000_000) ?(advance = true) t ~deadline =
  let limit =
    if deadline >= max_time then max_int
    else if deadline < Int64.of_int min_int then min_int
    else Int64.to_int deadline
  in
  let count = drain ~max_events t limit in
  if advance && deadline > t.now then t.now <- deadline;
  count
