(* A global packet/event tracer. Disabled by default; tests and the NM
   debugger enable it to observe the data plane. The in-memory buffer is
   bounded: past the cap the oldest events are dropped (and counted), so
   long bench/selfheal runs with tracing on keep constant memory. *)

type event = { seq : int; device : string; what : string; port : string; detail : string }

let enabled = ref false
let events : event Queue.t = Queue.create ()
let counter = ref 0
let limit = ref 100_000
let dropped_events = ref 0

let set_limit n = limit := max 1 n
let get_limit () = !limit
let dropped () = !dropped_events

let clear () =
  Queue.clear events;
  counter := 0;
  dropped_events := 0

let emit ~device ~what ?(port = "") frame =
  if !enabled then begin
    incr counter;
    let detail =
      if what = "rx" || what = "tx" || what = "drop" then
        Fmt.str "%s" (Packet.Frame.signature frame)
      else Bytes.to_string frame
    in
    Queue.add { seq = !counter; device; what; port; detail } events;
    while Queue.length events > !limit do
      ignore (Queue.pop events);
      incr dropped_events
    done
  end

let with_trace f =
  let was = !enabled in
  enabled := true;
  clear ();
  Fun.protect ~finally:(fun () -> enabled := was) f

let get () = List.of_seq (Queue.to_seq events)
