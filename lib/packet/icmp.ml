(* ICMP echo request/reply and the error messages the simulator emits.
   Messages are read and written at an offset in a buffer. *)

type t =
  | Echo_request of { id : int; seq : int }
  | Echo_reply of { id : int; seq : int }
  | Dest_unreachable of { code : int }
  | Time_exceeded

exception Bad_header of string

let header_size = 8

let set buf off t data doff len =
  let ty, code, a, b =
    match t with
    | Echo_request { id; seq } -> (8, 0, id, seq)
    | Echo_reply { id; seq } -> (0, 0, id, seq)
    | Dest_unreachable { code } -> (3, code, 0, 0)
    | Time_exceeded -> (11, 0, 0, 0)
  in
  Bytes.set_uint8 buf off ty;
  Bytes.set_uint8 buf (off + 1) code;
  Bytes.set_uint16_be buf (off + 2) 0;
  Bytes.set_uint16_be buf (off + 4) a;
  Bytes.set_uint16_be buf (off + 6) b;
  Bytes.blit data doff buf (off + header_size) len;
  Bytes.set_uint16_be buf (off + 2) (Inet_csum.checksum buf off (header_size + len))

let encode t payload =
  let n = Bytes.length payload in
  let b = Bytes.create (header_size + n) in
  set b 0 t payload 0 n;
  b

let get buf off len =
  if len < header_size then raise (Bad_header "truncated");
  if not (Inet_csum.valid buf off len) then raise (Bad_header "bad checksum");
  let a = Bytes.get_uint16_be buf (off + 4) in
  let b = Bytes.get_uint16_be buf (off + 6) in
  match Bytes.get_uint8 buf off with
  | 8 -> Echo_request { id = a; seq = b }
  | 0 -> Echo_reply { id = a; seq = b }
  | 3 -> Dest_unreachable { code = Bytes.get_uint8 buf (off + 1) }
  | 11 -> Time_exceeded
  | _ -> raise (Bad_header "unknown type")

let decode buf =
  let n = Bytes.length buf in
  let t = get buf 0 n in
  (t, Bytes.sub buf header_size (n - header_size))

let equal a b =
  match (a, b) with
  | Echo_request x, Echo_request y -> x.id = y.id && x.seq = y.seq
  | Echo_reply x, Echo_reply y -> x.id = y.id && x.seq = y.seq
  | Dest_unreachable x, Dest_unreachable y -> x.code = y.code
  | Time_exceeded, Time_exceeded -> true
  | (Echo_request _ | Echo_reply _ | Dest_unreachable _ | Time_exceeded), _ -> false

let pp ppf = function
  | Echo_request { id; seq } -> Fmt.pf ppf "icmp echo-req id=%d seq=%d" id seq
  | Echo_reply { id; seq } -> Fmt.pf ppf "icmp echo-rep id=%d seq=%d" id seq
  | Dest_unreachable { code } -> Fmt.pf ppf "icmp unreachable code=%d" code
  | Time_exceeded -> Fmt.string ppf "icmp time-exceeded"
