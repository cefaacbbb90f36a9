(* MPLS label-stack entries (RFC 3032). A packet carries a non-empty stack;
   the bottom entry has the S bit set. Entries are read and written at an
   offset in a buffer. *)

type entry = { label : int; tc : int; ttl : int }

type t = entry list

exception Bad_header of string

let entry ?(tc = 0) ?(ttl = 64) label =
  if label < 0 || label > 0xfffff then invalid_arg "Mpls.entry";
  { label; tc; ttl }

let entry_size = 4

(* The 32-bit entry at [off], as an int. *)
let word buf off = (Bytes.get_uint16_be buf off lsl 16) lor Bytes.get_uint16_be buf (off + 2)

let label buf off = word buf off lsr 12
let ttl buf off = Bytes.get_uint8 buf (off + 3)
let bottom buf off = Bytes.get_uint8 buf (off + 2) land 1 <> 0

let set buf off ~label ~tc ~ttl ~bottom =
  let v =
    ((label land 0xfffff) lsl 12)
    lor ((tc land 7) lsl 9)
    lor (if bottom then 1 lsl 8 else 0)
    lor (ttl land 0xff)
  in
  Bytes.set_uint16_be buf off (v lsr 16);
  Bytes.set_uint16_be buf (off + 2) v

let rec stack_end buf off limit =
  if limit - off < entry_size then raise (Bad_header "truncated");
  if bottom buf off then off + entry_size else stack_end buf (off + entry_size) limit

let encode stack payload =
  if stack = [] then invalid_arg "Mpls.encode: empty stack";
  let n = List.length stack in
  let len = Bytes.length payload in
  let b = Bytes.create ((n * entry_size) + len) in
  List.iteri
    (fun i e -> set b (i * entry_size) ~label:e.label ~tc:e.tc ~ttl:e.ttl ~bottom:(i = n - 1))
    stack;
  Bytes.blit payload 0 b (n * entry_size) len;
  b

let decode buf =
  let limit = Bytes.length buf in
  let stop = stack_end buf 0 limit in
  let rec entries off =
    if off = stop then []
    else
      let w = word buf off in
      { label = w lsr 12; tc = (w lsr 9) land 7; ttl = w land 0xff } :: entries (off + entry_size)
  in
  (entries 0, Bytes.sub buf stop (limit - stop))

let equal_entry a b = a.label = b.label && a.tc = b.tc && a.ttl = b.ttl
let equal a b = List.length a = List.length b && List.for_all2 equal_entry a b

let pp_entry ppf e = Fmt.pf ppf "%d(ttl %d)" e.label e.ttl
let pp ppf t = Fmt.pf ppf "mpls [%a]" (Fmt.list ~sep:Fmt.comma pp_entry) t
