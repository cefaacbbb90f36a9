(* IPv4 prefixes in CIDR notation. Each prefix keeps its mask, so a
   membership test is one AND and one compare. *)

type t = { network : Ipv4_addr.t; len : int; mask : int32 }

let mask_of_len len =
  if len < 0 || len > 32 then invalid_arg "Prefix.mask_of_len";
  if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

let make addr len =
  let mask = mask_of_len len in
  { network = Ipv4_addr.of_int32 (Int32.logand (Ipv4_addr.to_int32 addr) mask); len; mask }

let len t = t.len

let of_string s =
  match String.index_opt s '/' with
  | None -> make (Ipv4_addr.of_string s) 32
  | Some i ->
      let addr = Ipv4_addr.of_string (String.sub s 0 i) in
      let l = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      make addr l

let to_string t = Printf.sprintf "%s/%d" (Ipv4_addr.to_string t.network) t.len

let mem addr t =
  Int32.equal (Int32.logand (Ipv4_addr.to_int32 addr) t.mask) (Ipv4_addr.to_int32 t.network)

let subset ~sub ~super = sub.len >= super.len && mem sub.network super

let equal a b = Ipv4_addr.equal a.network b.network && a.len = b.len

let pp ppf t = Fmt.string ppf (to_string t)

(* Host addresses usable inside the prefix (skips network/broadcast on < /31). *)
let nth_host t i =
  let base = Ipv4_addr.to_int32 t.network in
  let host = if t.len >= 31 then i else i + 1 in
  Ipv4_addr.of_int32 (Int32.add base (Int32.of_int host))
