(* 48-bit Ethernet MAC addresses, stored as an int (fits in 63-bit OCaml ints). *)

type t = int

let broadcast = 0xffffffffffff

let of_int i =
  if i < 0 || i > broadcast then invalid_arg "Mac_addr.of_int";
  i

let to_int t = t

(* Locally administered unicast addresses for simulated NICs. *)
let make ~device ~port = 0x020000000000 lor ((device land 0xffff) lsl 8) lor (port land 0xff)

let is_broadcast t = t = broadcast
let is_multicast t = t land 0x010000000000 <> 0

let equal (a : t) (b : t) = a = b

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((t lsr 40) land 0xff) ((t lsr 32) land 0xff) ((t lsr 24) land 0xff)
    ((t lsr 16) land 0xff) ((t lsr 8) land 0xff) (t land 0xff)

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
      let h x = int_of_string ("0x" ^ x) in
      (h a lsl 40) lor (h b lsl 32) lor (h c lsl 24) lor (h d lsl 16) lor (h e lsl 8) lor h f
  | _ -> invalid_arg "Mac_addr.of_string"

let pp ppf t = Fmt.string ppf (to_string t)

let set buf off t =
  Bytes.set_uint16_be buf off (t lsr 32);
  Bytes.set_uint16_be buf (off + 2) (t lsr 16);
  Bytes.set_uint16_be buf (off + 4) t

let get buf off =
  (Bytes.get_uint16_be buf off lsl 32)
  lor (Bytes.get_uint16_be buf (off + 2) lsl 16)
  lor Bytes.get_uint16_be buf (off + 4)
