(* 802.1Q tag: 16-bit TCI (pcp/dei/vid) followed by the encapsulated
   ethertype. Appears in a frame immediately after the 0x8100 ethertype. *)

type t = { pcp : int; dei : bool; vid : int; inner : Ethertype.t }

let make ?(pcp = 0) ?(dei = false) ~vid inner =
  if vid < 0 || vid > 4095 then invalid_arg "Vlan.make";
  if pcp < 0 || pcp > 7 then invalid_arg "Vlan.make";
  { pcp; dei; vid; inner }

let size = 4

let set buf off { pcp; dei; vid; inner } =
  Bytes.set_uint16_be buf off ((pcp lsl 13) lor (if dei then 1 lsl 12 else 0) lor (vid land 0xfff));
  Bytes.set_uint16_be buf (off + 2) (Ethertype.to_int inner)

let vid buf off = Bytes.get_uint16_be buf off land 0xfff

let get buf off =
  let tci = Bytes.get_uint16_be buf off in
  let inner = Ethertype.of_int (Bytes.get_uint16_be buf (off + 2)) in
  { pcp = tci lsr 13; dei = tci land 0x1000 <> 0; vid = tci land 0xfff; inner }

let equal a b = a.pcp = b.pcp && a.dei = b.dei && a.vid = b.vid && Ethertype.equal a.inner b.inner
let pp ppf t = Fmt.pf ppf "vlan %d (pcp %d) %a" t.vid t.pcp Ethertype.pp t.inner
