(* Ethernet II framing (no FCS; the simulator's links are reliable unless
   asked to corrupt). A frame's header is always at offset 0. *)

type t = { dst : Mac_addr.t; src : Mac_addr.t; ethertype : Ethertype.t }

let header_size = 14

let dst buf = Mac_addr.get buf 0
let src buf = Mac_addr.get buf 6
let ethertype buf = Ethertype.of_int (Bytes.get_uint16_be buf 12)

let set buf ~dst ~src ethertype =
  Mac_addr.set buf 0 dst;
  Mac_addr.set buf 6 src;
  Bytes.set_uint16_be buf 12 (Ethertype.to_int ethertype)

let get buf = { dst = dst buf; src = src buf; ethertype = ethertype buf }

let frame ~dst ~src ethertype payload off len =
  let b = Bytes.create (header_size + len) in
  set b ~dst ~src ethertype;
  Bytes.blit payload off b header_size len;
  b

let encode t payload = frame ~dst:t.dst ~src:t.src t.ethertype payload 0 (Bytes.length payload)

let equal a b =
  Mac_addr.equal a.dst b.dst && Mac_addr.equal a.src b.src
  && Ethertype.equal a.ethertype b.ethertype

let pp ppf t =
  Fmt.pf ppf "eth %a -> %a %a" Mac_addr.pp t.src Mac_addr.pp t.dst Ethertype.pp t.ethertype
