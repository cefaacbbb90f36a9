(* IPv4 headers (no options). Headers are read and written at an offset in
   a buffer; writing fills total length and checksum, checking verifies
   the checksum and rejects truncated packets. *)

type t = {
  tos : int;
  id : int;
  dont_fragment : bool;
  ttl : int;
  proto : Ip_proto.t;
  src : Ipv4_addr.t;
  dst : Ipv4_addr.t;
}

exception Bad_header of string

let header_size = 20

let make ?(tos = 0) ?(id = 0) ?(dont_fragment = true) ?(ttl = 64) ~proto ~src ~dst () =
  { tos; id; dont_fragment; ttl; proto; src; dst }

let ttl buf off = Bytes.get_uint8 buf (off + 8)
let proto buf off = Ip_proto.of_int (Bytes.get_uint8 buf (off + 9))
let src buf off = Ipv4_addr.get buf (off + 12)
let dst buf off = Ipv4_addr.get buf (off + 16)
let total_length buf off = Bytes.get_uint16_be buf (off + 2)

let set_checksum buf off =
  Bytes.set_uint16_be buf (off + 10) 0;
  Bytes.set_uint16_be buf (off + 10) (Inet_csum.checksum buf off header_size)

let set buf off t ~payload_len =
  Bytes.set_uint8 buf off 0x45;
  Bytes.set_uint8 buf (off + 1) t.tos;
  Bytes.set_uint16_be buf (off + 2) (header_size + payload_len);
  Bytes.set_uint16_be buf (off + 4) t.id;
  Bytes.set_uint16_be buf (off + 6) (if t.dont_fragment then 0x4000 else 0);
  Bytes.set_uint8 buf (off + 8) t.ttl;
  Bytes.set_uint8 buf (off + 9) (Ip_proto.to_int t.proto);
  Ipv4_addr.set buf (off + 12) t.src;
  Ipv4_addr.set buf (off + 16) t.dst;
  set_checksum buf off

let set_ttl buf off ttl =
  Bytes.set_uint8 buf (off + 8) ttl;
  set_checksum buf off

let encode t payload =
  let n = Bytes.length payload in
  let b = Bytes.create (header_size + n) in
  set b 0 t ~payload_len:n;
  Bytes.blit payload 0 b header_size n;
  b

let check buf off limit =
  if limit - off < header_size then raise (Bad_header "truncated");
  let vihl = Bytes.get_uint8 buf off in
  if vihl lsr 4 <> 4 then raise (Bad_header "not IPv4");
  if (vihl land 0xf) * 4 <> header_size then raise (Bad_header "options unsupported");
  let total_len = total_length buf off in
  if total_len < header_size || total_len > limit - off then
    raise (Bad_header "bad total length");
  if Bytes.get_uint16_be buf (off + 6) land 0x3fff <> 0 then
    raise (Bad_header "fragments unsupported");
  if not (Inet_csum.valid buf off header_size) then raise (Bad_header "bad checksum");
  total_len

let get buf off =
  {
    tos = Bytes.get_uint8 buf (off + 1);
    id = Bytes.get_uint16_be buf (off + 4);
    dont_fragment = Bytes.get_uint16_be buf (off + 6) land 0x4000 <> 0;
    ttl = ttl buf off;
    proto = proto buf off;
    src = src buf off;
    dst = dst buf off;
  }

let decode buf =
  let total_len = check buf 0 (Bytes.length buf) in
  (get buf 0, Bytes.sub buf header_size (total_len - header_size))

let equal a b =
  a.tos = b.tos && a.id = b.id && a.dont_fragment = b.dont_fragment && a.ttl = b.ttl
  && Ip_proto.equal a.proto b.proto && Ipv4_addr.equal a.src b.src
  && Ipv4_addr.equal a.dst b.dst

let pp ppf t =
  Fmt.pf ppf "ip %a -> %a %a ttl=%d" Ipv4_addr.pp t.src Ipv4_addr.pp t.dst Ip_proto.pp
    t.proto t.ttl
