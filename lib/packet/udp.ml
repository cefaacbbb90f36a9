(* UDP headers. The checksum is computed over the IPv4 pseudo-header as
   required by RFC 768; callers supply the addresses. *)

type t = { src_port : int; dst_port : int }

exception Bad_header of string

let header_size = 8

let pseudo_sum ~src ~dst len =
  let half a =
    let v = Int32.to_int (Ipv4_addr.to_int32 a) land 0xffffffff in
    (v lsr 16) + (v land 0xffff)
  in
  half src + half dst + Ip_proto.to_int Ip_proto.Udp + (len land 0xffff)

let encode ~src ~dst t payload =
  let len = header_size + Bytes.length payload in
  let b = Bytes.create len in
  Bytes.set_uint16_be b 0 t.src_port;
  Bytes.set_uint16_be b 2 t.dst_port;
  Bytes.set_uint16_be b 4 len;
  Bytes.set_uint16_be b 6 0;
  Bytes.blit payload 0 b header_size (Bytes.length payload);
  let csum = Inet_csum.checksum ~init:(pseudo_sum ~src ~dst len) b 0 len in
  Bytes.set_uint16_be b 6 (if csum = 0 then 0xffff else csum);
  b

let decode ~src ~dst buf off n =
  if n < header_size then raise (Bad_header "truncated");
  let len = Bytes.get_uint16_be buf (off + 4) in
  if len < header_size || len > n then raise (Bad_header "bad length");
  if Bytes.get_uint16_be buf (off + 6) <> 0 then begin
    let sum = Inet_csum.sum_bytes (pseudo_sum ~src ~dst len) buf off len in
    if Inet_csum.fold sum <> 0xffff then raise (Bad_header "bad checksum")
  end;
  ( { src_port = Bytes.get_uint16_be buf off; dst_port = Bytes.get_uint16_be buf (off + 2) },
    Bytes.sub buf (off + header_size) (len - header_size) )

let pp ppf t = Fmt.pf ppf "udp %d -> %d" t.src_port t.dst_port
