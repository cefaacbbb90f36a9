(* ARP for IPv4 over Ethernet (RFC 826), read and written at an offset in
   a buffer. *)

type op = Request | Reply

type t = {
  op : op;
  sender_mac : Mac_addr.t;
  sender_ip : Ipv4_addr.t;
  target_mac : Mac_addr.t;
  target_ip : Ipv4_addr.t;
}

exception Bad_header of string

let size = 28

let set buf off t =
  Bytes.set_uint16_be buf off 1 (* htype ethernet *);
  Bytes.set_uint16_be buf (off + 2) (Ethertype.to_int Ethertype.Ipv4);
  Bytes.set_uint8 buf (off + 4) 6;
  Bytes.set_uint8 buf (off + 5) 4;
  Bytes.set_uint16_be buf (off + 6) (match t.op with Request -> 1 | Reply -> 2);
  Mac_addr.set buf (off + 8) t.sender_mac;
  Ipv4_addr.set buf (off + 14) t.sender_ip;
  Mac_addr.set buf (off + 18) t.target_mac;
  Ipv4_addr.set buf (off + 24) t.target_ip

let encode t =
  let b = Bytes.create size in
  set b 0 t;
  b

let get buf off =
  if Bytes.length buf - off < size then raise (Bad_header "truncated");
  if
    Bytes.get_uint16_be buf off <> 1
    || Bytes.get_uint16_be buf (off + 2) <> Ethertype.to_int Ethertype.Ipv4
    || Bytes.get_uint8 buf (off + 4) <> 6
    || Bytes.get_uint8 buf (off + 5) <> 4
  then raise (Bad_header "unsupported ARP format");
  let op =
    match Bytes.get_uint16_be buf (off + 6) with
    | 1 -> Request
    | 2 -> Reply
    | _ -> raise (Bad_header "unknown op")
  in
  {
    op;
    sender_mac = Mac_addr.get buf (off + 8);
    sender_ip = Ipv4_addr.get buf (off + 14);
    target_mac = Mac_addr.get buf (off + 18);
    target_ip = Ipv4_addr.get buf (off + 24);
  }

let equal a b =
  a.op = b.op
  && Mac_addr.equal a.sender_mac b.sender_mac
  && Ipv4_addr.equal a.sender_ip b.sender_ip
  && Mac_addr.equal a.target_mac b.target_mac
  && Ipv4_addr.equal a.target_ip b.target_ip

let pp ppf t =
  match t.op with
  | Request -> Fmt.pf ppf "arp who-has %a tell %a" Ipv4_addr.pp t.target_ip Ipv4_addr.pp t.sender_ip
  | Reply -> Fmt.pf ppf "arp %a is-at %a" Ipv4_addr.pp t.sender_ip Mac_addr.pp t.sender_mac
