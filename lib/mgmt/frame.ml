(* Management-channel frames, carried directly in Ethernet frames with a
   dedicated ethertype (CONMan §III-A: "management frames encapsulated in
   Ethernet frames ... no pre-configuration is needed"). *)

type t = {
  src_device : string;
  dst_device : string; (* "" = flood to every management agent *)
  seq : int; (* per-source sequence number, used for flood suppression *)
  payload : bytes;
}

exception Bad_frame of string

let broadcast = ""

let encode t =
  let src = t.src_device and dst = t.dst_device and n = Bytes.length t.payload in
  if String.length src > 0xffff || String.length dst > 0xffff then invalid_arg "Frame.encode";
  let b = Bytes.create (2 + String.length src + 2 + String.length dst + 4 + 2 + n) in
  let put_string off s =
    Bytes.set_uint16_be b off (String.length s);
    Bytes.blit_string s 0 b (off + 2) (String.length s);
    off + 2 + String.length s
  in
  let off = put_string (put_string 0 src) dst in
  Bytes.set_int32_be b off (Int32.of_int t.seq);
  Bytes.set_uint16_be b (off + 4) n;
  Bytes.blit t.payload 0 b (off + 6) n;
  b

(* Every read is bounds-checked against the buffer, so a short buffer
   raises [Bad_frame "truncated"]. *)
let decode buf off =
  let limit = Bytes.length buf in
  let need pos n = if pos < 0 || pos + n > limit then raise (Bad_frame "truncated") in
  let get_string pos =
    need pos 2;
    let n = Bytes.get_uint16_be buf pos in
    need (pos + 2) n;
    (Bytes.sub_string buf (pos + 2) n, pos + 2 + n)
  in
  let src_device, pos = get_string off in
  let dst_device, pos = get_string pos in
  need pos 6;
  let seq = Int32.to_int (Bytes.get_int32_be buf pos) in
  let len = Bytes.get_uint16_be buf (pos + 4) in
  need (pos + 6) len;
  { src_device; dst_device; seq; payload = Bytes.sub buf (pos + 6) len }

let equal a b =
  a.src_device = b.src_device && a.dst_device = b.dst_device && a.seq = b.seq
  && Bytes.equal a.payload b.payload
