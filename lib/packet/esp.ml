(* A simplified ESP (IP protocol 50) for the simulator: SPI, sequence
   number, "encrypted" payload and an authentication tag. Encryption is a
   keyed byte transform and the tag a keyed checksum — enough that only
   endpoints holding the same key can exchange traffic, which is the
   property the management experiments rely on. *)

type t = { spi : int32; seq : int32 }

exception Bad_packet of string

let header_size = 8
let tag_size = 2

let keystream key i =
  (* a tiny xorshift-style stream seeded by the key and position *)
  let k = Int32.to_int key land 0xffffffff in
  let x = (k * 1103515245) + (i * 12820163) + 12345 in
  (x lsr 16) land 0xff

(* XORs the keystream over [len] bytes at [off], in place. *)
let transform ~key buf off len =
  for i = 0 to len - 1 do
    Bytes.set_uint8 buf (off + i) (Bytes.get_uint8 buf (off + i) lxor keystream key i)
  done

(* The keyed checksum of the key's four bytes followed by [len] bytes at
   [off]. *)
let tag ~key buf off len =
  let k = Int32.to_int key land 0xffffffff in
  Inet_csum.checksum ~init:((k lsr 16) + (k land 0xffff)) buf off len

let seal ~key t buf off len =
  Bytes.set_int32_be buf off t.spi;
  Bytes.set_int32_be buf (off + 4) t.seq;
  let cipher = off + header_size in
  transform ~key buf cipher len;
  Bytes.set_uint16_be buf (cipher + len) (tag ~key buf cipher len)

let encode ~key t payload =
  let n = Bytes.length payload in
  let b = Bytes.create (header_size + n + tag_size) in
  Bytes.blit payload 0 b header_size n;
  seal ~key t b 0 n;
  b

(* Decodes and authenticates with [key]; raises on a tag mismatch (wrong
   or missing keying material). *)
let decode ~key buf off len =
  if len < header_size + tag_size then raise (Bad_packet "truncated");
  let cipher = off + header_size in
  let n = len - header_size - tag_size in
  if Bytes.get_uint16_be buf (cipher + n) <> tag ~key buf cipher n then
    raise (Bad_packet "authentication failed");
  let plain = Bytes.sub buf cipher n in
  transform ~key plain 0 n;
  ({ spi = Bytes.get_int32_be buf off; seq = Bytes.get_int32_be buf (off + 4) }, plain)

let spi_only buf =
  if Bytes.length buf < 4 then raise (Bad_packet "truncated");
  Bytes.get_int32_be buf 0

let equal a b = Int32.equal a.spi b.spi && Int32.equal a.seq b.seq
let pp ppf t = Fmt.pf ppf "esp spi=%ld seq=%ld" t.spi t.seq
