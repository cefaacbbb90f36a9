(* GRE per RFC 2784 with the RFC 2890 key and sequence-number extensions.
   The checksum, when present, covers the GRE header and payload. Headers
   are read and written at an offset in a buffer. *)

type t = {
  key : int32 option;
  seq : int32 option;
  with_csum : bool;
  protocol : Ethertype.t;
}

exception Bad_header of string

let make ?key ?seq ?(with_csum = false) protocol = { key; seq; with_csum; protocol }

let header_size t =
  4
  + (if t.with_csum then 4 else 0)
  + (match t.key with Some _ -> 4 | None -> 0)
  + match t.seq with Some _ -> 4 | None -> 0

let set buf off t ~payload_len =
  let flags =
    (if t.with_csum then 0x8000 else 0)
    lor (match t.key with Some _ -> 0x2000 | None -> 0)
    lor match t.seq with Some _ -> 0x1000 | None -> 0
  in
  Bytes.set_uint16_be buf off flags;
  Bytes.set_uint16_be buf (off + 2) (Ethertype.to_int t.protocol);
  let pos = off + 4 in
  let pos =
    if t.with_csum then begin
      Bytes.set_int32_be buf pos 0l;
      pos + 4
    end
    else pos
  in
  let pos = match t.key with Some k -> Bytes.set_int32_be buf pos k; pos + 4 | None -> pos in
  (match t.seq with Some s -> Bytes.set_int32_be buf pos s | None -> ());
  if t.with_csum then
    Bytes.set_uint16_be buf (off + 4)
      (Inet_csum.checksum buf off (header_size t + payload_len))

let encode t payload =
  let n = Bytes.length payload in
  let hs = header_size t in
  let b = Bytes.create (hs + n) in
  Bytes.blit payload 0 b hs n;
  set b 0 t ~payload_len:n;
  b

let get buf off len =
  if len < 4 then raise (Bad_header "truncated");
  let flags = Bytes.get_uint16_be buf off in
  if flags land 0x0007 <> 0 then raise (Bad_header "bad version");
  if flags land 0x4000 <> 0 then raise (Bad_header "routing present unsupported");
  let protocol = Ethertype.of_int (Bytes.get_uint16_be buf (off + 2)) in
  let with_csum = flags land 0x8000 <> 0 in
  let field present pos =
    if not present then (None, pos)
    else if pos + 4 > off + len then raise (Bad_header "truncated")
    else (Some (Bytes.get_int32_be buf pos), pos + 4)
  in
  let pos =
    if not with_csum then off + 4
    else if not (Inet_csum.valid buf off len) then raise (Bad_header "bad checksum")
    else if len < 8 then raise (Bad_header "truncated")
    else off + 8
  in
  let key, pos = field (flags land 0x2000 <> 0) pos in
  let seq, _ = field (flags land 0x1000 <> 0) pos in
  { key; seq; with_csum; protocol }

let decode buf =
  let n = Bytes.length buf in
  let t = get buf 0 n in
  let hs = header_size t in
  (t, Bytes.sub buf hs (n - hs))

let equal a b =
  a.key = b.key && a.seq = b.seq && a.with_csum = b.with_csum
  && Ethertype.equal a.protocol b.protocol

let pp ppf t =
  Fmt.pf ppf "gre proto=%a%a%a%s" Ethertype.pp t.protocol
    (Fmt.option (fun ppf k -> Fmt.pf ppf " key=%ld" k))
    t.key
    (Fmt.option (fun ppf s -> Fmt.pf ppf " seq=%ld" s))
    t.seq
    (if t.with_csum then " csum" else "")
