(* Unit and property tests for the wire codecs. *)

open Packet

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- generators -------------------------------------------------------- *)

let mac_gen = QCheck.Gen.(map Mac_addr.of_int (int_range 0 0xffffffffffff))
let ip_gen = QCheck.Gen.(map (fun i -> Ipv4_addr.of_int32 (Int32.of_int i)) (int_bound 0xfffffff))
let bytes_gen = QCheck.Gen.(map Bytes.of_string (string_size (int_bound 64)))

let arb name gen pp = QCheck.make ~print:(Fmt.to_to_string pp) gen |> fun a -> (name, a)

(* --- Mac / Ipv4 / Prefix ------------------------------------------------ *)

let test_mac_string () =
  let m = Mac_addr.of_string "02:00:00:00:01:02" in
  check tstr "roundtrip" "02:00:00:00:01:02" (Mac_addr.to_string m);
  check tbool "broadcast" true (Mac_addr.is_broadcast (Mac_addr.of_string "ff:ff:ff:ff:ff:ff"));
  check tbool "unicast" false (Mac_addr.is_multicast (Mac_addr.make ~device:3 ~port:1))

let test_ip_string () =
  let a = Ipv4_addr.of_string "204.9.168.1" in
  check tstr "roundtrip" "204.9.168.1" (Ipv4_addr.to_string a);
  check tint "octet" 9 (Ipv4_addr.octet a 1)

let test_prefix () =
  let p = Prefix.of_string "10.0.2.0/24" in
  check tbool "mem" true (Prefix.mem (Ipv4_addr.of_string "10.0.2.77") p);
  check tbool "not mem" false (Prefix.mem (Ipv4_addr.of_string "10.0.3.1") p);
  check tstr "normalised" "10.0.2.0/24" (Prefix.to_string (Prefix.of_string "10.0.2.9/24"));
  check tbool "subset" true
    (Prefix.subset ~sub:(Prefix.of_string "10.0.2.128/25") ~super:p);
  check tbool "not subset" false (Prefix.subset ~sub:(Prefix.of_string "10.0.0.0/8") ~super:p);
  check tstr "nth host" "10.0.2.1" (Ipv4_addr.to_string (Prefix.nth_host p 0))

let test_prefix_zero () =
  let d = Prefix.of_string "0.0.0.0/0" in
  check tbool "default matches all" true (Prefix.mem (Ipv4_addr.of_string "1.2.3.4") d)

(* --- header roundtrips -------------------------------------------------- *)

let test_eth_roundtrip () =
  let h =
    { Ethernet.dst = Mac_addr.make ~device:1 ~port:0;
      src = Mac_addr.make ~device:2 ~port:1;
      ethertype = Ethertype.Ipv4 }
  in
  let buf = Ethernet.encode h (Bytes.of_string "hello") in
  let h' = Ethernet.get buf in
  check tbool "eth" true (Ethernet.equal h h');
  check tstr "payload" "hello"
    (Bytes.sub_string buf Ethernet.header_size (Bytes.length buf - Ethernet.header_size))

let test_vlan_roundtrip () =
  let t = Vlan.make ~pcp:5 ~vid:22 Ethertype.Ipv4 in
  let buf = Bytes.create Vlan.size in
  Vlan.set buf 0 t;
  let t' = Vlan.get buf 0 in
  check tbool "vlan" true (Vlan.equal t t')

let test_ipv4_roundtrip () =
  let h =
    Ipv4.make ~tos:7 ~id:42 ~ttl:17 ~proto:Ip_proto.Udp
      ~src:(Ipv4_addr.of_string "10.0.0.1") ~dst:(Ipv4_addr.of_string "10.0.0.2") ()
  in
  let buf = Ipv4.encode h (Bytes.of_string "payload!") in
  let h', p = Ipv4.decode buf in
  check tbool "hdr" true (Ipv4.equal h h');
  check tstr "payload" "payload!" (Bytes.to_string p)

let test_ipv4_checksum_detects_corruption () =
  let h =
    Ipv4.make ~proto:Ip_proto.Icmp ~src:(Ipv4_addr.of_string "1.1.1.1")
      ~dst:(Ipv4_addr.of_string "2.2.2.2") ()
  in
  let buf = Ipv4.encode h Bytes.empty in
  Bytes.set buf 8 '\x00' (* clobber the TTL *);
  check tbool "rejected" true
    (match Ipv4.decode buf with exception Ipv4.Bad_header _ -> true | _ -> false)

let test_udp_roundtrip () =
  let src = Ipv4_addr.of_string "10.0.0.1" and dst = Ipv4_addr.of_string "10.0.0.2" in
  let buf = Udp.encode ~src ~dst { Udp.src_port = 1234; dst_port = 53 } (Bytes.of_string "q") in
  let u, p = Udp.decode ~src ~dst buf 0 (Bytes.length buf) in
  check tint "sport" 1234 u.Udp.src_port;
  check tint "dport" 53 u.Udp.dst_port;
  check tstr "payload" "q" (Bytes.to_string p)

let test_udp_pseudo_header () =
  let src = Ipv4_addr.of_string "10.0.0.1" and dst = Ipv4_addr.of_string "10.0.0.2" in
  let buf = Udp.encode ~src ~dst { Udp.src_port = 1; dst_port = 2 } (Bytes.of_string "x") in
  (* Decoding with a different address must fail the checksum. *)
  check tbool "pseudo" true
    (match Udp.decode ~src:(Ipv4_addr.of_string "10.0.0.9") ~dst buf 0 (Bytes.length buf) with
    | exception Udp.Bad_header _ -> true
    | _ -> false)

let test_gre_roundtrip () =
  let g = Gre.make ~key:1001l ~seq:7l ~with_csum:true Ethertype.Ipv4 in
  let buf = Gre.encode g (Bytes.of_string "inner") in
  let g', p = Gre.decode buf in
  check tbool "gre" true (Gre.equal g g');
  check tstr "payload" "inner" (Bytes.to_string p)

let test_gre_no_options () =
  let g = Gre.make Ethertype.Ipv4 in
  let buf = Gre.encode g (Bytes.of_string "x") in
  check tint "minimal header" 4 (Bytes.length buf - 1);
  let g', _ = Gre.decode buf in
  check tbool "no key" true (g'.Gre.key = None && g'.Gre.seq = None && not g'.Gre.with_csum)

let test_mpls_roundtrip () =
  let stack = [ Mpls.entry ~ttl:63 2001; Mpls.entry ~ttl:64 10001 ] in
  let buf = Mpls.encode stack (Bytes.of_string "ip") in
  let stack', p = Mpls.decode buf in
  check tbool "stack" true (Mpls.equal stack stack');
  check tstr "payload" "ip" (Bytes.to_string p)

let test_esp_roundtrip () =
  let key = 7001l in
  let buf = Esp.encode ~key { Esp.spi = 0x100l; seq = 9l } (Bytes.of_string "secret payload") in
  let hdr, plain = Esp.decode ~key buf 0 (Bytes.length buf) in
  check tbool "hdr" true (Esp.equal hdr { Esp.spi = 0x100l; seq = 9l });
  check tstr "payload" "secret payload" (Bytes.to_string plain);
  check tbool "ciphertext differs from plaintext" true
    (not
       (Bytes.equal
          (Bytes.sub buf Esp.header_size (Bytes.length buf - Esp.header_size - Esp.tag_size))
          (Bytes.of_string "secret payload")));
  check tbool "spi readable without key" true (Esp.spi_only buf = 0x100l)

let test_esp_wrong_key_rejected () =
  let buf = Esp.encode ~key:7001l { Esp.spi = 1l; seq = 1l } (Bytes.of_string "x") in
  check tbool "auth fails" true
    (match Esp.decode ~key:7002l buf 0 (Bytes.length buf) with exception Esp.Bad_packet _ -> true | _ -> false)

let prop_esp_roundtrip =
  QCheck.Test.make ~name:"esp encode/decode roundtrip" ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* key = map Int32.of_int (int_bound 0xffffff)
         and* spi = map Int32.of_int (int_bound 0xffff)
         and* body = map Bytes.of_string (string_size (int_bound 64)) in
         return (key, spi, body)))
    (fun (key, spi, body) ->
      let buf = Esp.encode ~key { Esp.spi; seq = 1l } body in
      let hdr, plain = Esp.decode ~key buf 0 (Bytes.length buf) in
      Int32.equal hdr.Esp.spi spi && Bytes.equal plain body)

let test_icmp_roundtrip () =
  let m = Icmp.Echo_request { id = 9; seq = 3 } in
  let buf = Icmp.encode m (Bytes.of_string "ping") in
  let m', p = Icmp.decode buf in
  check tbool "icmp" true (Icmp.equal m m');
  check tstr "payload" "ping" (Bytes.to_string p)

let test_arp_roundtrip () =
  let a =
    { Arp_pkt.op = Arp_pkt.Request;
      sender_mac = Mac_addr.make ~device:1 ~port:0;
      sender_ip = Ipv4_addr.of_string "10.0.0.1";
      target_mac = Mac_addr.of_int 0;
      target_ip = Ipv4_addr.of_string "10.0.0.2" }
  in
  check tbool "arp" true (Arp_pkt.equal a (Arp_pkt.get (Arp_pkt.encode a) 0))

let test_frame_signature () =
  let inner =
    Ipv4.encode
      (Ipv4.make ~proto:Ip_proto.Icmp ~src:(Ipv4_addr.of_string "10.0.0.1")
         ~dst:(Ipv4_addr.of_string "10.0.0.2") ())
      (Icmp.encode (Icmp.Echo_request { id = 1; seq = 1 }) Bytes.empty)
  in
  let gre = Gre.encode (Gre.make ~key:5l Ethertype.Ipv4) inner in
  let outer =
    Ipv4.encode
      (Ipv4.make ~proto:Ip_proto.Gre ~src:(Ipv4_addr.of_string "204.9.168.1")
         ~dst:(Ipv4_addr.of_string "204.9.169.1") ())
      gre
  in
  let frame =
    Ethernet.encode
      { Ethernet.dst = Mac_addr.broadcast;
        src = Mac_addr.make ~device:1 ~port:0;
        ethertype = Ethertype.Ipv4 }
      outer
  in
  check tstr "signature" "eth.ip.gre.ip.icmp" (Frame.signature frame)

(* --- properties --------------------------------------------------------- *)

let prop_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 encode/decode roundtrip" ~count:500
    (QCheck.make
       QCheck.Gen.(
         let* src = ip_gen and* dst = ip_gen and* ttl = int_range 1 255
         and* tos = int_bound 255 and* id = int_bound 0xffff and* body = bytes_gen in
         return (src, dst, ttl, tos, id, body)))
    (fun (src, dst, ttl, tos, id, body) ->
      let h = Ipv4.make ~tos ~id ~ttl ~proto:Ip_proto.Udp ~src ~dst () in
      let h', p = Ipv4.decode (Ipv4.encode h body) in
      Ipv4.equal h h' && Bytes.equal p body)

let prop_gre_roundtrip =
  QCheck.Test.make ~name:"gre encode/decode roundtrip" ~count:500
    (QCheck.make
       QCheck.Gen.(
         let* key = opt (map Int32.of_int (int_bound 0xffffff))
         and* seq = opt (map Int32.of_int (int_bound 0xffffff))
         and* with_csum = bool
         and* body = bytes_gen in
         return (key, seq, with_csum, body)))
    (fun (key, seq, with_csum, body) ->
      let g = { Gre.key; seq; with_csum; protocol = Ethertype.Ipv4 } in
      let g', p = Gre.decode (Gre.encode g body) in
      Gre.equal g g' && Bytes.equal p body)

let prop_mpls_roundtrip =
  QCheck.Test.make ~name:"mpls stack roundtrip" ~count:500
    (QCheck.make
       QCheck.Gen.(
         let* labels = list_size (int_range 1 6) (int_bound 0xfffff)
         and* body = bytes_gen in
         return (labels, body)))
    (fun (labels, body) ->
      let stack = List.map (fun l -> Mpls.entry l) labels in
      let stack', p = Mpls.decode (Mpls.encode stack body) in
      Mpls.equal stack stack' && Bytes.equal p body)

let prop_mac_roundtrip =
  QCheck.Test.make ~name:"mac wire roundtrip" ~count:500 (QCheck.make mac_gen) (fun m ->
      let buf = Bytes.create 6 in
      Mac_addr.set buf 0 m;
      Mac_addr.equal m (Mac_addr.get buf 0))

let prop_checksum_zero =
  QCheck.Test.make ~name:"filled checksum validates" ~count:500 (QCheck.make bytes_gen)
    (fun b ->
      QCheck.assume (Bytes.length b >= 2);
      let copy = Bytes.copy b in
      Bytes.set copy 0 '\x00';
      Bytes.set copy 1 '\x00';
      let c = Inet_csum.checksum copy 0 (Bytes.length copy) in
      Bytes.set copy 0 (Char.chr (c lsr 8));
      Bytes.set copy 1 (Char.chr (c land 0xff));
      Inet_csum.valid copy 0 (Bytes.length copy))

let prop_prefix_mem =
  QCheck.Test.make ~name:"prefix membership is mask equality" ~count:500
    (QCheck.make QCheck.Gen.(pair ip_gen (int_range 0 32)))
    (fun (a, l) ->
      let p = Prefix.make a l in
      Prefix.mem a p)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_ipv4_roundtrip; prop_gre_roundtrip; prop_mpls_roundtrip; prop_esp_roundtrip;
    prop_mac_roundtrip; prop_checksum_zero; prop_prefix_mem ]

let () =
  ignore arb;
  Alcotest.run "packet"
    [
      ( "addresses",
        [
          Alcotest.test_case "mac strings" `Quick test_mac_string;
          Alcotest.test_case "ip strings" `Quick test_ip_string;
          Alcotest.test_case "prefix ops" `Quick test_prefix;
          Alcotest.test_case "default route prefix" `Quick test_prefix_zero;
        ] );
      ( "headers",
        [
          Alcotest.test_case "ethernet roundtrip" `Quick test_eth_roundtrip;
          Alcotest.test_case "vlan roundtrip" `Quick test_vlan_roundtrip;
          Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "ipv4 checksum" `Quick test_ipv4_checksum_detects_corruption;
          Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
          Alcotest.test_case "udp pseudo header" `Quick test_udp_pseudo_header;
          Alcotest.test_case "gre roundtrip" `Quick test_gre_roundtrip;
          Alcotest.test_case "gre minimal" `Quick test_gre_no_options;
          Alcotest.test_case "mpls roundtrip" `Quick test_mpls_roundtrip;
          Alcotest.test_case "esp roundtrip" `Quick test_esp_roundtrip;
          Alcotest.test_case "esp wrong key" `Quick test_esp_wrong_key_rejected;
          Alcotest.test_case "icmp roundtrip" `Quick test_icmp_roundtrip;
          Alcotest.test_case "arp roundtrip" `Quick test_arp_roundtrip;
          Alcotest.test_case "frame signature" `Quick test_frame_signature;
        ] );
      ("properties", qsuite);
    ]
