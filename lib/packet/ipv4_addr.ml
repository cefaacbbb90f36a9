(* IPv4 addresses as int32 (network order value). *)

type t = int32

let of_int32 i = i
let to_int32 t = t

let of_octets a b c d =
  let v x =
    if x < 0 || x > 255 then invalid_arg "Ipv4_addr.of_octets";
    Int32.of_int x
  in
  Int32.logor
    (Int32.shift_left (v a) 24)
    (Int32.logor (Int32.shift_left (v b) 16) (Int32.logor (Int32.shift_left (v c) 8) (v d)))

let octet t i = Int32.to_int (Int32.shift_right_logical t ((3 - i) * 8)) land 0xff

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (octet t 0) (octet t 1) (octet t 2) (octet t 3)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
      (try of_octets (int_of_string a) (int_of_string b) (int_of_string c) (int_of_string d)
       with Failure _ -> invalid_arg ("Ipv4_addr.of_string: " ^ s))
  | _ -> invalid_arg ("Ipv4_addr.of_string: " ^ s)

let any = 0l
let localhost = of_octets 127 0 0 1

let equal (a : t) (b : t) = Int32.equal a b
let pp ppf t = Fmt.string ppf (to_string t)

let set buf off t = Bytes.set_int32_be buf off t
let get buf off = Bytes.get_int32_be buf off
