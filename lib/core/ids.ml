(* Module references: every protocol module is globally identified by
   <module name, module-id, device-id> (CONMan §II). Module names are
   protocol names ("IP", "GRE", ...); module ids are unique within a
   device; device ids are globally unique and topology independent. *)

type t = { name : string; mid : string; dev : string }

let v name mid dev = { name; mid; dev }

let equal a b = a.name = b.name && a.mid = b.mid && a.dev = b.dev

let to_string t = Printf.sprintf "<%s,%s,%s>" t.name t.dev t.mid

let of_string s =
  let n = String.length s in
  if n < 2 || s.[0] <> '<' || s.[n - 1] <> '>' then invalid_arg ("Ids.of_string: " ^ s)
  else
    match String.split_on_char ',' (String.sub s 1 (n - 2)) with
    | [ name; dev; mid ] -> { name; mid; dev }
    | _ -> invalid_arg ("Ids.of_string: " ^ s)

let pp ppf t = Fmt.string ppf (to_string t)

(* A short label like "g" or "A.g" for rendering paths. *)
let short t = t.mid
let qualified t = t.dev ^ "." ^ t.mid
