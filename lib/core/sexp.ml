(* A minimal s-expression codec used as the wire format of the management
   channel. Atoms are quoted only when needed, so encoded messages stay
   human-readable in traces. *)

type t = Atom of string | List of t list

exception Parse_error of string

let atom s = Atom s
let list l = List l

let special c = c = ' ' || c = '(' || c = ')' || c = '"' || c = '\n' || c = '\\'

let needs_quoting s =
  let rec from i = i < String.length s && (special (String.unsafe_get s i) || from (i + 1)) in
  s = "" || from 0

let add_quoted buf s =
  Buffer.add_char buf '"';
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('"' | '\\') as c ->
        Buffer.add_char buf '\\';
        Buffer.add_char buf c
    | '\n' -> Buffer.add_string buf "\\n"
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

let rec to_buf buf = function
  | Atom s -> if needs_quoting s then add_quoted buf s else Buffer.add_string buf s
  | List [] -> Buffer.add_string buf "()"
  | List (first :: rest) ->
      Buffer.add_char buf '(';
      to_buf buf first;
      items_to_buf buf rest;
      Buffer.add_char buf ')'

and items_to_buf buf = function
  | [] -> ()
  | item :: rest ->
      Buffer.add_char buf ' ';
      to_buf buf item;
      items_to_buf buf rest

let to_string t =
  let buf = Buffer.create 64 in
  to_buf buf t;
  Buffer.contents buf

(* The parser indexes [s] directly; [!pos = n] stands for end of input.
   Error messages and positions are part of the format: the replay CLI
   prints them. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t') do incr pos done
  in
  (* A quoted atom's body, [!pos] just past the opening quote. Copies
     through a buffer only once an escape shows up. *)
  let quoted () =
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do incr pos done;
    if !pos >= n then fail "unclosed string"
    else if s.[!pos] = '"' then begin
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (2 * (!pos - start) + 16) in
      Buffer.add_substring buf s start (!pos - start);
      let rec loop () =
        if !pos >= n then fail "unclosed string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              incr pos;
              if !pos >= n then fail "bad escape";
              Buffer.add_char buf (if s.[!pos] = 'n' then '\n' else s.[!pos]);
              incr pos;
              loop ()
          | c ->
              Buffer.add_char buf c;
              incr pos;
              loop ()
      in
      loop ();
      Buffer.contents buf
    end
  in
  let rec parse () =
    skip_ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '(' ->
        incr pos;
        List (items ())
    | ')' -> fail "unexpected )"
    | '"' ->
        incr pos;
        Atom (quoted ())
    | _ ->
        let start = !pos in
        while
          !pos < n
          && not (s.[!pos] = ' ' || s.[!pos] = '(' || s.[!pos] = ')' || s.[!pos] = '\n')
        do
          incr pos
        done;
        Atom (String.sub s start (!pos - start))
  (* The rest of a list, [!pos] just past its opening parenthesis. *)
  and items () =
    skip_ws ();
    if !pos >= n then fail "unclosed list"
    else if s.[!pos] = ')' then begin
      incr pos;
      []
    end
    else
      let item = parse () in
      item :: items ()
  in
  let t = parse () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  t

(* --- combinators for conversions ---------------------------------------- *)

let of_int i = Atom (string_of_int i)

let to_int = function
  | Atom s -> ( try int_of_string s with Failure _ -> raise (Parse_error ("not an int: " ^ s)))
  | List _ -> raise (Parse_error "expected int atom")

let of_bool b = Atom (if b then "true" else "false")

let to_bool = function
  | Atom "true" -> true
  | Atom "false" -> false
  | _ -> raise (Parse_error "expected bool")

let to_atom = function
  | Atom s -> s
  | List _ -> raise (Parse_error "expected atom")

let to_list = function
  | List l -> l
  | Atom _ -> raise (Parse_error "expected list")

let of_option f = function None -> List [] | Some x -> List [ f x ]

let to_option f = function
  | List [] -> None
  | List [ x ] -> Some (f x)
  | _ -> raise (Parse_error "expected option")

let of_pair f g (a, b) = List [ f a; g b ]

let to_pair f g = function
  | List [ a; b ] -> (f a, g b)
  | _ -> raise (Parse_error "expected pair")

let of_mref (m : Ids.t) = List [ Atom m.Ids.name; Atom m.Ids.mid; Atom m.Ids.dev ]

let to_mref = function
  | List [ Atom name; Atom mid; Atom dev ] -> Ids.v name mid dev
  | _ -> raise (Parse_error "expected module ref")

let equal = ( = )
let pp ppf t = Fmt.string ppf (to_string t)
