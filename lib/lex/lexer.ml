type token =
  | Ident of string
  | Int of int
  | Float of float
  | Str of string
  | Punct of string

let pp_token ppf = function
  | Ident s -> Fmt.pf ppf "identifier %s" s
  | Int i -> Fmt.pf ppf "integer %d" i
  | Float f -> Fmt.pf ppf "float %g" f
  | Str s -> Fmt.pf ppf "string %S" s
  | Punct s -> Fmt.pf ppf "'%s'" s

let token_to_string t = Fmt.str "%a" pp_token t

exception Error of string * int

let error pos fmt = Format.kasprintf (fun s -> raise (Error (s, pos))) fmt

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* [s] holds [p] at offset [i], from [p]'s [k]th character on. A
   top-level function: comparing in place allocates nothing. *)
let rec holds_at s i p k =
  k = String.length p || (s.[i + k] = p.[k] && holds_at s i p (k + 1))

let tokenize ~puncts input =
  let puncts =
    List.sort (fun a b -> Int.compare (String.length b) (String.length a)) puncts
  in
  let len = String.length input in
  let buf = Buffer.create 32 in
  let rec skip_space i =
    if i >= len then i
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip_space (i + 1)
      | '/' when i + 1 < len && input.[i + 1] = '/' -> skip_space (line_end i)
      | '-' when i + 1 < len && input.[i + 1] = '-' -> skip_space (line_end i)
      | '/' when i + 1 < len && input.[i + 1] = '*' -> skip_space (block_end (i + 2))
      | _ -> i
  and line_end i = if i >= len || input.[i] = '\n' then i else line_end (i + 1)
  and block_end i =
    if i + 1 >= len then error i "unterminated block comment"
    else if input.[i] = '*' && input.[i + 1] = '/' then i + 2
    else block_end (i + 1)
  in
  let match_punct i =
    List.find_opt
      (fun p -> i + String.length p <= len && holds_at input i p 0)
      puncts
  in
  let read_string quote i =
    Buffer.clear buf;
    let rec go j =
      if j >= len then error i "unterminated string literal"
      else if input.[j] = quote then (Str (Buffer.contents buf), j + 1)
      else if input.[j] = '\\' && j + 1 < len then (
        (match input.[j + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | c -> Buffer.add_char buf c);
        go (j + 2))
      else (
        Buffer.add_char buf input.[j];
        go (j + 1))
    in
    go (i + 1)
  in
  let read_number i =
    let rec digits j = if j < len && is_digit input.[j] then digits (j + 1) else j in
    let j = digits i in
    let j, is_float =
      if j < len && input.[j] = '.' && j + 1 < len && is_digit input.[j + 1]
      then (digits (j + 1), true)
      else (j, false)
    in
    let j, is_float =
      (* exponent part, as printed by %g for large/small floats *)
      if j < len && (input.[j] = 'e' || input.[j] = 'E') then
        let k = if j + 1 < len && (input.[j + 1] = '+' || input.[j + 1] = '-') then j + 2 else j + 1 in
        if k < len && is_digit input.[k] then (digits k, true) else (j, is_float)
      else (j, is_float)
    in
    if is_float then (Float (float_of_string (String.sub input i (j - i))), j)
    else (Int (int_of_string (String.sub input i (j - i))), j)
  in
  let read_ident i =
    let rec go j = if j < len && is_ident_char input.[j] then go (j + 1) else j in
    let j = go i in
    (Ident (String.sub input i (j - i)), j)
  in
  let rec loop acc i =
    let i = skip_space i in
    if i >= len then List.rev acc
    else
      let tok, next =
        if input.[i] = '"' || input.[i] = '\'' then read_string input.[i] i
        else if is_digit input.[i] then read_number i
        else if is_ident_start input.[i] then read_ident i
        else
          match match_punct i with
          | Some p -> (Punct p, i + String.length p)
          | None -> error i "unexpected character %C" input.[i]
      in
      loop ((tok, i) :: acc) next
  in
  loop [] 0

module Stream = struct
  type t = { tokens : (token * int) array; mutable cursor : int; input_len : int }

  let of_tokens toks =
    let tokens = Array.of_list toks in
    let input_len =
      match Array.length tokens with
      | 0 -> 0
      | n -> snd tokens.(n - 1) + 1
    in
    { tokens; cursor = 0; input_len }

  let of_string ~puncts input =
    let s = of_tokens (tokenize ~puncts input) in
    { s with input_len = String.length input }

  let pos s =
    if s.cursor < Array.length s.tokens then snd s.tokens.(s.cursor)
    else s.input_len

  let peek s =
    if s.cursor < Array.length s.tokens then Some (fst s.tokens.(s.cursor))
    else None

  let peek2 s =
    if s.cursor + 1 < Array.length s.tokens then Some (fst s.tokens.(s.cursor + 1))
    else None

  let next s =
    match peek s with
    | Some t ->
        s.cursor <- s.cursor + 1;
        t
    | None -> error (pos s) "unexpected end of input"

  let at_end s = s.cursor >= Array.length s.tokens
  let save s = s.cursor
  let restore s cursor = s.cursor <- cursor

  let failf s fmt = error (pos s) fmt

  let eat_punct s p =
    match peek s with
    | Some (Punct q) when String.equal p q -> ignore (next s)
    | Some t -> failf s "expected '%s', found %s" p (token_to_string t)
    | None -> failf s "expected '%s', found end of input" p

  let try_punct s p =
    match peek s with
    | Some (Punct q) when String.equal p q ->
        ignore (next s);
        true
    | _ -> false

  let peek_punct s p =
    match peek s with Some (Punct q) -> String.equal p q | _ -> false

  (* [a] and [b], of one length, agree from index [k] on, ignoring
     ASCII case *)
  let rec same_ci a b k =
    k = String.length a
    || Char.lowercase_ascii a.[k] = Char.lowercase_ascii b.[k]
       && same_ci a b (k + 1)

  (* compared in place: a keyword probe allocates nothing *)
  let kw_matches kw = function
    | Ident id -> String.length id = String.length kw && same_ci id kw 0
    | _ -> false

  let eat_kw s kw =
    match peek s with
    | Some t when kw_matches kw t -> ignore (next s)
    | Some t -> failf s "expected keyword %s, found %s" kw (token_to_string t)
    | None -> failf s "expected keyword %s, found end of input" kw

  let try_kw s kw =
    match peek s with
    | Some t when kw_matches kw t ->
        ignore (next s);
        true
    | _ -> false

  let peek_kw s kw = match peek s with Some t -> kw_matches kw t | None -> false

  let ident s =
    match peek s with
    | Some (Ident id) ->
        ignore (next s);
        id
    | Some t -> failf s "expected an identifier, found %s" (token_to_string t)
    | None -> failf s "expected an identifier, found end of input"

  let expect_end s =
    if not (at_end s) then
      failf s "trailing input: %s" (token_to_string (Option.get (peek s)))
end
