(* Edge-case tests for the shared tokenizer and token stream. *)

module Lexer = Disco_lex.Lexer
module Stream = Disco_lex.Lexer.Stream

let puncts = [ "<="; "<"; ":="; ":"; "("; ")"; ";"; "." ]

let kinds input = List.map fst (Lexer.tokenize ~puncts input)

let test_numbers () =
  (match kinds "42 3.5 1e6 2.5e-3 7E+2 10" with
  | [ Lexer.Int 42; Lexer.Float 3.5; Lexer.Float 1e6; Lexer.Float 2.5e-3;
      Lexer.Float 700.0; Lexer.Int 10 ] -> ()
  | _ -> Alcotest.fail "number forms");
  (* a digit followed by a bare 'e' is a number then an identifier *)
  match kinds "12e" with
  | [ Lexer.Int 12; Lexer.Ident "e" ] -> ()
  | _ -> Alcotest.fail "trailing e"

let test_longest_punct_first () =
  (match kinds "a<=b<c" with
  | [ Lexer.Ident "a"; Lexer.Punct "<="; Lexer.Ident "b"; Lexer.Punct "<";
      Lexer.Ident "c" ] -> ()
  | _ -> Alcotest.fail "<= vs <");
  match kinds "x := 1 : 2" with
  | [ Lexer.Ident "x"; Lexer.Punct ":="; Lexer.Int 1; Lexer.Punct ":";
      Lexer.Int 2 ] -> ()
  | _ -> Alcotest.fail ":= vs :"

let test_comments () =
  (match kinds "a // one\nb -- two\nc /* three\nlines */ d" with
  | [ Lexer.Ident "a"; Lexer.Ident "b"; Lexer.Ident "c"; Lexer.Ident "d" ] -> ()
  | _ -> Alcotest.fail "comment forms");
  Alcotest.check_raises "unterminated block"
    (Lexer.Error ("unterminated block comment", 5)) (fun () ->
      ignore (kinds "a /* b"))

let test_strings () =
  (match kinds {|"a\"b" 'c''d' "tab\there"|} with
  | [ Lexer.Str {|a"b|}; Lexer.Str "c"; Lexer.Str "d"; Lexer.Str "tab\there" ] ->
      ()
  | _ -> Alcotest.fail "string escapes");
  match kinds {|""|} with
  | [ Lexer.Str "" ] -> ()
  | _ -> Alcotest.fail "empty string"

let test_stream_navigation () =
  let s = Stream.of_string ~puncts "a ( b ) ;" in
  Alcotest.(check bool) "peek" true (Stream.peek s = Some (Lexer.Ident "a"));
  Alcotest.(check bool) "peek2" true (Stream.peek2 s = Some (Lexer.Punct "("));
  Alcotest.(check string) "ident" "a" (Stream.ident s);
  let saved = Stream.save s in
  Stream.eat_punct s "(";
  Alcotest.(check string) "b" "b" (Stream.ident s);
  Stream.restore s saved;
  Alcotest.(check bool) "restored" true (Stream.peek s = Some (Lexer.Punct "("));
  Stream.eat_punct s "(";
  ignore (Stream.ident s);
  Stream.eat_punct s ")";
  Alcotest.(check bool) "not at end" false (Stream.at_end s);
  Stream.eat_punct s ";";
  Alcotest.(check bool) "at end" true (Stream.at_end s);
  Stream.expect_end s

let test_stream_errors () =
  let s = Stream.of_string ~puncts "a b" in
  ignore (Stream.ident s);
  (try
     Stream.eat_punct s "(";
     Alcotest.fail "expected error"
   with Lexer.Error (m, pos) ->
     Alcotest.(check bool) "names expectation" true (String.length m > 0);
     Alcotest.(check int) "position of b" 2 pos);
  ignore (Stream.ident s);
  try
    ignore (Stream.next s);
    Alcotest.fail "expected end error"
  with Lexer.Error _ -> ()

let test_keywords_case_insensitive () =
  let s = Stream.of_string ~puncts "SELECT Select select" in
  Stream.eat_kw s "select";
  Alcotest.(check bool) "try" true (Stream.try_kw s "SELECT");
  Alcotest.(check bool) "peek" true (Stream.peek_kw s "SeLeCt")

(* Keyword probes compare in place: any case matches, but a longer
   identifier that starts with a keyword stays an identifier. *)
let test_keywords_against_identifiers () =
  let s = Stream.of_string ~puncts "SELECT Select selected union0 union" in
  Alcotest.(check bool) "SELECT" true (Stream.try_kw s "select");
  Alcotest.(check bool) "Select" true (Stream.try_kw s "select");
  Alcotest.(check bool) "selected is no keyword" false (Stream.peek_kw s "select");
  Alcotest.(check string) "selected" "selected" (Stream.ident s);
  Alcotest.(check bool) "union0 is no keyword" false (Stream.try_kw s "union");
  Alcotest.(check string) "union0" "union0" (Stream.ident s);
  Alcotest.(check bool) "union" true (Stream.try_kw s "UNION");
  Stream.expect_end s;
  (* a punctuation candidate longer than the rest of the input *)
  match kinds "a<" with
  | [ Lexer.Ident "a"; Lexer.Punct "<" ] -> ()
  | _ -> Alcotest.fail "< at the end of input"

let prop_offsets_monotone =
  QCheck.Test.make ~name:"token offsets are strictly increasing" ~count:300
    QCheck.(
      make
        ~print:(fun s -> s)
        Gen.(
          string_size ~gen:(oneofl [ 'a'; '1'; ' '; '('; ')'; '.'; ';' ])
            (int_range 0 30)))
    (fun input ->
      match Lexer.tokenize ~puncts input with
      | toks -> (
          let offsets = List.map snd toks in
          match offsets with
          | [] -> true
          | _ :: rest -> List.for_all2 ( < ) offsets (rest @ [ max_int ]))
      | exception Lexer.Error _ -> true)

let () =
  Alcotest.run "disco_lex"
    [
      ( "lexer",
        [
          Alcotest.test_case "numbers incl. exponents" `Quick test_numbers;
          Alcotest.test_case "longest punct wins" `Quick test_longest_punct_first;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "strings" `Quick test_strings;
        ] );
      ( "stream",
        [
          Alcotest.test_case "navigation and backtracking" `Quick
            test_stream_navigation;
          Alcotest.test_case "errors with positions" `Quick test_stream_errors;
          Alcotest.test_case "keywords case-insensitive" `Quick
            test_keywords_case_insensitive;
          Alcotest.test_case "keywords against identifiers" `Quick
            test_keywords_against_identifiers;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_offsets_monotone ]);
    ]
