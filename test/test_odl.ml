(* Tests for the ODL layer: types, type maps, the schema registry, and the
   ODL parser with DISCO extensions. *)

module V = Disco_value.Value
module Otype = Disco_odl.Otype
module Typemap = Disco_odl.Typemap
module Registry = Disco_odl.Registry
module Odl = Disco_odl.Odl_parser

let check_value = Alcotest.testable V.pp V.equal

(* The paper's running example (Sections 2.1-2.2) as one ODL program. *)
let paper_program =
  {|
  r0 := Repository(host="rodin", name="db", address="123.45.6.7");
  r1 := Repository(host="umiacs", name="db", address="123.45.6.8");
  w0 := WrapperPostgres();
  interface Person (extent person) {
    attribute String name;
    attribute Short salary; }
  extent person0 of Person wrapper w0 repository r0;
  extent person1 of Person wrapper w0 repository r1;
  interface Student : Person { }
  extent student0 of Student wrapper w0 repository r0;
  interface PersonPrime {
    attribute String n;
    attribute Short s; }
  extent personprime0 of PersonPrime wrapper w0 repository r0
    map ((person0=personprime0),(name=n),(salary=s));
  define double as
    select struct(name: x.name, salary: x.salary + y.salary)
    from x in person0 and y in person1
    where x.id = y.id;
|}

let loaded () =
  let reg = Registry.create () in
  Odl.load reg paper_program;
  reg

(* -- Otype -- *)

let test_otype_names () =
  Alcotest.(check bool) "short" true (Otype.of_odl_name "Short" = Some Otype.TInt);
  Alcotest.(check bool) "string" true
    (Otype.of_odl_name "String" = Some Otype.TString);
  Alcotest.(check bool) "unknown" true (Otype.of_odl_name "Person" = None);
  Alcotest.(check string) "pp bag" "Bag<Short>"
    (Otype.to_string (Otype.TBag Otype.TInt))

(* -- Typemap -- *)

let test_typemap_directions () =
  let m =
    Typemap.make
      ~collection:("person0", "personprime0")
      [ ("name", "n"); ("salary", "s") ]
  in
  Alcotest.(check string) "collection to source" "person0"
    (Typemap.source_collection m "personprime0");
  Alcotest.(check string) "unmapped collection" "other"
    (Typemap.source_collection m "other");
  Alcotest.(check string) "field to source" "salary" (Typemap.source_field m "s");
  Alcotest.(check string) "field to mediator" "s" (Typemap.mediator_field m "salary");
  Alcotest.(check string) "unmapped field" "age" (Typemap.source_field m "age")

let test_typemap_rename_struct () =
  let m = Typemap.make [ ("name", "n"); ("salary", "s") ] in
  let src = V.strct [ ("name", V.String "Mary"); ("salary", V.Int 200) ] in
  Alcotest.check check_value "renamed"
    (V.strct [ ("n", V.String "Mary"); ("s", V.Int 200) ])
    (Typemap.rename_struct_to_mediator m src);
  let bag = V.bag [ src ] in
  (match Typemap.rename_struct_to_mediator m bag with
  | V.Bag [ V.Struct [ ("n", _); ("s", _) ] ] -> ()
  | _ -> Alcotest.fail "collection rename failed")

let test_typemap_duplicates () =
  (try
     ignore (Typemap.make [ ("a", "x"); ("a", "y") ]);
     Alcotest.fail "expected Map_error"
   with Typemap.Map_error _ -> ());
  try
    ignore (Typemap.make [ ("a", "x"); ("b", "x") ]);
    Alcotest.fail "expected Map_error"
  with Typemap.Map_error _ -> ()

let test_typemap_transforms () =
  let m =
    Typemap.make_ext
      ~collection:("weekly0", "person0")
      [ { Typemap.fe_src = "salary"; fe_med = "yearly"; fe_scale = 52.0; fe_offset = 0.0 } ]
  in
  Alcotest.check check_value "int stays int" (V.Int 520)
    (Typemap.convert_value_to_mediator m ~source_field:"salary" (V.Int 10));
  Alcotest.check check_value "unmapped untouched" (V.Int 10)
    (Typemap.convert_value_to_mediator m ~source_field:"other" (V.Int 10));
  (match Typemap.transform_of_mediator_field m "yearly" with
  | Some ("salary", 52.0, 0.0) -> ()
  | _ -> Alcotest.fail "transform lookup");
  (* struct renaming converts values *)
  Alcotest.check check_value "rename + convert"
    (V.strct [ ("yearly", V.Int 104) ])
    (Typemap.rename_struct_to_mediator m (V.strct [ ("salary", V.Int 2) ]));
  (* printing round-trips through the ODL parser *)
  let printed = Fmt.str "%a" Typemap.pp m in
  Alcotest.(check string) "pp" "((weekly0=person0),(salary*52=yearly))" printed;
  (try
     ignore
       (Typemap.make_ext
          [ { Typemap.fe_src = "a"; fe_med = "b"; fe_scale = -1.0; fe_offset = 0.0 } ]);
     Alcotest.fail "negative scale accepted"
   with Typemap.Map_error _ -> ())

let test_typemap_compose_transforms () =
  let inner =
    Typemap.make_ext
      [ { Typemap.fe_src = "mid"; fe_med = "top"; fe_scale = 2.0; fe_offset = 1.0 } ]
  in
  let outer =
    Typemap.make_ext
      [ { Typemap.fe_src = "src"; fe_med = "mid"; fe_scale = 3.0; fe_offset = 4.0 } ]
  in
  let c = Typemap.compose_flat outer inner in
  (* top = 2*mid + 1 = 2*(3*src + 4) + 1 = 6*src + 9 *)
  match Typemap.transform_of_mediator_field c "top" with
  | Some ("src", 6.0, 9.0) -> ()
  | Some (f, sc, off) -> Alcotest.fail (Fmt.str "%s %g %g" f sc off)
  | None -> Alcotest.fail "composition lost the transform"

(* -- Registry -- *)

let test_registry_interfaces () =
  let reg = loaded () in
  Alcotest.(check (list string))
    "interfaces" [ "Person"; "Student"; "PersonPrime" ]
    (Registry.interface_names reg);
  let attrs = Registry.attributes_of reg "Student" in
  Alcotest.(check (list string)) "inherited attrs" [ "name"; "salary" ]
    (List.map fst attrs);
  Alcotest.(check bool) "subtype" true
    (Registry.subtype_of reg ~sub:"Student" ~super:"Person");
  Alcotest.(check bool) "not supertype" false
    (Registry.subtype_of reg ~sub:"Person" ~super:"Student");
  Alcotest.(check bool) "reflexive" true
    (Registry.subtype_of reg ~sub:"Person" ~super:"Person")

let test_registry_extents () =
  let reg = loaded () in
  let names l = List.map (fun e -> e.Registry.me_name) l in
  Alcotest.(check (list string))
    "direct extents (no subtypes, Section 2.2.1)" [ "person0"; "person1" ]
    (names (Registry.extents_of reg "Person"));
  Alcotest.(check (list string))
    "star extents include subtypes" [ "person0"; "person1"; "student0" ]
    (names (Registry.extents_of_star reg "Person"));
  match Registry.find_extent reg "personprime0" with
  | None -> Alcotest.fail "personprime0 missing"
  | Some e ->
      Alcotest.(check string) "mapped source field" "salary"
        (Typemap.source_field e.Registry.me_map "s")

(* Extents are found by name through a table kept in step with the
   definition-order list: after 5,000 extents and a sharded extent added,
   removed and added again, every lookup and enumeration must equal the
   answer read off the list itself. *)
let test_registry_many_extents () =
  let reg = loaded () in
  let base = List.map (fun e -> e.Registry.me_name) (Registry.all_extents reg) in
  let n = 5000 in
  let bulk = List.init n (Printf.sprintf "bulk%d") in
  Odl.load reg
    (String.concat "\n"
       (List.mapi
          (fun i name ->
            Printf.sprintf "extent %s of %s wrapper w0 repository r%d;" name
              (if i mod 3 = 0 then "Student" else "Person")
              (i mod 2))
          bulk));
  let sharded = "extent staff of Person wrapper w0 sharded by id range (100) across r0 r1;" in
  let staff = [ "staff"; "staff__s0"; "staff__s1" ] in
  let agree label ~expected_names =
    let all = Registry.all_extents reg in
    Alcotest.(check (list string))
      (label ^ ": all_extents in definition order")
      expected_names
      (List.map (fun e -> e.Registry.me_name) all);
    List.iter
      (fun name ->
        let from_list =
          List.find_opt (fun e -> String.equal e.Registry.me_name name) all
        in
        if not (Option.equal ( == ) from_list (Registry.find_extent reg name))
        then Alcotest.failf "%s: find_extent %s disagrees with the list" label name)
      (("bulk" ^ string_of_int n) :: "nosuch" :: staff @ expected_names);
    List.iter
      (fun itf ->
        Alcotest.(check (list string))
          (label ^ ": extents_of " ^ itf)
          (List.filter_map
             (fun e ->
               if String.equal e.Registry.me_interface itf
                  && e.Registry.me_shard_of = None
               then Some e.Registry.me_name
               else None)
             all)
          (List.map (fun e -> e.Registry.me_name) (Registry.extents_of reg itf)))
      [ "Person"; "Student"; "PersonPrime" ]
  in
  agree "bulk" ~expected_names:(base @ bulk);
  Odl.load reg sharded;
  agree "sharded" ~expected_names:(base @ bulk @ staff);
  Registry.remove_extent reg "staff";
  agree "removed" ~expected_names:(base @ bulk);
  Odl.load reg sharded;
  agree "re-added" ~expected_names:(base @ bulk @ staff);
  List.iter
    (fun text ->
      match Odl.load reg text with
      | () -> Alcotest.failf "expected %S to be rejected" text
      | exception Registry.Odl_error m ->
          if not (String.ends_with ~suffix:"already defined" m) then
            Alcotest.failf "unexpected error for %S: %s" text m)
    [ "extent bulk17 of Person wrapper w0 repository r0;"; sharded ]

let test_registry_errors () =
  let reg = loaded () in
  let expect_err f =
    try
      f ();
      Alcotest.fail "expected Odl_error"
    with Registry.Odl_error _ -> ()
  in
  expect_err (fun () ->
      Odl.load reg "extent person0 of Person wrapper w0 repository r0;");
  expect_err (fun () ->
      Odl.load reg "extent px of Nosuch wrapper w0 repository r0;");
  expect_err (fun () ->
      Odl.load reg "extent py of Person wrapper nosuch repository r0;");
  expect_err (fun () ->
      Odl.load reg "interface Person { attribute Short x; }");
  expect_err (fun () ->
      Odl.load reg
        "interface Bad : Person { attribute String name; }" (* dup attr *))

let test_registry_metaextent_bag () =
  let reg = loaded () in
  let bag = Registry.metaextent_bag reg in
  Alcotest.(check int) "four extents" 4 (V.cardinal bag);
  let person_extents =
    V.filter_elements
      (fun me -> V.equal (V.field me "interface") (V.String "Person"))
      bag
  in
  Alcotest.(check int) "person extents" 2 (V.cardinal person_extents)

let test_registry_versioning () =
  let reg = loaded () in
  let v0 = Registry.version reg in
  Odl.load reg "extent person2 of Person wrapper w0 repository r0;";
  let v1 = Registry.version reg in
  Alcotest.(check bool) "add bumps" true (v1 > v0);
  Odl.load reg "drop extent person2;";
  Alcotest.(check bool) "drop bumps" true (Registry.version reg > v1);
  Odl.load reg "drop extent nosuch;";
  Alcotest.(check bool) "no-op drop does not bump" true
    (Registry.version reg = v1 + 1)

let test_struct_conforms () =
  let reg = loaded () in
  let ok = V.strct [ ("name", V.String "Mary"); ("salary", V.Int 200) ] in
  let wrong_type = V.strct [ ("name", V.Int 1); ("salary", V.Int 200) ] in
  let missing = V.strct [ ("name", V.String "Mary") ] in
  Alcotest.(check bool) "conforms" true (Registry.struct_conforms reg "Person" ok);
  Alcotest.(check bool) "wrong type" false
    (Registry.struct_conforms reg "Person" wrong_type);
  Alcotest.(check bool) "missing field" false
    (Registry.struct_conforms reg "Person" missing);
  Alcotest.(check bool) "null field conforms" true
    (Registry.struct_conforms reg "Person"
       (V.strct [ ("name", V.Null); ("salary", V.Null) ]))

(* -- parser details -- *)

let test_parse_objects () =
  match Odl.parse_program {|r9 := Repository(host="h", name="n", address="a");|} with
  | [ Odl.Object_def { od_name = "r9"; od_constructor = "Repository"; od_args } ] ->
      Alcotest.(check int) "args" 3 (List.length od_args);
      Alcotest.check check_value "host" (V.String "h") (List.assoc "host" od_args)
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_define_body () =
  let program = {|define v as select x from x in person where x.salary > 10;|} in
  match Odl.parse_program program with
  | [ Odl.View_def { vd_name = "v"; vd_body } ] ->
      Alcotest.(check string) "raw body"
        "select x from x in person where x.salary > 10" vd_body
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_define_nested_semicolon () =
  (* Parentheses protect nothing here, but a second statement follows: the
     define body must stop at the first top-level ';'. *)
  let program =
    {|define v as union(select x from x in a, bag(1));
      interface I { attribute Short k; }|}
  in
  match Odl.parse_program program with
  | [ Odl.View_def { vd_body; _ }; Odl.Interface_def i ] ->
      Alcotest.(check string) "body" "union(select x from x in a, bag(1))" vd_body;
      Alcotest.(check string) "next statement" "I" i.Registry.if_name
  | _ -> Alcotest.fail "unexpected parse"

let test_parse_roundtrip_pp () =
  let program = paper_program in
  let stmts = Odl.parse_program program in
  Alcotest.(check int) "statement count" 11 (List.length stmts);
  (* Printing then reparsing every statement must preserve it. *)
  List.iter
    (fun stmt ->
      let printed = Fmt.str "%a" Odl.pp_statement stmt in
      match Odl.parse_program printed with
      | [ stmt2 ] ->
          Alcotest.(check string)
            (Fmt.str "stable: %s" printed)
            printed
            (Fmt.str "%a" Odl.pp_statement stmt2)
      | _ -> Alcotest.fail ("reparse failed for: " ^ printed))
    stmts

let () =
  Alcotest.run "disco_odl"
    [
      ("otype", [ Alcotest.test_case "names and printing" `Quick test_otype_names ]);
      ( "typemap",
        [
          Alcotest.test_case "directions" `Quick test_typemap_directions;
          Alcotest.test_case "struct renaming" `Quick test_typemap_rename_struct;
          Alcotest.test_case "duplicates rejected" `Quick test_typemap_duplicates;
          Alcotest.test_case "value transforms" `Quick test_typemap_transforms;
          Alcotest.test_case "transform composition" `Quick
            test_typemap_compose_transforms;
        ] );
      ( "registry",
        [
          Alcotest.test_case "interfaces and subtyping" `Quick
            test_registry_interfaces;
          Alcotest.test_case "extents and star" `Quick test_registry_extents;
          Alcotest.test_case "5,000 extents by name" `Quick
            test_registry_many_extents;
          Alcotest.test_case "semantic errors" `Quick test_registry_errors;
          Alcotest.test_case "metaextent bag" `Quick test_registry_metaextent_bag;
          Alcotest.test_case "versioning" `Quick test_registry_versioning;
          Alcotest.test_case "struct conformance" `Quick test_struct_conforms;
        ] );
      ( "parser",
        [
          Alcotest.test_case "object definitions" `Quick test_parse_objects;
          Alcotest.test_case "define raw body" `Quick test_parse_define_body;
          Alcotest.test_case "define stops at semicolon" `Quick
            test_parse_define_nested_semicolon;
          Alcotest.test_case "print/parse roundtrip" `Quick test_parse_roundtrip_pp;
        ] );
    ]
