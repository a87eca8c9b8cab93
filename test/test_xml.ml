module X = Xml_kit.Minixml
module Xp = Xml_kit.Xpath_lite

let check_parse msg src expected = Alcotest.(check bool) msg true (X.equal (X.parse_string src) expected)

let test_element_basics () =
  check_parse "empty element" "<a/>" (X.Element ("a", [], []));
  check_parse "nested" "<a><b/><c/></a>"
    (X.Element ("a", [], [ X.Element ("b", [], []); X.Element ("c", [], []) ]));
  check_parse "attributes" {|<a x="1" y="two"/>|} (X.Element ("a", [ ("x", "1"); ("y", "two") ], []));
  check_parse "single quotes" "<a x='1'/>" (X.Element ("a", [ ("x", "1") ], []));
  check_parse "text" "<a>hello</a>" (X.Element ("a", [], [ X.Text "hello" ]));
  check_parse "namespaced names" "<UML:Model xmi.id=\"m1\"/>"
    (X.Element ("UML:Model", [ ("xmi.id", "m1") ], []))

let test_entities () =
  check_parse "predefined entities" "<a>&lt;&gt;&amp;&quot;&apos;</a>"
    (X.Element ("a", [], [ X.Text "<>&\"'" ]));
  check_parse "decimal reference" "<a>&#65;</a>" (X.Element ("a", [], [ X.Text "A" ]));
  check_parse "hex reference" "<a>&#x41;</a>" (X.Element ("a", [], [ X.Text "A" ]));
  check_parse "utf-8 encoding of big code point" "<a>&#955;</a>"
    (X.Element ("a", [], [ X.Text "\xce\xbb" ]));
  check_parse "entity in attribute" {|<a x="a&amp;b"/>|} (X.Element ("a", [ ("x", "a&b") ], []))

let test_misc_nodes () =
  check_parse "comment ignored by equal" "<a><!-- note --><b/></a>"
    (X.Element ("a", [], [ X.Element ("b", [], []) ]));
  check_parse "cdata" "<a><![CDATA[x < y & z]]></a>" (X.Element ("a", [], [ X.Cdata "x < y & z" ]));
  let doc = X.parse_string "<?xml version=\"1.0\"?><!DOCTYPE foo [<!ELEMENT a ANY>]><a/>" in
  Alcotest.(check string) "doctype skipped" "a" (X.name doc);
  let nodes = X.parse_fragments "<?pi body?><a/><!-- c -->" in
  Alcotest.(check int) "fragments" 3 (List.length nodes)

let expect_error msg src =
  match X.parse_string src with
  | exception X.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: expected a parse error" msg

let test_errors () =
  expect_error "mismatched closing tag" "<a></b>";
  expect_error "unterminated element" "<a><b></b>";
  expect_error "duplicate attribute" {|<a x="1" x="2"/>|};
  expect_error "unknown entity" "<a>&nope;</a>";
  expect_error "bad char reference" "<a>&#xZZ;</a>";
  expect_error "lt in attribute" {|<a x="<"/>|};
  expect_error "no root" "<!-- only a comment -->";
  expect_error "two roots" "<a/><b/>";
  expect_error "garbage" "hello";
  let position_is_reported =
    match X.parse_string "<a>\n  <b></c>\n</a>" with
    | exception X.Parse_error { line; _ } -> line = 2
    | _ -> false
  in
  Alcotest.(check bool) "error carries position" true position_is_reported

(* Elements nest at most 512 deep; past that the parser reports the
   first excess element rather than recursing on. *)
let test_nesting_cap () =
  let nested k =
    String.concat "" (List.init k (fun _ -> "<a>")) ^ String.concat "" (List.init k (fun _ -> "</a>"))
  in
  ignore (X.parse_string (nested 512));
  List.iter
    (fun k ->
      match X.parse_string (nested k) with
      | exception X.Parse_error { line; col; message } ->
          (* The 513th opening tag starts at column 1 + 3 * 512. *)
          Alcotest.(check (pair int int)) (Printf.sprintf "%d levels: position" k) (1, 1537)
            (line, col);
          Alcotest.(check string) "message" "elements nested deeper than 512 levels" message
      | _ -> Alcotest.failf "%d levels: expected a parse error" k)
    [ 513; 200_000 ]

let test_print_round_trip () =
  let samples =
    [
      X.Element ("a", [], []);
      X.Element ("a", [ ("k", "v with \"quotes\" & <angles>") ], []);
      X.Element ("a", [], [ X.Text "x < y & z > w" ]);
      X.Element ("root", [], [ X.Element ("kid", [ ("n", "1") ], [ X.Text "t" ]); X.Cdata "raw" ]);
      X.Element ("mixed", [], [ X.Text "a"; X.Element ("b", [], []); X.Text "c" ]);
    ]
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "print/parse round trip" true (X.equal t (X.parse_string (X.to_string t)));
      Alcotest.(check bool) "compact round trip" true
        (X.equal t (X.parse_string (X.to_string ~indent:0 t))))
    samples

let test_mixed_content_exact () =
  (* Character data must survive the pretty-printer byte for byte. *)
  let t = X.Element ("a", [], [ X.Text "  spaced   text  " ]) in
  match X.parse_string (X.to_string t) with
  | X.Element ("a", [], [ X.Text s ]) -> Alcotest.(check string) "text preserved" "  spaced   text  " s
  | _ -> Alcotest.fail "unexpected shape"

let test_accessors () =
  let t = X.parse_string {|<a x="1"><b/><c k="v">text</c></a>|} in
  Alcotest.(check (option string)) "attribute" (Some "1") (X.attribute "x" t);
  Alcotest.(check (option string)) "missing attribute" None (X.attribute "nope" t);
  Alcotest.(check int) "element children" 2 (List.length (X.element_children t));
  Alcotest.(check string) "text content" "text" (X.text_content t);
  let t2 = X.set_attribute "x" "2" t in
  Alcotest.(check (option string)) "set replaces" (Some "2") (X.attribute "x" t2);
  let t3 = X.set_attribute "new" "n" t in
  Alcotest.(check (option string)) "set appends" (Some "n") (X.attribute "new" t3);
  let t4 = X.remove_attribute "x" t in
  Alcotest.(check (option string)) "removed" None (X.attribute "x" t4);
  let t5 = X.add_child (X.Element ("d", [], [])) t in
  Alcotest.(check int) "child added" 3 (List.length (X.element_children t5))

let test_rewriting () =
  let t = X.parse_string "<a><b/><c><b/></c></a>" in
  let renamed =
    X.map_elements
      (function X.Element ("b", a, k) -> X.Element ("B", a, k) | node -> node)
      t
  in
  Alcotest.(check int) "map_elements bottom-up" 2 (List.length (Xp.descendants ~name:"B" renamed));
  let filtered = X.filter_children (fun node -> X.name node <> "b") t in
  Alcotest.(check int) "filter_children recursive" 0
    (List.length (Xp.descendants ~name:"b" filtered))

let test_xpath () =
  let t = X.parse_string {|<r><a><b i="1"/><b i="2"/></a><c><b i="3"/></c></r>|} in
  Alcotest.(check int) "child path" 2 (List.length (Xp.select "a/b" t));
  Alcotest.(check int) "deep path" 3 (List.length (Xp.select "//b" t));
  Alcotest.(check int) "wildcard" 2 (List.length (Xp.select "*" t));
  Alcotest.(check bool) "select_one" true (Xp.select_one "c/b" t <> None);
  Alcotest.(check bool) "select_one miss" true (Xp.select_one "c/zz" t = None);
  (match Xp.find_by_attribute ~name:"b" ~key:"i" ~value:"3" t with
  | Some found -> Alcotest.(check (option string)) "found i=3" (Some "3") (X.attribute "i" found)
  | None -> Alcotest.fail "find_by_attribute missed");
  Alcotest.(check int) "descendants all" 5 (List.length (Xp.descendants t))

(* Random tree generator for the property test. *)
let gen_tree =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "node"; "UML:Thing"; "x1" ] in
  let attr = pair (oneofl [ "k"; "key"; "xmi.id" ]) (string_size ~gen:printable (0 -- 8)) in
  let dedup_attrs attrs =
    List.fold_left (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc) [] attrs
  in
  fix
    (fun self depth ->
      if depth = 0 then map2 (fun n attrs -> X.Element (n, dedup_attrs attrs, [])) name (list_size (0 -- 3) attr)
      else
        map3
          (fun n attrs kids -> X.Element (n, dedup_attrs attrs, kids))
          name (list_size (0 -- 3) attr)
          (list_size (0 -- 3)
             (oneof
                [
                  self (depth - 1);
                  map (fun s -> X.Text (if String.trim s = "" then "t" else s))
                    (string_size ~gen:printable (1 -- 10));
                ])))
    3

let prop_round_trip =
  QCheck2.Test.make ~name:"print/parse round-trips random trees" ~count:200 gen_tree (fun t ->
      X.equal t (X.parse_string (X.to_string t)))

let suite =
  [
    Alcotest.test_case "element basics" `Quick test_element_basics;
    Alcotest.test_case "entities" `Quick test_entities;
    Alcotest.test_case "comments, cdata, doctype, pi" `Quick test_misc_nodes;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "nesting cap" `Quick test_nesting_cap;
    Alcotest.test_case "print round trip" `Quick test_print_round_trip;
    Alcotest.test_case "mixed content preserved exactly" `Quick test_mixed_content_exact;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "rewriting" `Quick test_rewriting;
    Alcotest.test_case "xpath-lite" `Quick test_xpath;
    QCheck_alcotest.to_alcotest prop_round_trip;
  ]
