open Testutil
module Path = Pathlang.Path
module Constr = Pathlang.Constr
module Mschema = Schema.Mschema
module Typecheck = Schema.Typecheck
module Check = Sgraph.Check
module TS = Core.Typed_search
module TM = Core.Typed_m

let bib = Mschema.bib_m

let search ?bounds sigma phi =
  match TS.find_countermodel ?bounds bib ~sigma ~phi with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* --- basic behaviour ---------------------------------------------------- *)

let test_finds_simple_countermodel () =
  match search [] (c_word "book" "book.ref") with
  | Some t ->
      (match Typecheck.validate bib t with
      | Ok () -> ()
      | Error es -> Alcotest.fail (String.concat "; " es));
      check_bool "violates phi" false
        (Check.holds t.Typecheck.graph (c_word "book" "book.ref"))
  | None -> Alcotest.fail "a 2-per-class countermodel exists"

let test_respects_sigma () =
  (* with sigma forcing the ref loop, phi holds in every small model *)
  let sigma = [ c_word "book.ref" "book" ] in
  match search sigma (c_word "book.ref" "book") with
  | Some _ -> Alcotest.fail "phi is a member of sigma"
  | None -> ()

let test_unsupported_schema () =
  (* example_3_1 nests sets of atomic types as field values: the member
     sorts are fine but the set sorts themselves are anonymous values *)
  match
    TS.find_countermodel Mschema.example_3_1 ~sigma:[]
      ~phi:(c_word "book" "book")
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unsupported"

let test_count_structures () =
  match TS.count_structures ~bounds:{ TS.default_bounds with max_per_class = 1 } bib with
  | Ok n -> check_bool "positive" true (n > 0)
  | Error e -> Alcotest.fail e

(* a controller's step budget bounds the scan: a tautology exhausts
   the bounded space without a witness, so 40 steps must trip first *)
let test_step_budget_trips () =
  let ctl = Core.Engine.start (Core.Engine.Budget.steps_nodes 40 100_000) in
  (match
     TS.find_countermodel ~ctl bib ~sigma:[ c_word "book" "book.ref" ]
       ~phi:(c_word "person" "person")
   with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "a tautology has no countermodel"
  | Error e -> Alcotest.fail e);
  check_bool "step budget tripped" true
    (Core.Engine.tripped ctl = Some Core.Verdict.Steps)

(* --- cross-validation with Typed_m ----------------------------------------- *)

let prop_completeness_within_bounds =
  q ~count:40
    "when Typed_m's countermodel fits the bounds, the search also refutes"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let sigma = TM.random_constraints ~rng ~schema:bib ~count:2 ~max_len:2 in
      let phi =
        match TM.random_constraints ~rng ~schema:bib ~count:1 ~max_len:2 with
        | [ c ] -> c
        | _ -> QCheck.assume_fail ()
      in
      match TM.decide bib ~sigma ~phi with
      | Ok (TM.Not_implied t) ->
          (* per-class node counts of the Typed_m countermodel *)
          let g = t.Typecheck.graph in
          let count_sort pred =
            List.length
              (List.filter
                 (fun n ->
                   match Typecheck.type_of t n with
                   | Some s -> pred s
                   | None -> false)
                 (Sgraph.Graph.nodes g))
          in
          let class_count c =
            count_sort (function
              | Schema.Mtype.Class c' -> Schema.Mtype.cname_name c' = c
              | _ -> false)
          in
          let atom_count a =
            count_sort (function
              | Schema.Mtype.Atomic b -> Schema.Mtype.atomic_name b = a
              | _ -> false)
          in
          let needed_classes = max (class_count "Person") (class_count "Book") in
          let needed_atoms = max (atom_count "string") (atom_count "int") in
          if needed_classes <= 2 && needed_atoms <= 2 then (
            match
              TS.find_countermodel
                ~bounds:
                  { TS.max_per_class = 2; max_per_atom = 2; max_structures = 400_000 }
                bib ~sigma ~phi
            with
            | Ok (Some _) -> true
            | Ok None -> false (* incompleteness within bounds: a bug *)
            | Error _ -> false)
          else true
      | _ -> true)

let prop_never_contradicts_typed_m =
  q ~count:60 "bounded countermodels never contradict Typed_m"
    (QCheck.make QCheck.Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let sigma = TM.random_constraints ~rng ~schema:bib ~count:3 ~max_len:2 in
      let phi =
        match TM.random_constraints ~rng ~schema:bib ~count:1 ~max_len:3 with
        | [ c ] -> c
        | _ -> QCheck.assume_fail ()
      in
      let bounds =
        { TS.max_per_class = 2; max_per_atom = 1; max_structures = 30_000 }
      in
      match (TM.decide bib ~sigma ~phi, TS.find_countermodel ~bounds bib ~sigma ~phi) with
      | Ok (TM.Implied _), Ok (Some _) -> false (* contradiction! *)
      | Ok (TM.Vacuous _), Ok (Some _) -> false
      | _ -> true)

(* --- independent validation of Lemma 5.4 on a tiny instance ------------------ *)

let test_lemma_5_4_tiny () =
  let pres = Monoid.Examples.cyclic 2 in
  let enc = Core.Encode_mplus.encode pres in
  let bounds =
    { TS.max_per_class = 2; max_per_atom = 1; max_structures = 150_000 }
  in
  (* separated instance: a countermodel must exist within the bounds
     (Figure 4 with Z2 uses 2 C-nodes, 1 C_s, 1 C_l) *)
  let phi_neg = Core.Encode_mplus.encode_test enc (path "a", Path.empty) in
  (match
     TS.find_countermodel ~bounds enc.Core.Encode_mplus.schema
       ~sigma:enc.Core.Encode_mplus.sigma ~phi:phi_neg
   with
  | Ok (Some t) ->
      check_bool "search countermodel models sigma" true
        (Check.holds_all t.Typecheck.graph enc.Core.Encode_mplus.sigma);
      check_bool "search countermodel refutes phi" false
        (Check.holds t.Typecheck.graph phi_neg)
  | Ok None -> Alcotest.fail "expected a bounded countermodel (cf. Figure 4)"
  | Error e -> Alcotest.fail e);
  (* provable instance: no countermodel of any size exists, so in
     particular none within the bounds *)
  let phi_pos = Core.Encode_mplus.encode_test enc (path "a.a", Path.empty) in
  match
    TS.find_countermodel ~bounds enc.Core.Encode_mplus.schema
      ~sigma:enc.Core.Encode_mplus.sigma ~phi:phi_pos
  with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "a^2 = eps is provable in Z2: no countermodel"
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "typed-search"
    [
      ( "basic",
        [
          Alcotest.test_case "finds countermodel" `Quick
            test_finds_simple_countermodel;
          Alcotest.test_case "respects sigma" `Quick test_respects_sigma;
          Alcotest.test_case "unsupported schema" `Quick test_unsupported_schema;
          Alcotest.test_case "count" `Quick test_count_structures;
          Alcotest.test_case "step budget trips" `Quick test_step_budget_trips;
        ] );
      ( "cross-validation",
        [ prop_never_contradicts_typed_m; prop_completeness_within_bounds ] );
      ( "lemma 5.4",
        [ Alcotest.test_case "tiny instance, both sides" `Quick test_lemma_5_4_tiny ]
      );
    ]
