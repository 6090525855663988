(* Determinism of the domain-parallel searches: every pool-aware entry
   point must produce byte-identical results at 1, 2 and 4 jobs —
   witnesses included, not just verdicts — and full (no-hit) scans must
   cover exactly the candidates the sequential scan covers. *)

open Testutil

let job_counts = [ 1; 2; 4 ]

(* run [f] once without a pool and once per parallel job count; every
   result must equal the sequential one under [eq]/[show] *)
let same_at_all_job_counts name ~eq ~show f =
  let seq = f None in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          let par = f pool in
          if not (eq seq par) then
            Alcotest.failf "%s: %d jobs diverged: seq %s, par %s" name jobs
              (show seq) (show par)))
    job_counts;
  seq

let show_graph_opt = function
  | None -> "None"
  | Some g -> "\n" ^ Sgraph.Io.to_string g

let eq_graph_opt a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Sgraph.Io.to_string a = Sgraph.Io.to_string b
  | _ -> false

(* --- Enumerate.iter ---------------------------------------------------- *)

let ab = List.map Label.make [ "a"; "b" ]

(* a predicate with many hits spread over the mask space: the parallel
   scan must still return the minimal-mask one *)
let test_iter_minimal_mask_witness () =
  let la = List.hd ab in
  let hit g =
    Graph.edge_count g = 2
    && List.exists (fun (_, l, _) -> Pathlang.Label.equal l la) (Graph.edges g)
  in
  let w =
    same_at_all_job_counts "iter witness" ~eq:eq_graph_opt ~show:show_graph_opt
      (fun pool -> Sgraph.Enumerate.iter ?pool ~nodes:3 ~labels:ab hit)
  in
  match w with
  | None -> Alcotest.fail "expected a witness"
  | Some g -> check_bool "witness satisfies the predicate" true (hit g)

(* full scan (no hit): parallel and sequential must agree on the exact
   number of candidates visited — chunked coverage loses nothing *)
let test_iter_full_coverage () =
  let expected =
    match Sgraph.Enumerate.count ~nodes:3 ~labels:ab with
    | Some n -> n
    | None -> Alcotest.fail "3 nodes x 2 labels must not overflow"
  in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          let visited = Atomic.make 0 in
          let r =
            Sgraph.Enumerate.iter ?pool ~nodes:3 ~labels:ab (fun _ ->
                Atomic.incr visited;
                false)
          in
          check_bool "no witness" true (r = None);
          check_int
            (Printf.sprintf "all %d candidates visited at %d jobs" expected
               jobs)
            expected (Atomic.get visited)))
    job_counts

(* QCheck: on random instances, the witness at every job count in
   [job_counts] equals the sequential one (both None, or byte-identical
   graphs).  The name is short enough for Alcotest's 80-column report to
   print it whole; a truncated name shifts whenever the suite-label
   column width changes. *)
let prop_find_countermodel_deterministic =
  q ~count:30 "find_countermodel byte-identical at"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 3) arb_word_constraint)
              arb_word_constraint)
    (fun (sigma, phi) ->
      let f pool =
        Sgraph.Enumerate.find_countermodel ?pool ~max_nodes:2 ~labels:ab
          ~sigma ~phi ()
      in
      let seq = f None in
      List.for_all
        (fun jobs ->
          Par.with_pool ~jobs (fun pool -> eq_graph_opt seq (f pool)))
        job_counts)

let p = Path.of_string

(* --- Semidecide: the full pipeline ------------------------------------- *)

let verdict_fingerprint = function
  | Core.Verdict.Implied -> "implied"
  | Core.Verdict.Refuted g -> "refuted\n" ^ Sgraph.Io.to_string g
  | Core.Verdict.Unknown e ->
      "unknown " ^ Core.Verdict.reason_keyword e.Core.Verdict.reason

let test_semidecide_enum_fallback_identical () =
  (* diverging chase (b-loop) with a refutable phi: the verdict comes
     from the enumeration fallback, which is the pooled surface *)
  let sigma = [ Constr.word ~lhs:(p "a") ~rhs:(p "a.b") ] in
  let phi = Constr.word ~lhs:(p "a") ~rhs:(p "c") in
  let f pool =
    let ctl = Core.Engine.start (Core.Engine.Budget.steps_nodes 64 64) in
    verdict_fingerprint (Core.Semidecide.implies ~ctl ?pool ~sigma phi)
  in
  let seq = f None in
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          check_string
            (Printf.sprintf "verdict at %d jobs" jobs)
            seq (f pool)))
    job_counts

let () =
  Alcotest.run "parallel_search"
    [
      ( "enumerate",
        [
          Alcotest.test_case "minimal-mask witness" `Quick
            test_iter_minimal_mask_witness;
          Alcotest.test_case "full coverage" `Quick test_iter_full_coverage;
          prop_find_countermodel_deterministic;
        ] );
      ( "semidecide",
        [
          Alcotest.test_case "enum fallback identical" `Quick
            test_semidecide_enum_fallback_identical;
        ] );
    ]
