(* Self-tests of the benchmark: seeded inputs repeat, every workload's
   oracle accepts a second seed, a wrong answer is counted as failed, the
   tail-percentile rule and the allocation counter. *)

open Perfbench

let workdir = "_work"

(* --- inputs ------------------------------------------------------------------ *)

let decide_inputs seed =
  String.concat "\n--\n"
    (List.init 60 (fun i -> Gen.instance_to_string (Gen.decide_instance ~seed i)))

let lint_inputs seed =
  String.concat "\n--\n"
    (List.map
       (fun (f : Corpus.file) -> f.name ^ "\n" ^ f.text ^ Option.value ~default:"" f.schema)
       (Corpus.lint_files ~seed 30))

let query_inputs seed =
  let c = Corpus.query_corpus ~seed ~classes:5 ~queries:40 in
  c.schema_text ^ Corpus.query_file_text c

let test_same_seed_same_bytes () =
  List.iter
    (fun (what, gen) ->
      Alcotest.(check string) (what ^ ": same seed, same bytes") (gen 7) (gen 7);
      Alcotest.(check bool) (what ^ ": another seed, other bytes") false (gen 7 = gen 8))
    [ ("decide", decide_inputs); ("lint", lint_inputs); ("query", query_inputs) ]

let test_written_files_identical () =
  let read dir =
    List.map
      (fun f -> (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  Corpus.write "_bytes_a" (Corpus.lint_files ~seed:3 12);
  Corpus.write "_bytes_b" (Corpus.lint_files ~seed:3 12);
  Alcotest.(check bool) "written corpora are byte-identical" true
    (read "_bytes_a" = read "_bytes_b")

(* --- oracles on a second seed --------------------------------------------------- *)

let no_failures (w : Runner.workload) ~ops () =
  let ctx = w.setup ~workdir ~seed:2 in
  let failed = ref 0 in
  for i = 0 to ops - 1 do
    if (ctx.op i).failed then incr failed
  done;
  ctx.close ();
  Alcotest.(check int) (w.name ^ ": failed ops at seed 2") 0 !failed

let pathctl = "../../bin/pathctl.exe"

(* --- a wrong answer is a failure ---------------------------------------------------- *)

(* The first word instance on which the semidecider, the word route's
   oracle, is decisive. *)
let rec decisive_word_instance i =
  match Gen.decide_instance ~seed:5 i with
  | Gen.Word { sigma; phi } as inst
    when not
           (Core.Verdict.is_unknown
              (Core.Semidecide.implies
                 ~ctl:(Core.Engine.start Wl_decide.oracle_budget)
                 ~sigma phi)) ->
      inst
  | _ -> decisive_word_instance (i + 1)

let test_flipped_verdict_fails () =
  let inst = decisive_word_instance 0 in
  let right = Wl_decide.answer inst in
  let wrong =
    match right with
    | Wl_decide.Word_answer (Ok b) -> Wl_decide.Word_answer (Ok (not b))
    | _ -> Alcotest.fail "expected a word answer"
  in
  Alcotest.(check bool) "the right verdict passes" false (Wl_decide.judge inst right 1.).failed;
  Alcotest.(check bool) "a flipped verdict fails" true (Wl_decide.judge inst wrong 1.).failed;
  (* and the loop counts it without stopping *)
  let ctx =
    {
      Runner.op = (fun _ -> Wl_decide.judge inst wrong 1.);
      round = 10;
      repeats = false;
      peak_rss_mb = (fun () -> 0.);
      traced_extras = (fun ~ops:_ -> []);
      close = ignore;
    }
  in
  let l = Runner.loop ctx ~start:0 ~seconds:0.05 in
  Alcotest.(check bool) "some ops ran" true (l.attempted > 1);
  Alcotest.(check int) "every flipped op counted as failed" l.attempted l.failed

let test_missing_defect_fails () =
  let f = List.hd (Corpus.lint_files ~seed:4 1) in
  let dir = Filename.concat workdir "missing" in
  Corpus.write dir [ f ];
  let diags = Wl_lint.lint dir f in
  Alcotest.(check bool) "all planted defects fire" true (Wl_lint.planted_fire f diags);
  let code, _ = List.hd f.planted in
  let dropped = List.filter (fun (d : Analysis.Diagnostic.t) -> d.code <> code) diags in
  Alcotest.(check bool) "a dropped diagnostic is caught" false (Wl_lint.planted_fire f dropped)

(* --- helpers ---------------------------------------------------------------------- *)

let test_tail_rule () =
  let s n = Array.init n float_of_int in
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (Stats.samples_needed 0.99);
  Alcotest.(check (option (float 0.))) "999 samples: no p99" None (Stats.tail_percentile (s 999) 0.99);
  Alcotest.(check (option (float 0.))) "1000 samples: p99 with ten beyond" (Some 989.)
    (Stats.tail_percentile (s 1000) 0.99);
  Alcotest.(check (option (float 0.))) "19 samples: no p50" None (Stats.tail_percentile (s 19) 0.5);
  Alcotest.(check (option (float 0.))) "20 samples: p50" (Some 9.) (Stats.tail_percentile (s 20) 0.5)

(* With [repeats], input [k] runs as ops [k], [k + round], ...; a stall
   in one of its runs leaves its median, and so the latencies and the
   throughput, alone. *)
let test_per_input_latencies () =
  let ctx =
    {
      Runner.op =
        (fun i ->
          let ms = if i = 4 then 1000. else float_of_int ((i mod 4) + 1) in
          { Runner.ms; failed = false; decisive = None });
      round = 4;
      repeats = true;
      peak_rss_mb = (fun () -> 0.);
      traced_extras = (fun ~ops:_ -> []);
      close = ignore;
    }
  in
  let l = Runner.loop ctx ~start:0 ~seconds:0.05 in
  Alcotest.(check bool) "every input ran at least three times" true (l.attempted >= 12);
  Alcotest.(check (array (float 0.))) "one median per input" [| 1.; 2.; 3.; 4. |]
    (Stats.sorted l.latencies);
  Alcotest.(check (float 1e-9)) "throughput at the median times" 400. l.throughput;
  Alcotest.(check bool) "the stall stays in the per-op samples" true
    (Array.exists (fun ms -> ms = 1000.) l.samples)

let test_minor_words () =
  let w0 = Host.minor_words () in
  let l = List.init 1000 Fun.id in
  let w = Host.minor_words () -. w0 in
  ignore (Sys.opaque_identity l);
  Alcotest.(check bool)
    (Printf.sprintf "a 1000-cons list reads %.0f >= 3000 minor words" w)
    true (w >= 3000.)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed gives the same bytes" `Quick test_same_seed_same_bytes;
          Alcotest.test_case "written corpora repeat" `Quick test_written_files_identical;
        ] );
      ( "second seed",
        [
          Alcotest.test_case "decide" `Quick (no_failures Wl_decide.workload ~ops:200);
          Alcotest.test_case "lint" `Quick (no_failures Wl_lint.workload ~ops:60);
          Alcotest.test_case "query" `Quick (no_failures Wl_query.workload ~ops:60);
          Alcotest.test_case "cli" `Quick (no_failures (Wl_cli.workload ~pathctl) ~ops:60);
        ] );
      ( "oracles",
        [
          Alcotest.test_case "flipped verdict counts as failed" `Quick test_flipped_verdict_fails;
          Alcotest.test_case "missing defect counts as failed" `Quick test_missing_defect_fails;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "ten samples beyond the percentile" `Quick test_tail_rule;
          Alcotest.test_case "per-input median latencies" `Quick test_per_input_latencies;
          Alcotest.test_case "Gc.minor_words sees allocation" `Quick test_minor_words;
        ] );
    ]
