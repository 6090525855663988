(* [lint]: Analysis.Lint.lint_paths over a seeded corpus of constraint
   files written at set-up, each result rendered as text, JSON and SARIF.
   The timed loop runs on one job; the traced run measures a pool of
   min(nproc, 2) against one job. *)

open Runner

(* Files in the corpus.  A round is one pass over all of them, so every
   file runs more than ten times in a 30 s run, and its latency is the
   median of those runs.  The loop only reads files: writes in the loop
   made its times follow the host's file-system load. *)
let corpus = 1000
let warmup = 100

(* Files per pass of the pool-against-one-job comparison. *)
let par_files = 600

(* Steps and nodes only: the redundancy pass's verdicts then repeat on
   every host. *)
let budget = Core.Engine.Budget.v ~max_steps:40 ~max_nodes:40 ()

let pool_size () = min (Host.cores ()) 2

let lint ?pool dir (f : Corpus.file) =
  Tracer.call "analysis" "Lint.lint_paths" (fun () ->
      Analysis.Lint.lint_paths ~budget ?pool
        ?schema_file:(Option.map (fun _ -> Corpus.schema_path dir f) f.schema)
        ~sigma_file:(Corpus.sigma_path dir f) ())

let render diags =
  let t = Tracer.call "analysis" "Diagnostic.render_text" (fun () -> Analysis.Diagnostic.render_text diags) in
  let j = Tracer.call "analysis" "Diagnostic.render_json" (fun () -> Analysis.Diagnostic.render_json diags) in
  let s = Tracer.call "analysis" "Diagnostic.render_sarif" (fun () -> Analysis.Diagnostic.render_sarif diags) in
  (t, j, s)

(* Each planted defect fires its code at its line. *)
let planted_fire (f : Corpus.file) diags =
  List.for_all
    (fun (code, line) ->
      List.exists
        (fun (d : Analysis.Diagnostic.t) ->
          d.code = code
          && match d.span with Some s -> s.Pathlang.Span.line = line | None -> false)
        diags)
    f.planted

let check (f : Corpus.file) diags (text, json, sarif) =
  planted_fire f diags
  && List.length (String.split_on_char '\n' (String.trim json)) = List.length diags
  && String.length text > 0
  && String.length sarif > 0

let inconclusive diags =
  List.exists (fun (d : Analysis.Diagnostic.t) -> d.code = "PC302") diags

(* Replayed outside the op: the parsers lint_paths runs first, timed on
   the op's own file texts. *)
let replay_parse (f : Corpus.file) =
  ignore
    (Tracer.replay "pathlang" "Parser.document_of_string" (fun () ->
         Pathlang.Parser.document_of_string f.text));
  Option.iter
    (fun s ->
      ignore
        (Tracer.replay "schema" "Schema_parser.of_string_spanned" (fun () ->
             Schema.Schema_parser.of_string_spanned s)))
    f.schema

let setup ~workdir ~seed =
  let dir = Filename.concat workdir (Printf.sprintf "lint-%d" seed) in
  let files = Array.init corpus (Corpus.lint_file ~seed) in
  Corpus.write dir (Array.to_list files);
  let op i =
    let f = files.(i mod corpus) in
    let (diags, rendered), ms =
      timed (fun () ->
          let diags = lint dir f in
          (diags, render diags))
    in
    if !Tracer.on then replay_parse f;
    if check f diags rendered then
      { ms; failed = false; decisive = Some (not (inconclusive diags)) }
    else fail ~what:("lint: a planted defect did not fire in " ^ f.name) ms
  in
  for i = 0 to warmup - 1 do
    ignore (op i)
  done;
  let pool = Par.create ~jobs:(pool_size ()) () in
  let traced_extras ~ops =
    (* a pool against one job on the same files, in this run *)
    let pass pool =
      let t0 = Host.now_ns () in
      for i = 0 to par_files - 1 do
        ignore (lint ?pool dir files.(i))
      done;
      Host.elapsed_s t0
    in
    let decisions = Tracer.counters_with_prefix "decision.route" in
    let t1, tn =
      Tracer.paused (fun () ->
          let t1 = pass None in
          (t1, pass (Some pool)))
    in
    [
      ( "analysis.redundancy.decisions_per_file",
        float_of_int decisions /. float_of_int (max 1 ops) );
      ("par.lint_speedup", Report.div t1 tn);
    ]
  in
  {
    op;
    round = corpus;
    repeats = true;
    peak_rss_mb = Host.peak_rss_mb;
    traced_extras;
    close = (fun () -> Par.shutdown pool);
  }

let workload = { name = "lint"; setup }
