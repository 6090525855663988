(* [query]: per query, parse, Querycheck.pass and the type-pruned
   Rpq.Eval.eval_typed on graphs that conform to the schema. *)

open Runner
module NS = Sgraph.Graph.Node_set

let classes = 8
let oids_per_class = 12
let queries = 50

(* Each query runs on every one of these instance graphs: a closure's
   cost follows the reachable part of one random graph, and averaging
   over several keeps that cost alike across seeds. *)
let graphs = 4
let warmup = 20

type data = {
  corpus : Corpus.query_corpus;
  schema : Schema.Mschema.t;
  graphs : Sgraph.Graph.t array;
  dir : string;
}

let query_file dir = Filename.concat dir "queries.rpq"
let schema_file dir = Filename.concat dir "schema.schema"
let graph_file dir = Filename.concat dir "graph.edges"

(* The corpus, its files, and the conforming graphs; the first graph is
   written out for [cli]. *)
let build ~workdir ~seed =
  let dir = Filename.concat workdir (Printf.sprintf "query-%d" seed) in
  let corpus = Corpus.query_corpus ~seed ~classes ~queries in
  Corpus.mkdir_p dir;
  Corpus.write_file (query_file dir) (Corpus.query_file_text corpus);
  Corpus.write_file (schema_file dir) corpus.schema_text;
  let schema =
    match
      Tracer.call "schema" "Schema_parser.of_string_spanned" (fun () ->
          Schema.Schema_parser.of_string_spanned corpus.schema_text)
    with
    | Ok (s, _) -> s
    | Error e -> failwith (Schema.Schema_parser.error_to_string e)
  in
  let graph k =
    let inst =
      Schema.Instance_gen.random ~rng:(Gen.rng seed [ 4; k ]) ~oids_per_class schema
    in
    let st = Schema.Instance.to_structure inst in
    (match
       Tracer.call "schema" "Typecheck.validate" (fun () ->
           Schema.Typecheck.validate schema st)
     with
    | Ok () -> ()
    | Error (e :: _) -> failwith ("generated graph does not conform: " ^ e)
    | Error [] -> failwith "generated graph does not conform");
    st.graph
  in
  let graphs = Array.init graphs graph in
  Corpus.write_file (graph_file dir) (Sgraph.Io.to_string graphs.(0));
  { corpus; schema; graphs; dir }

let setup ~workdir ~seed =
  let d = build ~workdir ~seed in
  let qs = Array.of_list d.corpus.queries in
  let class_of = Array.map (Rpq.Typecheck.type_graph d.schema) d.graphs in
  let untyped = Hashtbl.create 256 in
  (* op i: query i mod |qs| on graph (i / |qs|) mod |graphs| *)
  let op i =
    let k = i mod Array.length qs and g = i / Array.length qs mod graphs in
    let q = qs.(k) in
    let r, ms =
      timed (fun () ->
          match
            Tracer.call "rpq" "Parser.parse" (fun () ->
                Rpq.Parser.parse ~line:(k + 1) q.text)
          with
          | Error e -> Error (Rpq.Parser.error_to_string e)
          | Ok ast ->
              let diags =
                Tracer.call "analysis" "Querycheck.pass" (fun () ->
                    Analysis.Querycheck.pass ~query_file:(query_file d.dir)
                      ~schema:d.schema
                      [ { Rpq.Parser.item = Rpq.Parser.Query ast; span = ast.span } ])
              in
              let tc =
                Tracer.call "rpq" "Typecheck.run" (fun () -> Rpq.Typecheck.run d.schema ast)
              in
              let ans =
                Tracer.call "rpq" "Eval.eval_typed" (fun () ->
                    Rpq.Eval.eval_typed ~class_of:class_of.(g) tc d.graphs.(g))
              in
              Ok (ast, diags, ans))
    in
    match r with
    | Error m -> fail ~what:("query does not parse: " ^ m) ms
    | Ok (ast, diags, ans) ->
        let expected =
          match Hashtbl.find_opt untyped (k, g) with
          | Some e -> e
          | None ->
              let e = Rpq.Eval.eval d.graphs.(g) (Rpq.Parser.regex_of ast) in
              Hashtbl.add untyped (k, g) e;
              e
        in
        let fired code = List.exists (fun (x : Analysis.Diagnostic.t) -> x.code = code) diags in
        let diags_ok =
          if q.dead then fired "PC801" else not (fired "PC800" || fired "PC801")
        in
        if not (NS.equal ans expected) then fail ~what:("typed answers differ: " ^ q.text) ms
        else if not diags_ok then fail ~what:("querycheck diagnostics: " ^ q.text) ms
        else { ms; failed = false; decisive = Some true }
  in
  for i = 0 to warmup - 1 do
    ignore (op i)
  done;
  let traced_extras ~ops:_ =
    (* typed against untyped evaluation of every query on every graph,
       in this run *)
    let asts =
      Array.map (fun (q : Corpus.query) -> Result.get_ok (Rpq.Parser.parse q.text)) qs
    in
    let time f =
      let t0 = Host.now_ns () in
      Array.iteri (fun g _ -> Array.iteri (f g) asts) d.graphs;
      Host.elapsed_s t0
    in
    let typed, plain =
      Tracer.paused (fun () ->
          let tcs = Array.map (Rpq.Typecheck.run d.schema) asts in
          let typed =
            time (fun g k _ ->
                ignore (Rpq.Eval.eval_typed ~class_of:class_of.(g) tcs.(k) d.graphs.(g)))
          in
          (typed, time (fun g _ a -> ignore (Rpq.Eval.eval d.graphs.(g) (Rpq.Parser.regex_of a)))))
    in
    [ ("rpq.typed_over_untyped", Report.div typed plain) ]
  in
  {
    op;
    round = queries * graphs;
    repeats = true;
    peak_rss_mb = Host.peak_rss_mb;
    traced_extras;
    close = ignore;
  }

let workload = { name = "query"; setup }
