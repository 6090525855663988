(* Metric names, units and their computation.  The names here are the
   ones BENCHMARK.json declares; run.py checks the two agree. *)

module J = Obs.Json

let div a b = if b = 0. then 0. else a /. b

let end_to_end ~setup_times ~(loop : Runner.loop) ~peak_rss_mb =
  let lat = loop.latencies in
  let p99 =
    match Stats.tail_percentile lat 0.99 with
    | Some v -> v
    | None ->
        (* too few samples beyond p99: report the highest percentile
           that has ten beyond it, and say so *)
        let q = 1. -. (float_of_int Stats.min_beyond /. float_of_int (Array.length lat)) in
        prerr_endline
          (Printf.sprintf
             "perfbench: only %d latency samples; latency_p99_ms reports p%.1f"
             (Array.length lat) (100. *. q));
        Stats.quantile_sorted (Stats.sorted lat) (Float.max 0.5 q)
  in
  [
    ("setup_s", Stats.median setup_times, "s");
    ("throughput_ops_s", loop.throughput, "1/s");
    ("latency_p50_ms", Stats.median lat, "ms");
    ("latency_p99_ms", p99, "ms");
    ( "decided_share",
      (if loop.with_verdict = 0 then 1.
       else div (float_of_int loop.decisive) (float_of_int loop.with_verdict)),
      "share" );
    ( "ok_share",
      1. -. div (float_of_int loop.failed) (float_of_int loop.attempted),
      "share" );
    ("peak_rss_mb", peak_rss_mb, "MB");
  ]

(* Per-layer figures of a traced loop of [ops] ops. *)
let per_layer ~ops ~extras ~overhead =
  let ops_f = float_of_int (max 1 ops) in
  let rows = Tracer.rows () in
  let self = Hashtbl.create 16 and calls = Hashtbl.create 16
  and words = Hashtbl.create 16 and replay = Hashtbl.create 16 in
  let add t k v = Hashtbl.replace t k (v +. Option.value ~default:0. (Hashtbl.find_opt t k)) in
  let op_total = ref 0. and remainder = ref 0. in
  List.iter
    (fun (r : Tracer.row) ->
      match Tracer.classify r.name with
      | Tracer.Op ->
          op_total := !op_total +. r.total_ms;
          remainder := !remainder +. r.self_ms
      | Tracer.Call l ->
          add self l r.self_ms;
          add calls l (float_of_int r.count);
          add words l r.minor_words
      | Tracer.Lib l -> add self l r.self_ms
      | Tracer.Replay l -> add replay l r.total_ms
      | Tracer.Other -> remainder := !remainder +. r.self_ms)
    rows;
  let get t l = Option.value ~default:0. (Hashtbl.find_opt t l) in
  let span_count name =
    List.fold_left
      (fun acc (r : Tracer.row) -> if r.name = name then acc + r.count else acc)
      0 rows
  in
  let span_total name =
    List.fold_left
      (fun acc (r : Tracer.row) -> if r.name = name then acc +. r.total_ms else acc)
      0. rows
  in
  let c n = float_of_int (Tracer.counter n) in
  let layer_rows =
    List.concat_map
      (fun l ->
        [
          (l ^ ".self_ms_per_op", get self l /. ops_f, "ms");
          (l ^ ".share", div (get self l) !op_total, "share");
          (l ^ ".calls_per_op", get calls l /. ops_f, "count");
          (l ^ ".minor_kwords_per_op", get words l /. 1e3 /. ops_f, "kwords");
        ])
      Tracer.layers
  in
  let hits = c "semidecide.prefilter_hits" and misses = c "semidecide.prefilter_misses" in
  let chase_calls = float_of_int (span_count "chase.implies") in
  let fallbacks = c "semidecide.enum_fallbacks" in
  let extra name = Option.value ~default:0. (List.assoc_opt name extras) in
  layer_rows
  @ [
      ("pathlang.store.prefilter_hit_ratio", div hits (hits +. misses), "share");
      ("pathlang.replay_us_per_op", get replay "pathlang" *. 1e3 /. ops_f, "us");
      ("schema.replay_us_per_op", get replay "schema" *. 1e3 /. ops_f, "us");
      ( "automata.pre_star.calls_per_op",
        float_of_int
          (span_count "saturation.pre_star" + span_count "saturation.pre_star_worklist")
        /. ops_f,
        "count" );
      ("core.chase.steps_per_op", c "chase.steps" /. ops_f, "count");
      ( "core.chase.us_per_step",
        div (span_total "chase.implies" *. 1e3) (c "chase.steps"),
        "us" );
      ( "core.chase.decided_ratio",
        (if chase_calls = 0. then 0. else 1. -. (fallbacks /. chase_calls)),
        "share" );
      ( "core.enum.fallback_ratio",
        div fallbacks (float_of_int (span_count "semidecide.implies")),
        "share" );
      ("sgraph.enum.graphs_visited_per_op", c "enumerate.graphs_visited" /. ops_f, "count");
      ("analysis.redundancy.decisions_per_file", extra "analysis.redundancy.decisions_per_file", "count");
      ("rpq.typed_over_untyped", extra "rpq.typed_over_untyped", "ratio");
      ("par.lint_speedup", extra "par.lint_speedup", "ratio");
      ("obs.tracing_overhead", overhead, "ratio");
      ("bin.startup_ms", extra "bin.startup_ms", "ms");
      ("unattributed.ms_per_op", !remainder /. ops_f, "ms");
      ("unattributed.share", div !remainder !op_total, "share");
      ("trace.ops", float_of_int ops, "count");
    ]

(* Every timed call: count, total and self ms, share of op wall time,
   minor words allocated. *)
let call_table () =
  let rows = Tracer.rows () in
  let op_total =
    List.fold_left
      (fun acc (r : Tracer.row) -> if r.name = "op" then acc +. r.total_ms else acc)
      0. rows
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-44s %9s %11s %11s %7s %14s\n" "call" "count" "total_ms"
       "self_ms" "share" "minor_words");
  List.iter
    (fun (r : Tracer.row) ->
      Buffer.add_string b
        (Printf.sprintf "%-44s %9d %11.3f %11.3f %7.4f %14s\n" r.name r.count
           r.total_ms r.self_ms (div r.self_ms op_total)
           (if Float.is_nan r.minor_words then "-"
            else Printf.sprintf "%.0f" r.minor_words)))
    rows;
  Buffer.contents b

let metrics_json l =
  J.Obj
    (List.map
       (fun (name, v, unit_) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit_) ]))
       l)
