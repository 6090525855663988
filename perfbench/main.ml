(* perfbench: one workload, one seed, one closed-loop run.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--commit C] [--workdir D] [--pathctl P]

   With --trace 0 the last stdout line holds the end-to-end metrics;
   with --trace 1 it holds the per-layer metrics of a traced loop, and
   the lines before it list every timed call. *)

open Perfbench
module J = Obs.Json

(* Set-up runs this many times; setup_s is the median. *)
let setup_reps = 5

(* Untraced/traced segment pairs of a traced run. *)
let trace_pairs = 4

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit C] [--workdir D] [--pathctl P]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "--workload" and seed = int "--seed" and seconds = int "--seconds" in
  let trace = int "--trace" = 1 in
  let commit = Option.value ~default:"unknown" (List.assoc_opt "--commit" opts) in
  let workdir = Option.value ~default:"perfbench/_work" (List.assoc_opt "--workdir" opts) in
  let pathctl =
    Option.value ~default:"_build/default/bin/pathctl.exe" (List.assoc_opt "--pathctl" opts)
  in
  let workloads =
    [ Wl_decide.workload; Wl_lint.workload; Wl_query.workload; Wl_cli.workload ~pathctl ]
  in
  let w =
    match List.find_opt (fun (w : Runner.workload) -> w.name = name) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ name);
        exit 2
  in
  let calibration_ms = Host.calibration_ms () in
  let setup_times = Array.make setup_reps 0. in
  let ctx = ref None in
  for r = 0 to setup_reps - 1 do
    Option.iter (fun (c : Runner.ctx) -> c.close ()) !ctx;
    let t0 = Host.now_ns () in
    ctx := Some (w.setup ~workdir ~seed);
    setup_times.(r) <- Host.elapsed_s t0
  done;
  let ctx = Option.get !ctx in
  let seconds = float_of_int seconds in
  let loop, metrics =
    if not trace then begin
      let loop = Runner.loop ctx ~start:0 ~seconds in
      (loop, Report.end_to_end ~setup_times ~loop ~peak_rss_mb:(ctx.peak_rss_mb ()))
    end
    else begin
      (* untraced and traced segments alternate over the same ops, so
         host drift cancels in their ratio, the tracing overhead *)
      Tracer.enable ();
      let seg = seconds /. float_of_int (2 * trace_pairs) in
      let start = ref 0 and pairs = ref [] in
      for _ = 1 to trace_pairs do
        let plain = Tracer.paused (fun () -> Runner.loop ctx ~start:!start ~seconds:seg) in
        let traced = Runner.loop ctx ~start:!start ~seconds:seg in
        start := !start + max plain.attempted traced.attempted;
        pairs := (plain, traced) :: !pairs
      done;
      let pairs = !pairs in
      let sum f = List.fold_left (fun acc p -> acc + f p) 0 pairs in
      let total (l : Runner.loop) n = Array.fold_left ( +. ) 0. (Array.sub l.samples 0 n) in
      let common (p, t) = min (Array.length p.Runner.samples) (Array.length t.Runner.samples) in
      let sum_ms f = List.fold_left (fun acc pr -> acc +. f pr) 0. pairs in
      let overhead =
        Report.div
          (sum_ms (fun ((_, t) as pr) -> total t (common pr)))
          (sum_ms (fun ((p, _) as pr) -> total p (common pr)))
      in
      let traced = Array.concat (List.map (fun (_, t) -> t.Runner.samples) pairs) in
      let ops = Array.length traced in
      let extras = ctx.traced_extras ~ops in
      let metrics = Report.per_layer ~ops ~extras ~overhead in
      print_string (Report.call_table ());
      Tracer.disable ();
      let merged =
        {
          (snd (List.hd pairs)) with
          Runner.samples = traced;
          attempted = sum (fun (p, t) -> p.attempted + t.attempted);
          failed = sum (fun (p, t) -> p.failed + t.failed);
        }
      in
      (merged, metrics)
    end
  in
  ctx.close ();
  let meta =
    J.Obj
      [
        ("workload", J.String name);
        ("seed", J.Int seed);
        ("seconds", J.Float seconds);
        ("trace", J.Bool trace);
        ("commit", J.String commit);
        ("ocaml", J.String Sys.ocaml_version);
        ("cores", J.Int (Host.cores ()));
        ("pool", J.Int (if name = "lint" && trace then Wl_lint.pool_size () else 1));
        ("calibration_ms", J.Float calibration_ms);
        ("setup_s", J.List (Array.to_list (Array.map (fun t -> J.Float t) setup_times)));
        ("samples", J.Int (Array.length loop.samples));
        ("latency_samples", J.Int (Array.length loop.latencies));
        ("p99_samples_needed", J.Int (Stats.samples_needed 0.99));
      ]
  in
  print_endline (J.to_string meta);
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (loop.failed = 0));
            ("attempted", J.Int loop.attempted);
            ("failed", J.Int loop.failed);
            ("metrics", Report.metrics_json metrics);
          ]))
