(* [cli]: the built pathctl binary, one child process at a time, on files
   from the same corpora: lint, chase, implies-typed and query eval.
   Expected exit codes and stdout are computed in process from the
   libraries, outside the timed region. *)

open Runner

type case = {
  args : string list;
  expect_code : int;
  expect_out : string -> bool;  (** stdout check *)
  chase : bool option;  (** for chase runs: is the expected verdict decisive *)
}

(* Run pathctl with [args]; stdout and the exit code. *)
let run_pathctl pathctl args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process pathctl (Array.of_list (pathctl :: args)) null out_w null
  in
  Unix.close out_w;
  let out = In_channel.input_all (Unix.in_channel_of_descr out_r) in
  Unix.close out_r;
  Unix.close null;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + s
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let code = wait () in
  (out, code)

let steps = 100
let lint_files = 24
let chase_cases = 16
let typed_cases = 16
let cli_queries = 10
let warmup = 8

let exact s out = String.equal s out

let lint_case dir (f : Corpus.file) =
  let budget = Wl_lint.budget in
  let sigma_file = Corpus.sigma_path dir f in
  let schema_file = Option.map (fun _ -> Corpus.schema_path dir f) f.schema in
  let diags = Analysis.Lint.lint_paths ~budget ?schema_file ~sigma_file () in
  let max_steps = Option.get budget.Core.Engine.Budget.max_steps in
  {
    args =
      [ "lint"; "-s"; sigma_file; "--max-steps"; string_of_int max_steps; "--timeout"; "60" ]
      @ (match schema_file with Some s -> [ "--schema"; s ] | None -> []);
    expect_code = Analysis.Lint.exit_code diags;
    expect_out = exact (Analysis.Diagnostic.render_text diags);
    chase = None;
  }

let sigma_of_file path =
  match Pathlang.Parser.constraints_of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok s -> s
  | Error m -> failwith m

let chase_case dir k (sigma, phi) =
  let file = Filename.concat dir (Printf.sprintf "chase%02d.constraints" k) in
  Corpus.write_file file
    (String.concat "\n" (List.map Pathlang.Constr.to_string sigma) ^ "\n");
  let sigma = sigma_of_file file in
  let budget = Core.Engine.Budget.v ~max_steps:steps ~max_nodes:steps ~timeout:60. () in
  let v = Core.Semidecide.implies ~ctl:(Core.Engine.start budget) ~sigma phi in
  let code, out =
    match v with
    | Core.Verdict.Implied -> (0, exact "implied\n")
    | Core.Verdict.Refuted g ->
        let g = Core.Minimize.countermodel g ~sigma ~phi in
        (1, exact ("refuted; minimal countermodel:\n" ^ Sgraph.Io.to_string g))
    | Core.Verdict.Unknown _ -> (2, String.starts_with ~prefix:"unknown: ")
  in
  {
    args =
      [ "chase"; "-s"; file; Pathlang.Constr.to_string phi; "--max-steps";
        string_of_int steps; "--max-nodes"; string_of_int steps; "--timeout"; "60" ];
    expect_code = code;
    expect_out = out;
    chase = Some (code <> 2);
  }

let typed_case dir k (schema, sigma, phi) =
  let file = Filename.concat dir (Printf.sprintf "typed%02d.constraints" k) in
  let sfile = Filename.concat dir (Printf.sprintf "typed%02d.schema" k) in
  Corpus.write_file file
    (String.concat "\n" (List.map Pathlang.Constr.to_string sigma) ^ "\n");
  Corpus.write_file sfile (Schema.Schema_parser.to_string schema);
  let out =
    match Core.Typed_m.decide schema ~sigma:(sigma_of_file file) ~phi with
    | Ok (Core.Typed_m.Implied _) -> "true\n"
    | Ok (Core.Typed_m.Vacuous m) -> Printf.sprintf "true (vacuously: %s)\n" m
    | Ok (Core.Typed_m.Not_implied _) -> "false\n"
    | Error m -> failwith m
  in
  {
    args = [ "implies-typed"; "-s"; file; Pathlang.Constr.to_string phi; "--schema"; sfile ];
    expect_code = 0;
    expect_out = exact out;
    chase = None;
  }

(* The query corpus's schema and graph with the first queries; answers
   from the untyped evaluator on the graph as pathctl reads it. *)
let query_case ~workdir ~seed dir =
  let d = Wl_query.build ~workdir ~seed in
  let qs = List.filteri (fun i _ -> i < cli_queries) d.corpus.queries in
  let qfile = Filename.concat dir "queries.rpq" in
  Corpus.write_file qfile (String.concat "\n" (List.map (fun (q : Corpus.query) -> q.text) qs) ^ "\n");
  let g =
    match
      Sgraph.Io.of_string
        (In_channel.with_open_bin (Wl_query.graph_file d.dir) In_channel.input_all)
    with
    | Ok g -> g
    | Error m -> failwith m
  in
  let line (q : Corpus.query) =
    let r = Rpq.Parser.regex_of (Result.get_ok (Rpq.Parser.parse q.text)) in
    let ans = Rpq.Eval.eval g r in
    Printf.sprintf "%s:%s\n" (Rpq.Regex.to_string r)
      (String.concat ""
         (List.map (Printf.sprintf " %d") (Sgraph.Graph.Node_set.elements ans)))
  in
  {
    args =
      [ "query"; "eval"; qfile; "-g"; Wl_query.graph_file d.dir; "--schema";
        Wl_query.schema_file d.dir ];
    expect_code = 0;
    expect_out = exact (String.concat "" (List.map line qs));
    chase = None;
  }

let setup ~pathctl ~workdir ~seed =
  if not (Sys.file_exists pathctl) then failwith ("pathctl binary not found: " ^ pathctl);
  let dir = Filename.concat workdir (Printf.sprintf "cli-%d" seed) in
  let files = Corpus.lint_files ~seed lint_files in
  Corpus.write dir files;
  let lint = List.map (lint_case dir) files in
  let chase =
    List.init chase_cases (fun k ->
        match Gen.pc_instance (Gen.rng seed [ 5; k ]) with
        | Gen.Pc { sigma; phi } -> chase_case dir k (sigma, phi)
        | _ -> assert false)
  in
  let typed =
    List.init typed_cases (fun k ->
        match Gen.typed_instance (Gen.rng seed [ 6; k ]) with
        | Gen.Typed { schema; sigma; phi } -> typed_case dir k (schema, sigma, phi)
        | _ -> assert false)
  in
  let query = query_case ~workdir ~seed dir in
  (* one round: every case once, commands interleaved *)
  let cases = Array.of_list (lint @ chase @ typed @ [ query ]) in
  let order =
    let r = Gen.rng seed [ 7 ] in
    let a = Array.init (Array.length cases) Fun.id in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int r (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let op i =
    let c = cases.(order.(i mod Array.length order)) in
    let cmd = List.hd c.args in
    let (out, code), ms =
      timed (fun () -> Tracer.call "bin" ("pathctl " ^ cmd) (fun () -> run_pathctl pathctl c.args))
    in
    if code <> c.expect_code then
      fail ~what:(Printf.sprintf "pathctl %s exited %d, expected %d" cmd code c.expect_code) ms
    else if not (c.expect_out out) then
      fail ~what:(Printf.sprintf "pathctl %s: unexpected stdout (digest %s)" cmd
                    (Digest.to_hex (Digest.string out))) ms
    else { ms; failed = false; decisive = c.chase }
  in
  for i = 0 to warmup - 1 do
    ignore (op i)
  done;
  let traced_extras ~ops:_ =
    let startup =
      Tracer.paused (fun () ->
          Array.init 21 (fun _ ->
              let t0 = Host.now_ns () in
              ignore (run_pathctl pathctl [ "--version" ]);
              Host.elapsed_s t0 *. 1e3))
    in
    [ ("bin.startup_ms", Stats.median startup) ]
  in
  {
    op;
    round = Array.length order;
    repeats = false;
    peak_rss_mb = Host.children_peak_rss_mb;
    traced_extras;
    close = ignore;
  }

let workload ~pathctl =
  {
    name = "cli";
    setup = setup ~pathctl;
  }
