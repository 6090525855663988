(* The analyzer driver: the one pipeline behind constraint lint and the
   typed-RPQ query checker.

     configuration (PC003) -> read the file and the schema once ->
     cache key, lookup -> parse (PC001) -> schema (PC002) -> context ->
     registered passes, stage by stage -> suppression (PC510) ->
     severity overrides -> presentation sort -> family tallies -> store

   An analyzer supplies only what differs: its cache-key parts, its
   parser, the context its passes read, and its passes. *)

module Span = Pathlang.Span
module Parser = Pathlang.Parser
module Schema_parser = Schema.Schema_parser

type 'ctx pass =
  ('ctx -> prior:(string -> Diagnostic.t list) -> Diagnostic.t list)
  Registry.pass

type env = {
  file : string;
  schema : Schema.Mschema.t option;
  schema_file : string option;
  schema_spans : Schema_parser.spans option;
  config : Config.t;
  explain : bool;
  pool : Par.t option;
}

type ('doc, 'ctx) analyzer = {
  key :
    file:string ->
    src:string ->
    schema_file:string ->
    schema_src:string ->
    config:Config.t ->
    config_src:string ->
    explain:bool ->
    string list;
  parse : file:string -> string -> ('doc, Diagnostic.t list) result;
  context : env -> 'doc -> ('ctx, Diagnostic.t list) result;
  pragmas : 'ctx -> Parser.pragma list;
  stages : 'ctx pass list list;
  invoked : env -> string -> bool;
}

type outcome = { diags : Diagnostic.t list; max_warnings : int option }

let passes_run = Obs.Counter.make ~unit_:"passes" "lint.passes.run"

(* per-family diagnostic tallies as one labeled metric:
   [lint.diags{family="PC2xx"}] etc. *)
let f_diags = Obs.Counter.family ~unit_:"diagnostics" ~label:"family" "lint.diags"

let invoke name f =
  Obs.Span.with_ ("lint." ^ name) (fun () ->
      Obs.Counter.incr passes_run;
      f ())

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error m -> Error m

let error ~code ~file ?span m =
  [ Diagnostic.make ~code ~severity:Diagnostic.Error ~file ?span m ]

let parse_error ~code ~file ~line ~col ~token reason =
  error ~code ~file
    ~span:(Span.v ~line ~start_col:col ~end_col:(col + String.length token))
    (if token = "" then reason else Printf.sprintf "at %S: %s" token reason)

let whole_file_span = Span.v ~line:1 ~start_col:1 ~end_col:1

let apply_severity config diags =
  List.filter_map
    (fun d ->
      match Config.severity_override config d.Diagnostic.code with
      | None -> Some d
      | Some None -> None
      | Some (Some severity) -> Some { d with Diagnostic.severity })
    diags

(* Passes are pure given the context, so each stage fans out onto the
   pool; a later stage reads earlier findings through [prior].  Results
   are concatenated in Registry order whatever the schedule, so -j N
   output is byte-identical to -j 1. *)
let check an env ctx =
  let results = ref [] in
  let prior name = Option.value (List.assoc_opt name !results) ~default:[] in
  List.iter
    (fun stage ->
      let tasks =
        Array.of_list
          (List.filter (fun p -> an.invoked env p.Registry.name) stage)
      in
      let go i =
        let p = tasks.(i) in
        invoke p.Registry.name (fun () -> p.Registry.run ctx ~prior)
      in
      let n = Array.length tasks in
      let out =
        match env.pool with
        | Some pool when n > 1 -> Par.run pool ~tasks:n go
        | _ -> Array.init n go
      in
      Array.iteri
        (fun i ds -> results := (tasks.(i).Registry.name, ds) :: !results)
        out)
    an.stages;
  let found = List.concat_map (fun p -> prior p.Registry.name) Registry.all in
  let idle code =
    List.exists
      (fun p ->
        (not (List.mem_assoc p.Registry.name !results))
        && Registry.owns p code)
      (List.concat an.stages)
  in
  let all = Suppress.apply ~sigma_file:env.file ~idle (an.pragmas ctx) found in
  let all =
    List.stable_sort Diagnostic.compare (apply_severity env.config all)
  in
  (* per-family tallies (PC2xx vacuity, PC3xx redundancy, ...) so that
     --stats output attributes diagnostics as well as time to passes *)
  List.iter
    (fun d ->
      let code = d.Diagnostic.code in
      let family =
        if String.length code >= 3 then String.sub code 0 3 ^ "xx" else code
      in
      Obs.Counter.incr (Obs.Counter.tag f_diags family))
    all;
  all

let load_schema schema_file schema_src =
  match (schema_file, schema_src) with
  | None, _ -> Ok (None, None)
  | Some path, Error m ->
      Error (error ~code:"PC002" ~file:path ~span:whole_file_span m)
  | Some path, Ok text -> (
      match Schema_parser.of_string_spanned text with
      | Ok (schema, spans) -> Ok (Some schema, Some spans)
      | Error e ->
          Error
            (parse_error ~code:"PC002" ~file:path ~line:e.Schema_parser.line
               ~col:e.Schema_parser.col ~token:e.Schema_parser.token
               e.Schema_parser.reason))

let analyze an ~pool ~file ~schema_file ~config ~explain src schema_src =
  match src with
  | Error m -> error ~code:"PC001" ~file ~span:whole_file_span m
  | Ok src -> (
      match an.parse ~file src with
      | Error diags -> diags
      | Ok doc -> (
          match load_schema schema_file schema_src with
          | Error diags -> diags
          | Ok (schema, schema_spans) -> (
              let env =
                {
                  file;
                  schema;
                  schema_file;
                  schema_spans;
                  config;
                  explain;
                  pool;
                }
              in
              match an.context env doc with
              | Error diags -> diags
              | Ok ctx -> check an env ctx)))

let run ?pool ?schema_file ?config_file ?cache_dir ?(explain = false) ~file
    an =
  (* configuration first: everything downstream depends on it *)
  let config_src, config =
    match config_file with
    | None -> ("", Ok Config.default)
    | Some path -> (
        match read_file path with
        | Error m -> ("", Error (path, m))
        | Ok src ->
            (src, Result.map_error (fun m -> (path, m)) (Config.parse src)))
  in
  match config with
  | Error (path, m) ->
      { diags = error ~code:"PC003" ~file:path m; max_warnings = None }
  | Ok config ->
      let explain = explain || config.Config.explain in
      let cache_dir =
        match cache_dir with
        | Some _ -> cache_dir
        | None -> config.Config.cache_dir
      in
      let src = read_file file in
      let schema_src = Option.fold ~none:(Ok "") ~some:read_file schema_file in
      (* [pool] is deliberately absent from the key: -j N results are
         byte-identical to -j 1 by contract, so an entry is valid at any
         job count *)
      let cache =
        match (cache_dir, src, schema_src) with
        | Some dir, Ok src, Ok schema_src ->
            Some
              ( dir,
                Cache.key
                  ~parts:
                    (an.key ~file ~src
                       ~schema_file:(Option.value schema_file ~default:"")
                       ~schema_src ~config ~config_src ~explain) )
        | _ -> None
      in
      let diags =
        match Option.bind cache (fun (dir, key) -> Cache.lookup ~dir ~key) with
        | Some diags -> diags
        | None ->
            let diags =
              analyze an ~pool ~file ~schema_file ~config ~explain src
                schema_src
            in
            Option.iter (fun (dir, key) -> Cache.store ~dir ~key diags) cache;
            diags
      in
      { diags; max_warnings = config.Config.max_warnings }
