module Span = Pathlang.Span
module Parser = Pathlang.Parser

type input = {
  env : Driver.env;
  doc : Parser.document;
  phi : Pathlang.Constr.t option;
}

let spanned i =
  List.map (fun l -> (l.Parser.constr, l.Parser.span)) i.doc.Parser.constraints

let with_schema i f =
  match i.env.schema with Some schema -> f schema | None -> []

(* Two stages: the span-pure passes, then the two budgeted heavy passes
   side by side (redundancy reads inconsistency's PC400 verdict, so it
   cannot join the first). *)
let stages ?budget () : input Driver.pass list list =
  let open Registry in
  [
    [
      attach classify (fun ({ env; phi; _ } as i) ~prior:_ ->
          Classify.run ~sigma_file:env.file ?schema:env.schema
            ?schema_file:env.schema_file ?schema_spans:env.schema_spans ?phi
            (spanned i));
      attach typeflow (fun i ~prior:_ ->
          with_schema i (fun schema ->
              Typeflow.pass ~sigma_file:i.env.file ~schema
                ~explain:i.env.explain i.doc.Parser.constraints));
      attach vacuity (fun i ~prior:_ ->
          with_schema i (fun schema ->
              Passes.vacuity ~sigma_file:i.env.file ~schema (spanned i)));
      attach inconsistency (fun i ~prior:_ ->
          with_schema i (fun schema ->
              Passes.inconsistency ~sigma_file:i.env.file ~schema (spanned i)));
      attach hygiene (fun ({ env; _ } as i) ~prior:_ ->
          Passes.hygiene ~sigma_file:env.file ?schema:env.schema
            ?schema_file:env.schema_file ?schema_spans:env.schema_spans
            (spanned i));
    ];
    [
      attach redundancy (fun i ~prior ->
          (* an inconsistent Sigma implies everything: redundancy is noise
             there *)
          if
            List.exists
              (fun d -> d.Diagnostic.code = "PC400")
              (prior "inconsistency")
          then []
          else
            Passes.redundancy ~sigma_file:i.env.file ?schema:i.env.schema
              ?budget (spanned i));
      attach interact (fun i ~prior:_ ->
          Interact.pass ~sigma_file:i.env.file ?schema:i.env.schema ?budget
            ~explain:i.env.explain (spanned i));
    ];
  ]

let budget_fingerprint (budget : Core.Engine.Budget.t option) =
  match budget with
  | None -> "default"
  | Some b ->
      Printf.sprintf "steps=%s;nodes=%s;timeout=%s"
        (match b.Core.Engine.Budget.max_steps with
        | None -> "-"
        | Some n -> string_of_int n)
        (match b.Core.Engine.Budget.max_nodes with
        | None -> "-"
        | Some n -> string_of_int n)
        (match b.Core.Engine.Budget.timeout with
        | None -> "-"
        | Some t -> Printf.sprintf "%g" t)

(* constraint files: line-oriented DSL, or the XML syntax when the
   content starts with '<' (XML constraints carry element-level spans
   but no per-token spans, and no suppression pragmas) *)
let parse ~file src =
  let t = String.trim src in
  if String.length t > 0 && t.[0] = '<' then
    match Xmlrep.Constraints_xml.parse_spanned src with
    | Ok cs ->
        Ok
          {
            Parser.constraints =
              List.map
                (fun (c, span) ->
                  { Parser.constr = c; span; tokens = Parser.no_token_spans })
                cs;
            pragmas = [];
          }
    | Error m ->
        Error
          [
            Diagnostic.make ~code:"PC001" ~severity:Diagnostic.Error ~file
              ~span:(Span.point ~line:1 ~col:1) m;
          ]
  else
    match Parser.document_of_string src with
    | Ok doc -> Ok doc
    | Error e ->
        Error
          (Driver.parse_error ~code:"PC001" ~file ~line:e.Parser.line
             ~col:e.Parser.col ~token:e.Parser.token e.Parser.reason)

let analyzer ?budget ?phi ?(interact = false) () =
  {
    Driver.key =
      (fun ~file ~src ~schema_file ~schema_src ~config:_ ~config_src ~explain ->
        [
          file;
          src;
          schema_file;
          schema_src;
          Option.value phi ~default:"";
          config_src;
          (if explain then "explain" else "");
          (if interact then "interact" else "");
          budget_fingerprint budget;
        ]);
    parse;
    context =
      (fun env doc ->
        match Option.map Parser.constraint_of_string phi with
        | None -> Ok { env; doc; phi = None }
        | Some (Ok c) -> Ok { env; doc; phi = Some c }
        | Some (Error m) ->
            Error
              [
                Diagnostic.make ~code:"PC001" ~severity:Diagnostic.Error
                  ~file:"<phi>" ("the goal constraint does not parse: " ^ m);
              ]);
    pragmas = (fun i -> i.doc.Parser.pragmas);
    stages = stages ?budget ();
    (* the interaction analyzer is opt-in: the flag wins over a
       config-side [false] (an explicit request beats a default) *)
    invoked =
      (fun env name ->
        Config.pass_enabled env.Driver.config name
        || (interact && name = "interact"));
  }

let run ?budget ?pool input =
  Driver.check (analyzer ?budget ()) { input.env with pool } input

(* --- exit-code policy ------------------------------------------------------ *)

let exit_code ?max_warnings diags =
  if Diagnostic.has_errors diags then 1
  else
    match max_warnings with
    | None -> 0
    | Some n ->
        let warnings =
          List.length
            (List.filter
               (fun d -> d.Diagnostic.severity = Diagnostic.Warning)
               diags)
        in
        if warnings > n then 1 else 0

(* --- file-level entry ------------------------------------------------------ *)

let lint_paths ?budget ?pool ?schema_file ?phi ?config_file ?cache_dir
    ?explain ?interact ~sigma_file () =
  (Driver.run ?pool ?schema_file ?config_file ?cache_dir ?explain
     ~file:sigma_file
     (analyzer ?budget ?phi ?interact ()))
    .Driver.diags
