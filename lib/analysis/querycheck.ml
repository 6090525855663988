(* The PC8xx pass: schema-aware static analysis of regular path
   queries, plus the [pathctl query lint] driver around it.

   The engine is Rpq.Typecheck — the product of the query's Thompson
   automaton with the schema automaton, with reachable and co-reachable
   pairs projected onto every regex position.  This pass turns the
   projection into diagnostics with token-anchored spans:

   - PC800 (empty query): L(query) does not intersect Paths(Delta) —
     equivalently, the product has no reachable accepting pair — with
     the first unsatisfiable token pinpointed (the first letter in
     source order whose entry still types non-empty but whose exit
     types empty);
   - PC801 (dead subexpression): an Alt branch or Star/Plus/Opt body
     of a non-empty query none of whose product pairs are both
     reachable and co-reachable, so every schema-live match avoids it;
   - PC802 (ill-typed regular constraint): an [lhs -> rhs] whose two
     answer-sort sets are disjoint, so the inclusion can only hold
     vacuously;
   - PC803 (--explain): the inferred sort set after every letter
     occurrence, the regex-position sibling of the PC602 chains.

   [pathctl query lint] is the Driver instance over a query file: the
   same configuration file (severity overrides, the [querycheck] pass
   switch), the same suppression pragmas (query files carry
   Pathlang.Parser pragmas) and the same content-hash cache as
   constraint lint.  This module supplies the query parser, the one
   registered pass (invoked only with a schema) and the cache-key
   parts, which add the pass switch itself. *)

module Label = Pathlang.Label
module Qparser = Rpq.Parser
module Typecheck = Rpq.Typecheck
module Mschema = Schema.Mschema

let qstr ast = Rpq.Regex.to_string (Qparser.regex_of ast)

let sorts_label schema = function
  | [] -> "(dead)"
  | taus ->
      String.concat " or " (List.map (Typeflow.sort_label schema) taus)

(* "db -[book]-> Book -[ref]-> Book": every letter occurrence in source
   order with the sorts live after it.  For a chain query this is
   exactly the PC602 rendering; for a branching query the segments
   enumerate the letter occurrences left to right. *)
let chain_label schema tc =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "db";
  List.iter
    (fun (k, _, sorts) ->
      Buffer.add_string buf
        (Printf.sprintf " -[%s]-> %s" (Label.to_string k)
           (sorts_label schema sorts)))
    (Typecheck.letter_chain tc);
  Buffer.contents buf

(* --- diagnostics of one checked query -------------------------------------- *)

let check_query ~query_file ~schema ~explain span (ast : Qparser.ast) =
  let tc = Typecheck.run schema ast in
  let out = ref [] in
  let add d = out := d :: !out in
  if Typecheck.empty_query tc then begin
    match Typecheck.first_dead tc with
    | Some (k, token_span, entry_sorts) ->
        add
          (Diagnostic.make ~code:"PC800" ~severity:Diagnostic.Warning
             ~file:query_file ~span:token_span
             (Printf.sprintf
                "empty query: no word of %s lies in Paths(Delta); sort %s \
                 has no edge labeled %s, so every candidate match dies at \
                 this token"
                (qstr ast)
                (sorts_label schema entry_sorts)
                (Label.to_string k)))
    | None ->
        add
          (Diagnostic.make ~code:"PC800" ~severity:Diagnostic.Warning
             ~file:query_file ~span
             (Printf.sprintf
                "empty query: no word of %s lies in Paths(Delta)" (qstr ast)))
  end
  else
    List.iter
      (fun (branch : Qparser.ast) ->
        add
          (Diagnostic.make ~code:"PC801" ~severity:Diagnostic.Warning
             ~file:query_file ~span:branch.Qparser.span
             (Printf.sprintf
                "dead subexpression: %s contributes no word of Paths(Delta); \
                 every schema-live match of %s avoids this branch"
                (qstr branch) (qstr ast))))
      (Typecheck.dead_subexprs tc);
  if explain then
    add
      (Diagnostic.make ~code:"PC803" ~severity:Diagnostic.Info
         ~file:query_file ~span
         (Printf.sprintf "type flow of %s: %s; answers: %s" (qstr ast)
            (chain_label schema tc)
            (sorts_label schema (Typecheck.answer_sorts tc))));
  (tc, List.rev !out)

let check_item ~query_file ~schema ~explain (it : Qparser.located) =
  match it.Qparser.item with
  | Qparser.Query ast ->
      snd (check_query ~query_file ~schema ~explain it.Qparser.span ast)
  | Qparser.Constr { lhs; rhs } ->
      let ltc, lds =
        check_query ~query_file ~schema ~explain it.Qparser.span lhs
      in
      let rtc, rds =
        check_query ~query_file ~schema ~explain it.Qparser.span rhs
      in
      let lsorts = Typecheck.answer_sorts ltc
      and rsorts = Typecheck.answer_sorts rtc in
      let disjoint =
        lsorts <> [] && rsorts <> []
        && not
             (List.exists
                (fun t -> List.exists (Schema.Mtype.equal t) rsorts)
                lsorts)
      in
      let pc802 =
        if disjoint then
          [
            Diagnostic.make ~code:"PC802" ~severity:Diagnostic.Warning
              ~file:query_file ~span:it.Qparser.span
              (Printf.sprintf
                 "ill-typed regular constraint: %s types to %s but %s types \
                  to %s; the answer sorts are disjoint, so the inclusion \
                  can only hold vacuously"
                 (qstr lhs) (sorts_label schema lsorts) (qstr rhs)
                 (sorts_label schema rsorts));
          ]
        else []
      in
      lds @ rds @ pc802

(* --- the pass -------------------------------------------------------------- *)

let check_items ~query_file ~schema ~explain items =
  List.concat_map (check_item ~query_file ~schema ~explain) items

let pass ~query_file ~schema ?(explain = false) items =
  Driver.invoke "querycheck" (fun () ->
      check_items ~query_file ~schema ~explain items)

(* --- the [pathctl query lint] analyzer ------------------------------------- *)

(* The querycheck pass switch and the query file's contents are key
   parts of their own (alongside the configuration text, which also
   spells the switch): flipping either must miss, which the mutation
   tests in test_querycheck flip field-by-field. *)
let key_parts ~querycheck ~explain ~query_file ~query_src ~schema_file
    ~schema_src ~config_src =
  [
    "querycheck";
    (if querycheck then "pass=on" else "pass=off");
    query_file;
    query_src;
    schema_file;
    schema_src;
    config_src;
    (if explain then "explain" else "");
  ]

let cache_key ~querycheck ~explain ~query_file ~query_src ~schema_file
    ~schema_src ~config_src =
  Cache.key
    ~parts:
      (key_parts ~querycheck ~explain ~query_file ~query_src ~schema_file
         ~schema_src ~config_src)

let analyzer =
  {
    Driver.key =
      (fun ~file ~src ~schema_file ~schema_src ~config ~config_src ~explain ->
        key_parts
          ~querycheck:(Config.pass_enabled config "querycheck")
          ~explain ~query_file:file ~query_src:src ~schema_file ~schema_src
          ~config_src);
    parse =
      (fun ~file src ->
        Qparser.document_of_string src
        |> Result.map_error (fun (e : Qparser.error) ->
               Driver.parse_error ~code:"PC001" ~file ~line:e.line ~col:e.col
                 ~token:e.token e.reason));
    context = (fun env doc -> Ok (env, doc));
    pragmas = (fun (_, doc) -> doc.Qparser.pragmas);
    stages =
      [
        [
          Registry.attach Registry.querycheck
            (fun ((env : Driver.env), doc) ~prior:_ ->
              match env.schema with
              | Some schema ->
                  check_items ~query_file:env.file ~schema ~explain:env.explain
                    doc.Qparser.items
              | None -> []);
        ];
      ];
    (* without a schema queries are only parsed *)
    invoked =
      (fun env name ->
        env.Driver.schema <> None && Config.pass_enabled env.config name);
  }

let lint_queries ?pool ?schema_file ?config_file ?cache_dir ?explain
    ~query_file () =
  (Driver.run ?pool ?schema_file ?config_file ?cache_dir ?explain
     ~file:query_file analyzer)
    .Driver.diags
