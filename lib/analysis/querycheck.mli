(** The PC8xx pass: schema-aware static analysis of regular path
    queries ([pathctl query lint]).

    Each query in a query file is typechecked against the schema by
    {!Rpq.Typecheck} — the product of its Thompson automaton with the
    schema automaton — and the reachable/co-reachable projection is
    rendered as diagnostics:

    {ul
    {- [PC800] — the query is empty over the schema: no word of its
       language lies in Paths(Delta).  The span pinpoints the first
       letter (in source order) whose entry sorts are non-empty but
       whose exit sorts are empty — the token where every candidate
       match dies;}
    {- [PC801] — a dead subexpression of a non-empty query: an [Alt]
       branch or [Star]/[Plus]/[Opt] body none of whose product states
       are both reachable and co-reachable, spanned at the subtree;}
    {- [PC802] — an ill-typed regular constraint [lhs -> rhs]: both
       sides are non-empty but their answer-sort sets are disjoint, so
       the containment can only hold vacuously;}
    {- [PC803] (with [explain]) — the inferred sort sets after every
       letter occurrence, the query-side sibling of the [PC602]
       type-flow chains.}}

    [pathctl query lint] is the {!Driver} instance over a query file
    ({!analyzer}): the same TOML configuration as constraint lint (the
    pass answers to [querycheck] in [[passes]]; [PC8xx] family keys
    work in [[severity]]), the same suppression pragmas ([#
    pathctl-disable ...] lines in the query file, including [PC510]
    staleness), and the same content-hash cache. *)

val pass :
  query_file:string ->
  schema:Schema.Mschema.t ->
  ?explain:bool ->
  Rpq.Parser.located list ->
  Diagnostic.t list
(** Check every parsed query item against the schema, in file order.
    Runs under the [lint.querycheck] span and bumps [lint.passes.run].
    The items are checked sequentially: a 1200-line query file took
    longer at two jobs than at one (DESIGN.md section 15). *)

val cache_key :
  querycheck:bool ->
  explain:bool ->
  query_file:string ->
  query_src:string ->
  schema_file:string ->
  schema_src:string ->
  config_src:string ->
  string
(** The cache key of a query-lint run: {!Cache.key} over the pass
    switch, the query file's path and contents, the schema file's path
    and contents, the configuration text and the explain flag (plus the
    analyzer version and rules fingerprint {!Cache.key} always mixes
    in).  Exposed so the mutation tests can flip each field and assert
    a key change.  The evaluation budget is deliberately not a part:
    querycheck diagnostics do not depend on it. *)

val analyzer : (Rpq.Parser.document, Driver.env * Rpq.Parser.document) Driver.analyzer
(** The query-lint analyzer for {!Driver.run}: the query parser
    ([PC001] with the parse error's token span), the [querycheck] pass
    — invoked only when a schema is present and the pass is enabled,
    so without a schema queries are only parsed — and the key parts of
    {!cache_key}. *)

val lint_queries :
  ?pool:Par.t ->
  ?schema_file:string ->
  ?config_file:string ->
  ?cache_dir:string ->
  ?explain:bool ->
  query_file:string ->
  unit ->
  Diagnostic.t list
(** {!Driver.run} with {!analyzer}, keeping the diagnostics.  [?pool]
    sizes the driver's stage fan-out; the query analyzer's one stage
    holds one pass, which runs inline. *)
