(** The analyzer driver: one pipeline shared by constraint lint
    ({!Lint}, [PC1xx]–[PC7xx]) and the typed-RPQ query checker
    ({!Querycheck}, [PC8xx]).

    {!run} loads the configuration ([PC003] on failure), reads the
    analyzed file and the optional schema once each, derives the cache
    key and consults the cache, parses the file ([PC001]) and the schema
    ([PC002], token-spanned), builds the analyzer's context, runs the
    registered passes ({!check}), and stores the result.  An
    {!analyzer} supplies only its cache-key parts, its parser, its
    context and its passes. *)

type 'ctx pass =
  ('ctx -> prior:(string -> Diagnostic.t list) -> Diagnostic.t list)
  Registry.pass
(** A registry entry with its [run] attached.  [prior name] is what the
    named pass of an earlier stage found ([[]] when it did not run). *)

type env = {
  file : string;  (** display path of the analyzed file *)
  schema : Schema.Mschema.t option;
  schema_file : string option;
  schema_spans : Schema.Schema_parser.spans option;
  config : Config.t;
  explain : bool;  (** the flag, or [explain = true] in the config *)
  pool : Par.t option;
}
(** What the driver resolved before the analyzer's own context. *)

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
      (** the cache-key parts ([schema_file] and [schema_src] are [""]
          without a schema); {!Cache.key} adds the analyzer version and
          rules fingerprint *)
  parse : file:string -> string -> ('doc, Diagnostic.t list) result;
      (** the file's text to a document, or its [PC001] *)
  context : env -> 'doc -> ('ctx, Diagnostic.t list) result;
      (** what the passes read; [Error] short-circuits like a parse
          error *)
  pragmas : 'ctx -> Pathlang.Parser.pragma list;
  stages : 'ctx pass list list;
      (** the schedule: the passes of a stage run side by side (on the
          pool, when there is one); a stage may read earlier stages'
          findings *)
  invoked : env -> string -> bool;
      (** whether the named pass runs on this input *)
}

type outcome = {
  diags : Diagnostic.t list;  (** in {!Diagnostic.compare} order *)
  max_warnings : int option;
      (** the configuration's [max-warnings], for the exit policy *)
}

val read_file : string -> (string, string) result

val parse_error :
  code:string ->
  file:string ->
  line:int ->
  col:int ->
  token:string ->
  string ->
  Diagnostic.t list
(** A parse failure as an error diagnostic spanning the offending
    token: [parse_error ~code ~file ~line ~col ~token reason]. *)

val invoke : string -> (unit -> 'a) -> 'a
(** Run one pass under its [lint.NAME] span, bumping
    [lint.passes.run]. *)

val check : ('doc, 'ctx) analyzer -> env -> 'ctx -> Diagnostic.t list
(** The passes over an already-built context: every stage's invoked
    passes (concurrently on [env.pool] when a stage has more than one),
    their findings concatenated in {!Registry.all} order; then
    suppression pragmas ({!Suppress.apply} — a pragma is not reported
    stale when every code it lists belongs to a pass of this analyzer
    that did not run), the configuration's severity overrides, the
    presentation sort and the [lint.diags] family tallies.  The output
    is byte-identical at any pool size. *)

val run :
  ?pool:Par.t ->
  ?schema_file:string ->
  ?config_file:string ->
  ?cache_dir:string ->
  ?explain:bool ->
  file:string ->
  ('doc, 'ctx) analyzer ->
  outcome
(** The whole pipeline over [file].  I/O and parse failures become
    [PC001]/[PC002]/[PC003] error diagnostics rather than exceptions.
    [config_file] supplies severity overrides, pass selection and
    defaults for [explain], [cache_dir] and the warning threshold
    (explicit arguments win).  With a [cache_dir] (from either source)
    results are memoized by content hash: a hit skips every pass and is
    observable via the [lint.cache.hits] counter. *)
