(** Constraint lint: the {!Driver} instance over one constraint file
    (plus an optional schema and an optional goal constraint).

    Passes, in concatenation order: classification (Table 1 cell,
    [PC1xx]), type flow ([PC6xx], schema-aware), vacuity ([PC2xx]),
    inconsistency ([PC4xx]), redundancy ([PC3xx] — skipped when Sigma
    is already known inconsistent, since an inconsistent theory implies
    everything), hygiene ([PC5xx]), and — opt-in only — the
    constraint-interaction analyzer ([PC7xx], {!Interact}).  The driver
    then applies suppression pragmas (unused ones become [PC510]) and
    the configuration's severity overrides.  Parse failures
    short-circuit into [PC001]/[PC002]/[PC003] diagnostics so CI
    consumers see them in the same stream. *)

type input = {
  env : Driver.env;  (** display path, schema, config, explain, pool *)
  doc : Pathlang.Parser.document;  (** the constraints and pragmas *)
  phi : Pathlang.Constr.t option;  (** optional goal, sharpens [PC1xx] *)
}
(** What every lint pass reads. *)

val analyzer :
  ?budget:Core.Engine.Budget.t ->
  ?phi:string ->
  ?interact:bool ->
  unit ->
  (Pathlang.Parser.document, input) Driver.analyzer
(** The lint analyzer for {!Driver.run}: the line DSL or XML parser,
    the passes above and the cache-key parts (file paths and contents,
    goal, configuration text, explain and interact flags, budget).
    [budget] (default [Core.Engine.Budget.default]) governs the
    best-effort redundancy and interaction passes; an unparsable [phi]
    is a [PC001] on [<phi>].  [interact] forces the opt-in [PC7xx]
    pass on, even over a config-side [interact = false]. *)

val run :
  ?budget:Core.Engine.Budget.t -> ?pool:Par.t -> input -> Diagnostic.t list
(** All passes over an already-parsed input ({!Driver.check}; [pool]
    replaces [input.env.pool]).  The [PC7xx] interaction analyzer runs
    only when the config sets [[passes] interact = true].  With a
    [?pool] of more than one domain the passes run concurrently (the
    span-pure passes first, then redundancy — which needs the
    inconsistency verdict — alongside the interaction analyzer); the
    diagnostic stream is byte-identical to a sequential run's. *)

val exit_code : ?max_warnings:int -> Diagnostic.t list -> int
(** The severity-threshold exit policy: 1 when an error-severity
    diagnostic fired, 1 when more than [max_warnings] warnings fired
    (when a threshold was given), 0 otherwise. *)

val lint_paths :
  ?budget:Core.Engine.Budget.t ->
  ?pool:Par.t ->
  ?schema_file:string ->
  ?phi:string ->
  ?config_file:string ->
  ?cache_dir:string ->
  ?explain:bool ->
  ?interact:bool ->
  sigma_file:string ->
  unit ->
  Diagnostic.t list
(** {!Driver.run} with the lint {!analyzer}, keeping the diagnostics.
    Constraint files may be the line DSL or the XML syntax (XML
    constraints get element-level spans and carry no pragmas). *)
