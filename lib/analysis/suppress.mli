(** Inline suppression of diagnostics via constraint-file pragmas.

    [# pathctl-disable CODE ...] silences the listed codes (exact, like
    [PC300], or a family, like [PC3xx]) on the next constraint line;
    [# pathctl-disable-file CODE ...] on the whole file.  A pragma that
    silences nothing is itself reported as [PC510] (with the pragma's
    span), so stale suppressions cannot accumulate.  [PC510] findings
    are not themselves suppressible. *)

val code_matches : string -> string -> bool
(** [code_matches pattern code]: exact match, or family match when the
    pattern ends in [xx] ([PC3xx] matches [PC300..PC399]). *)

val apply :
  sigma_file:string ->
  idle:(string -> bool) ->
  Pathlang.Parser.pragma list ->
  Diagnostic.t list ->
  Diagnostic.t list
(** Filter the diagnostics through the pragmas (only findings on
    [sigma_file] are candidates; file-wide pragmas also cover spanless
    findings), appending one [PC510] per pragma that matched nothing —
    unless every code it lists is idle: [idle code] holds when the pass
    that owns [code] did not run, so the pragma's silence proves
    nothing.  A listed code that names no rule, or a family with some
    non-idle member, keeps the pragma reportable. *)
