(** Safe textual autofixes ([pathctl lint --fix]).

    Only theory-preserving edits: duplicate ([PC500]), prefix-subsumed
    ([PC505]) and trivially-true ([PC504]) constraints are deleted
    (each is syntactically entailed by what remains); an eps-conclusion
    EGD ([PC503]) is commented out with a [# pathctl-fix(PC503)]
    marker, since deleting it would change the theory.  Suppressed or
    severity-ignored findings are never fixed (they are filtered before
    planning).  The pipeline is idempotent: after one fix pass, a
    re-lint yields no fixable findings and a second fix pass leaves the
    file byte-identical. *)

type action = Delete | Comment_out

type fix = { line : int; action : action; code : string }

val fixable_codes : string list
(** [PC500], [PC503], [PC504], [PC505]. *)

val plan : sigma_file:string -> Diagnostic.t list -> fix list
(** The fixes implied by a diagnostic stream: one per line (delete wins
    over comment-out), sorted by line; only findings on [sigma_file]
    with spans participate. *)

val apply : src:string -> fix list -> string
(** Apply a plan to the file's contents (line numbers refer to [src]). *)

val fix_file :
  lint:(unit -> Driver.outcome) ->
  sigma_file:string ->
  (int * Driver.outcome, string) result
(** Lint (with [lint], which must analyze [sigma_file]), plan, rewrite
    [sigma_file] in place, and re-lint: [Ok (n, outcome)] is the number
    of fixes applied and the post-fix outcome.  XML constraint files
    are rejected (the fixes are line-oriented). *)
