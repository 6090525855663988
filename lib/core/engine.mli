(** Resource-governed solver runtime.

    Three of the paper's Table 1 cells are undecidable (Theorems
    4.1/4.3/5.2), so the chase- and enumeration-based semi-deciders can
    legitimately diverge.  Every potentially-divergent entry point
    ({!Chase}, {!Semidecide}, {!Typed_search}, and — via its
    [?interrupt] hook — [Sgraph.Enumerate]) therefore runs under a
    controller created here: a composable budget (steps, nodes,
    wall-clock deadline on a monotonic clock), a cooperative
    cancellation token (wired to SIGINT in [pathctl]), and an
    iterative-deepening driver {!escalate} that retries under
    geometrically growing budgets instead of one fixed shot.

    A controller is single-use: create one per solver call, query its
    {!exhaustion} afterwards for diagnostics. *)

val now_ns : unit -> int64
(** The monotonic clock, in nanoseconds.  Unrelated to wall-clock time
    of day; only differences are meaningful. *)

(** Cooperative cancellation tokens. *)
module Cancel : sig
  type t

  type cause = Request | Sigint | Sigterm
  (** What requested the cancellation.  [pathctl] maps this to the
      conventional exit codes (130 for SIGINT, 143 for SIGTERM). *)

  val create : unit -> t

  val cancel : ?cause:cause -> t -> unit
  (** Defaults to [Request].  The first cause wins; later calls are
      ignored.  The cell is an [Atomic.t], so concurrent cancellation
      from a signal handler and from worker domains resolves
      race-free. *)

  val is_cancelled : t -> bool

  val cause : t -> cause option
  (** [None] until cancelled. *)

  val with_sigint : t -> (unit -> 'a) -> 'a
  (** Runs the thunk with SIGINT and SIGTERM handlers that cancel [t]
      with the matching cause (restoring the previous handlers
      afterwards), so Ctrl-C or a supervisor's TERM makes a governed
      solver return [Unknown {reason = Cancelled}] with partial
      diagnostics — and park its snapshot, if asked — instead of
      killing the process. *)
end

(** Declarative resource limits.  [None] means unlimited. *)
module Budget : sig
  type t = {
    max_steps : int option;  (** solver steps (chase repairs, candidates) *)
    max_nodes : int option;  (** peak nodes of any constructed model *)
    timeout : float option;  (** wall-clock seconds from {!start} *)
    cancel : Cancel.t option;  (** cancellation token to poll *)
  }

  val v :
    ?max_steps:int ->
    ?max_nodes:int ->
    ?timeout:float ->
    ?cancel:Cancel.t ->
    unit ->
    t

  val default : t
  (** 2000 steps / 2000 nodes (the historical chase budget) plus a 10 s
      deadline, so no governed entry point can hang by default. *)

  val unlimited : t
  (** No limits at all — divergence-prone; prefer a deadline. *)

  val steps_nodes : int -> int -> t
  (** [steps_nodes s n] is {!default} with the step/node caps replaced;
      the default deadline stays. *)
end

type t
(** A live, single-use controller: counters plus the resolved absolute
    deadline. *)

val start : ?spent_steps:int -> ?spent_peak_nodes:int -> Budget.t -> t
(** Resolves the budget's relative timeout against {!now_ns}.
    [spent_steps]/[spent_peak_nodes] (default 0) pre-charge the
    controller with work a previous parked run already performed, so a
    resumed chase trips at the same absolute budget as an uninterrupted
    one.  The deadline, by contrast, restarts: wall-clock spent before
    a crash is not owed after it. *)

val default : unit -> t
(** [start Budget.default]. *)

val tick : t -> ?nodes:int -> unit -> bool
(** Account one solver step (and, when given, the current model size)
    and re-check every limit.  [false] means stop: a limit tripped or
    cancellation was requested.  Once a controller has tripped, [tick]
    stays [false].  Owner-domain only: the counting fields are plain
    mutable state, so parallel workers poll {!ok} or {!interrupted}
    instead. *)

val ok : t -> bool
(** Re-check only the live conditions — deadline and cancellation —
    without consuming a step and ignoring an earlier step/node trip.
    Used by follow-up phases (e.g. the enumeration fallback after an
    exhausted chase) that have their own step discipline but must still
    honor the shared deadline.  Domain-safe (the trip cell is atomic),
    so one controller's [ok] may be polled from many worker domains. *)

val interrupted : t -> unit -> bool
(** [interrupted t] is [fun () -> not (ok t)], in the polarity
    [Sgraph.Enumerate]'s [?interrupt] hook expects.  Domain-safe, like
    {!ok}: the parallel enumeration hands this closure to every
    worker. *)

val note : t -> string -> unit
(** Attach a diagnostic note (e.g. a clamped sub-budget); notes surface
    in {!exhaustion} and hence in [Verdict.Unknown]. *)

val steps : t -> int
val peak_nodes : t -> int
val elapsed_ns : t -> int64
val tripped : t -> Verdict.reason option
val notes : t -> string list

val exhaustion : t -> Verdict.exhaustion
(** Diagnostics snapshot; the reason defaults to [Steps] when the
    controller never actually tripped. *)

val escalate :
  ?base_steps:int ->
  ?base_nodes:int ->
  ?factor:int ->
  ?max_rounds:int ->
  ?timeout:float ->
  ?cancel:Cancel.t ->
  (t -> Verdict.t) ->
  Verdict.t
(** Iterative-deepening driver: run [attempt] under budgets growing
    geometrically ([base_steps]/[base_nodes], default 64/64, times
    [factor], default 4, for up to [max_rounds] rounds, default 8 —
    i.e. up to ~1M steps), all rounds sharing one wall-clock deadline
    and cancellation token.  Returns the first decisive verdict; a
    round ending in [Deadline] or [Cancelled] aborts the ladder.  The
    final [Unknown] aggregates steps, peak nodes, elapsed time and the
    number of rounds across the whole ladder. *)
