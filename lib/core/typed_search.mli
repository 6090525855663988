(** Bounded exhaustive search over typed structures: a brute-force
    semi-decision procedure for implication in the models M and M+.

    Implication under an M+ schema is undecidable (Theorems 5.2/6.1),
    so no complete procedure exists; what {e can} be built is an
    exhaustive enumerator of the finite abstract databases
    [U_f(Delta)] up to a size bound.  Finding a structure satisfying
    [Sigma /\ not phi] refutes [Sigma |=_Delta phi] outright; exhausting
    the bound proves nothing in general but is strong independent
    evidence on tiny instances — the test suite uses it to
    cross-validate both [Typed_m] (which must never claim [Implied]
    when a bounded countermodel exists) and the Lemma 5.4 reduction.

    Supported schemas: every field type and set-member type must be
    atomic or a class (true of M schemas by definition, of the paper's
    [Delta_1]/[Delta_2], and of any "flat" M+ schema).  Schemas with
    anonymous nested record/set values are rejected. *)

type bounds = {
  max_per_class : int;  (** nodes enumerated per class: 1..n *)
  max_per_atom : int;  (** leaf nodes per atomic sort: 1..n *)
  max_structures : int;  (** enumeration budget *)
}

val default_bounds : bounds
(** 2 per class, 1 per atomic sort, 200k structures. *)

val find_countermodel :
  ?ctl:Engine.t ->
  ?bounds:bounds ->
  Schema.Mschema.t ->
  sigma:Pathlang.Constr.t list ->
  phi:Pathlang.Constr.t ->
  (Schema.Typecheck.t option, string) result
(** [Ok (Some t)] is a verified member of [U_f(Delta)] satisfying
    [Sigma /\ not phi]; [Ok None] means the bounded space holds no
    countermodel (or a budget ran out); [Error] on an unsupported
    schema.

    When a [ctl] controller is supplied, every candidate structure
    consumes one engine step and the controller's step budget, deadline
    and cancellation token all bound the search (on top of
    [bounds.max_structures]); query [Engine.tripped ctl] afterwards to
    distinguish an exhausted budget from an exhausted space.

    The scan is sequential: the whole default space over [bib_m]
    takes a few milliseconds, too little work for a domain fan-out to
    pay for (DESIGN.md section 15). *)

val count_structures :
  ?bounds:bounds -> Schema.Mschema.t -> (int, string) result
(** How many structures the enumeration would visit (capped at the
    budget); useful to keep tests honest about coverage. *)
