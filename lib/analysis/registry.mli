(** The analyzer pass registry.

    Every pass of both analyzers — constraint lint ([PC1xx]–[PC7xx])
    and the typed-RPQ query checker ([PC8xx]) — is a {!pass}: its
    name (the key accepted in a configuration's [[passes]] section),
    the rule codes it owns, and whether it runs by default.  The
    entries here carry no [run] function ([run = ()]): the registry
    sits below {!Config}, and each analyzer {!attach}es its runs on top
    of {!Driver}.

    Every rule code outside [PC0xx] (input errors) and [PC510] (stale
    suppressions, owned by the driver) is owned by exactly one pass. *)

type 'run pass = {
  name : string;
  codes : string list;
      (** exact codes or families ([PC3xx]), as {!Suppress.code_matches}
          reads them *)
  default_on : bool;  (** runs unless the configuration says otherwise *)
  run : 'run;
}

val classify : unit pass
val typeflow : unit pass
val vacuity : unit pass
val inconsistency : unit pass
val redundancy : unit pass
val hygiene : unit pass

val interact : unit pass
(** The only opt-in pass ([default_on = false]). *)

val querycheck : unit pass

val all : unit pass list
(** Every pass, in the fixed order in which a driver concatenates their
    findings before the presentation sort: classify, typeflow,
    vacuity, inconsistency, redundancy, hygiene, interact,
    querycheck. *)

val attach : unit pass -> 'run -> 'run pass
(** The entry with its [run] function. *)

val owns : 'run pass -> string -> bool
(** [owns p code]: [code] is one of [p]'s codes or in one of its
    families. *)
