(** Regular path queries over semistructured graphs, and the regular
    word constraints of [4] as {e checkable} (not implied-over)
    properties.

    [eval g r] selects every node reachable from the root along a label
    sequence in [L(r)], computed by BFS over the product of the graph
    with the query automaton — the classical RPQ algorithm,
    [O(|G| * |r|)] states. *)

val eval_from :
  Sgraph.Graph.t -> Sgraph.Graph.node -> Regex.t -> Sgraph.Graph.Node_set.t

val eval : Sgraph.Graph.t -> Regex.t -> Sgraph.Graph.Node_set.t

val holds_between :
  Sgraph.Graph.t -> Sgraph.Graph.node -> Regex.t -> Sgraph.Graph.node -> bool

val witness :
  Sgraph.Graph.t ->
  Sgraph.Graph.node ->
  Regex.t ->
  Sgraph.Graph.node ->
  Pathlang.Path.t option
(** A shortest label sequence in [L(r)] connecting the two nodes. *)

exception Interrupted
(** Raised by the governed evaluators when their [interrupt] hook turns
    true mid-product (budget trip, cancellation). *)

val eval_from_typed :
  ?interrupt:(unit -> bool) ->
  ?class_of:(Sgraph.Graph.node -> Schema.Mtype.t option) ->
  Typecheck.t ->
  Sgraph.Graph.t ->
  Sgraph.Graph.node ->
  Sgraph.Graph.Node_set.t
(** Type-pruned RPQ evaluation: the same product BFS as {!eval_from},
    run on the checker's automaton, but a pair [(v, q)] is explored
    only if {!Typecheck.allow} admits it — i.e. a schema-conforming
    run may inhabit [q] at [v]'s sort ([class_of], e.g.
    {!Typecheck.type_graph}) and still finish the query.  Nodes typing
    to [None] are never pruned on their sort (only on
    {!Typecheck.state_live}).

    On a graph that validates against the schema and a root [src], the
    answer set equals {!eval_from}'s (QCheck-checked on seeded
    schema/instance/query triples); on non-conforming graphs the typed
    evaluator restricts answers to matches witnessed inside
    [Paths(Delta)].  [interrupt] is polled once per dequeued product
    pair.

    The checker's automaton is compiled once per call (eps-closures and
    eps-closed successor sets per state, admissibility per sort), so a
    pair costs no automaton work.  Per-call memory is O(touched pairs +
    |Q| * |Sigma_q|); nothing is sized by the graph and nothing survives
    the call.
    @raise Interrupted when [interrupt] fires mid-search. *)

val eval_typed :
  ?interrupt:(unit -> bool) ->
  ?class_of:(Sgraph.Graph.node -> Schema.Mtype.t option) ->
  Typecheck.t ->
  Sgraph.Graph.t ->
  Sgraph.Graph.Node_set.t
(** {!eval_from_typed} from the root. *)

(** Regular word constraints (the constraint language of [4]):
    [forall x (r1(root, x) -> r2(root, x))] with [r1], [r2] regular.
    Model checking is decidable and implemented; the {e implication}
    problem for these constraints is out of scope here, exactly as in
    the paper (Section 1). *)
type constr = { lhs : Regex.t; rhs : Regex.t }

val holds : Sgraph.Graph.t -> constr -> bool

val violations : Sgraph.Graph.t -> constr -> Sgraph.Graph.node list

(** Union-of-RPQs optimization by {e syntactic} language inclusion:
    sound without any constraint theory (smaller language, smaller
    answer), complementing the constraint-aware pruning of
    [Core.Query]. *)
val prune_union : Regex.t list -> Regex.t list
