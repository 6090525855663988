(* Independent checks of the program's answers.  They run outside the
   timed region; a disagreement is a failed op, never a stopped run. *)

(* Fo_eval is the naive first-order evaluator: exponential in the
   quantifier depth, so it re-checks countermodels up to this size. *)
let fo_max_nodes = 12

(* A refutation's witness: a finite model of Sigma and not phi, checked
   by the model checker and, when small enough, by naive FO evaluation. *)
let countermodel g ~sigma ~phi =
  Sgraph.Check.holds_all g sigma
  && (not (Sgraph.Check.holds g phi))
  && (Sgraph.Graph.node_count g > fo_max_nodes
     || List.for_all (Sgraph.Fo_eval.holds_constraint g) sigma
        && not (Sgraph.Fo_eval.holds_constraint g phi))

(* A typed countermodel must also be an abstract database of the
   schema. *)
let typed_countermodel schema (s : Schema.Typecheck.t) ~sigma ~phi =
  Result.is_ok (Schema.Typecheck.validate schema s)
  && countermodel s.graph ~sigma ~phi

(* Does verdict [v] contradict the boolean answer [b] of another route?
   An [Unknown] contradicts nothing; a refutation must carry a valid
   witness. *)
let agrees_with_bool ~sigma ~phi b (v : Core.Verdict.t) =
  match v with
  | Core.Verdict.Implied -> b
  | Core.Verdict.Refuted g -> (not b) && countermodel g ~sigma ~phi
  | Core.Verdict.Unknown _ -> true
