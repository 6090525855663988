(* The pair-at-a-time typed RPQ evaluator, kept verbatim as the test
   oracle of the compiled kernel in Rpq.Eval: the same admissibility
   predicate and the same product search, with every dequeued pair
   rebuilding its successor list and re-running Nfa.reach.  Its visited
   pairs, and so its [interrupt] polls, are the reference the kernel's
   must equal. *)

module Graph = Sgraph.Graph
module Nfa = Automata.Nfa
module NS = Graph.Node_set
module Typecheck = Rpq.Typecheck

exception Interrupted = Rpq.Eval.Interrupted

let eval_from_typed ?(interrupt = fun () -> false) ?class_of tc g src =
  let a, start = Typecheck.nfa tc in
  let admissible v st =
    match class_of with
    | None -> Typecheck.state_live tc st
    | Some class_of -> (
        match class_of v with
        | Some tau -> Typecheck.allow tc st tau
        | None -> Typecheck.state_live tc st)
  in
  let closure q = Nfa.eps_closure a (Nfa.State_set.singleton q) in
  let seen = Hashtbl.create 64 in
  let q = Queue.create () in
  let push (v, st) =
    if admissible v st && not (Hashtbl.mem seen (v, st)) then begin
      Hashtbl.add seen (v, st) ();
      Queue.add (v, st) q
    end
  in
  Nfa.State_set.iter (fun st -> push (src, st)) (closure start);
  while not (Queue.is_empty q) do
    if interrupt () then raise Interrupted;
    let v, st = Queue.pop q in
    List.iter
      (fun (k, v') ->
        Nfa.State_set.iter (fun st' -> push (v', st')) (Nfa.reach a st [ k ]))
      (Graph.succ_all g v)
  done;
  Hashtbl.fold
    (fun (v, st) () acc -> if Nfa.is_final a st then NS.add v acc else acc)
    seen NS.empty

let eval_typed ?interrupt ?class_of tc g =
  eval_from_typed ?interrupt ?class_of tc g (Graph.root g)
