module Graph = Sgraph.Graph
module Nfa = Automata.Nfa
module NS = Graph.Node_set
module Path = Pathlang.Path

(* BFS over the product of the graph and the query NFA.  Pairs (v, q)
   with q ranging over eps-closed single states. *)
let product_search g src r =
  let a, start = Regex.to_nfa r in
  let closure q = Nfa.eps_closure a (Nfa.State_set.singleton q) in
  let seen = Hashtbl.create 64 in
  let parent = Hashtbl.create 64 in
  let q = Queue.create () in
  let push (v, st) from =
    if not (Hashtbl.mem seen (v, st)) then begin
      Hashtbl.add seen (v, st) ();
      Hashtbl.add parent (v, st) from;
      Queue.add (v, st) q
    end
  in
  Nfa.State_set.iter (fun st -> push (src, st) None) (closure start);
  while not (Queue.is_empty q) do
    let v, st = Queue.pop q in
    List.iter
      (fun (k, v') ->
        Nfa.State_set.iter
          (fun st' ->
            Nfa.State_set.iter
              (fun st'' -> push (v', st'') (Some ((v, st), k)))
              (closure st'))
          (Nfa.reach a st [ k ] |> fun set -> set))
      (Graph.succ_all g v)
  done;
  (a, seen, parent)

let eval_from g src r =
  let a, seen, _ = product_search g src r in
  Hashtbl.fold
    (fun (v, st) () acc -> if Nfa.is_final a st then NS.add v acc else acc)
    seen NS.empty

let eval g r = eval_from g (Graph.root g) r

let holds_between g src r dst = NS.mem dst (eval_from g src r)

let witness g src r dst =
  let a, seen, parent = product_search g src r in
  let target =
    Hashtbl.fold
      (fun (v, st) () acc ->
        if v = dst && Nfa.is_final a st && acc = None then Some (v, st) else acc)
      seen None
  in
  Option.map
    (fun state ->
      let rec build s acc =
        match Hashtbl.find parent s with
        | None -> acc
        | Some (prev, k) -> build prev (k :: acc)
      in
      Path.of_labels (build state []))
    target

(* --- type-pruned evaluation: the compiled product kernel -------------------- *)

exception Interrupted

module Mtype = Schema.Mtype

(* The checker's automaton compiled for one call: int-indexed
   transitions over a dense query alphabet, with the eps-closures and
   the eps-closed successor sets filled in lazily, once per state.
   Nothing here outlives the call. *)
type kernel = {
  eps : int list array;  (* eps-successors of each state *)
  trans : (int * int) list array;  (* (letter, target) of each state *)
  letters : (Pathlang.Label.t, int) Hashtbl.t;  (* query alphabet -> dense index *)
  final : bool array;
  closure : int array array;  (* [||] until computed; never empty after *)
  moves : (int * int array) array option array;
      (* per state and letter: the eps-closure of the letter's targets
         from the state's eps-closure, i.e. [Nfa.reach a q [k]] *)
  mark : int array;  (* DFS stamps of the closure computations *)
  mutable stamp : int;
}

let compile a =
  let nq = Nfa.state_count a in
  let eps = Array.make nq [] and trans = Array.make nq [] in
  let letters = Hashtbl.create 16 in
  List.iter (fun (s, t) -> eps.(s) <- t :: eps.(s)) (Nfa.eps_transitions a);
  List.iter
    (fun (s, k, t) ->
      let l =
        match Hashtbl.find_opt letters k with
        | Some l -> l
        | None ->
            let l = Hashtbl.length letters in
            Hashtbl.add letters k l;
            l
      in
      trans.(s) <- (l, t) :: trans.(s))
    (Nfa.transitions a);
  {
    eps;
    trans;
    letters;
    final = Array.init nq (Nfa.is_final a);
    closure = Array.make nq [||];
    moves = Array.make nq None;
    mark = Array.make nq (-1);
    stamp = 0;
  }

let closure k q =
  if Array.length k.closure.(q) = 0 then begin
    k.stamp <- k.stamp + 1;
    let stamp = k.stamp and acc = ref [] and stack = ref [ q ] in
    k.mark.(q) <- stamp;
    while !stack <> [] do
      let s = List.hd !stack in
      stack := List.tl !stack;
      acc := s :: !acc;
      List.iter
        (fun t ->
          if k.mark.(t) <> stamp then begin
            k.mark.(t) <- stamp;
            stack := t :: !stack
          end)
        k.eps.(s)
    done;
    k.closure.(q) <- Array.of_list !acc
  end;
  k.closure.(q)

let moves k q =
  match k.moves.(q) with
  | Some m -> m
  | None ->
      let steps =
        Array.fold_left (fun acc s -> List.rev_append k.trans.(s) acc) [] (closure k q)
      in
      let targets l =
        List.concat_map
          (fun (l', t) -> if l' = l then Array.to_list (closure k t) else [])
          steps
      in
      let m =
        List.sort_uniq Int.compare (List.map fst steps)
        |> List.map (fun l -> (l, Array.of_list (List.sort_uniq Int.compare (targets l))))
        |> Array.of_list
      in
      k.moves.(q) <- Some m;
      m

let successors moves l =
  let rec find i =
    if i = Array.length moves then [||]
    else
      let l', qs = moves.(i) in
      if l' = l then qs else find (i + 1)
  in
  find 0

(* Admissibility of (node, state) depends on the node only through its
   sort, so it is one lazily filled byte-row per distinct sort:
   '\000' not yet asked, '\001' admitted, '\002' pruned. *)
type sort_row = { tau : Mtype.t option; row : Bytes.t }

(* A touched node: its sort row and, once a pair at it is expanded, its
   out-edges whose labels the query reads, as (letter, target, target's
   record). *)
type node_rec = { sort : sort_row; mutable adj : (int * Graph.node * node_rec) list option }

(* The same product BFS as [eval_from], over the checker's automaton,
   except that a pair (v, q) is enqueued only if a schema-conforming run
   may inhabit it and still finish the query (Typecheck.allow, i.e. the
   pair is reachable AND co-reachable in the query x schema product).
   On a graph that validates against the schema every answer-bearing
   pair passes the filter, so the answer set is identical to
   eval_from's — the differential property the test suite checks on
   seeded schema/instance/query triples — while pairs that can never
   complete the query are cut before their subgraphs are explored.

   The automaton work is compiled once per call, so a pair costs a few
   array reads; the visited pairs, and so the [interrupt] polls (one per
   dequeued pair), are exactly those of the plain pair-at-a-time search
   (test/typed_oracle.ml).  Memory is O(touched pairs + |Q| * |Sigma_q|):
   nothing is sized by the graph. *)
let eval_from_typed ?(interrupt = fun () -> false) ?class_of tc g src =
  let a, start = Typecheck.nfa tc in
  let k = compile a in
  let nq = Array.length k.final in
  let sorts = ref [] in
  let sort_of v =
    let tau = match class_of with None -> None | Some f -> f v in
    let same s =
      match (s.tau, tau) with
      | None, None -> true
      | Some x, Some y -> x == y || Mtype.equal x y
      | _ -> false
    in
    match List.find_opt same !sorts with
    | Some s -> s
    | None ->
        let s = { tau; row = Bytes.make nq '\000' } in
        sorts := s :: !sorts;
        s
  in
  let admits s q =
    match Bytes.get s.row q with
    | '\001' -> true
    | '\002' -> false
    | _ ->
        let ok =
          match s.tau with
          | Some tau -> Typecheck.allow tc q tau
          | None -> Typecheck.state_live tc q
        in
        Bytes.set s.row q (if ok then '\001' else '\002');
        ok
  in
  let nodes = Hashtbl.create 64 in
  let node_rec v =
    match Hashtbl.find_opt nodes v with
    | Some r -> r
    | None ->
        let r = { sort = sort_of v; adj = None } in
        Hashtbl.add nodes v r;
        r
  in
  let adjacency v r =
    match r.adj with
    | Some adj -> adj
    | None ->
        let adj =
          List.filter_map
            (fun (lbl, w) ->
              Option.map (fun l -> (l, w, node_rec w)) (Hashtbl.find_opt k.letters lbl))
            (Graph.succ_all g v)
        in
        r.adj <- Some adj;
        adj
  in
  (* visited pairs, each with its node's record; DESIGN.md section 16
     on why this stays a pair table rather than a byte row per node *)
  let seen = Hashtbl.create 64 in
  let work = Queue.create () in
  let push v r q =
    if admits r.sort q then begin
      let pair = (v, q) in
      if not (Hashtbl.mem seen pair) then begin
        Hashtbl.add seen pair r;
        Queue.add pair work
      end
    end
  in
  Array.iter (push src (node_rec src)) (closure k start);
  while not (Queue.is_empty work) do
    if interrupt () then raise Interrupted;
    let (v, q) as pair = Queue.pop work in
    let mv = moves k q in
    if Array.length mv > 0 then
      List.iter
        (fun (l, w, r) ->
          let qs = successors mv l in
          for i = 0 to Array.length qs - 1 do
            push w r qs.(i)
          done)
        (adjacency v (Hashtbl.find seen pair))
  done;
  Hashtbl.fold (fun (v, q) _ acc -> if k.final.(q) then NS.add v acc else acc) seen NS.empty

let eval_typed ?interrupt ?class_of tc g =
  eval_from_typed ?interrupt ?class_of tc g (Graph.root g)

type constr = { lhs : Regex.t; rhs : Regex.t }

let holds g c = NS.subset (eval g c.lhs) (eval g c.rhs)

let violations g c =
  NS.elements (NS.diff (eval g c.lhs) (eval g c.rhs))

let prune_union rs =
  let rec go kept = function
    | [] -> List.rev kept
    | r :: rest ->
        let redundant =
          List.exists (fun r' -> Regex.included r r') (kept @ rest)
        in
        if redundant then go kept rest else go (r :: kept) rest
  in
  go [] rs
