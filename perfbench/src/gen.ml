(* Seeded input generation.  Every input is a pure function of the seed
   (and, for streams, the op index), so the same seed gives the same
   bytes; the program under test only ever receives these inputs. *)

module Path = Pathlang.Path
module Constr = Pathlang.Constr
module Label = Pathlang.Label

let rng seed tags = Random.State.make (Array.of_list (seed :: tags))
let pick rng l = List.nth l (Random.State.int rng (List.length l))
let labels3 = Sgraph.Gen.alphabet 3

let path rng ~min ~max labels =
  Path.of_labels
    (List.init (min + Random.State.int rng (max - min + 1)) (fun _ -> pick rng labels))

(* Apply one prefix-rewriting step [l.s -> r.s] of some rule whose left
   side is a prefix of [w]. *)
let rewrite_once rng sigma w =
  let applicable =
    List.filter_map
      (fun c ->
        match Constr.as_word c with
        | Some (l, r) -> (
            match Path.strip_prefix ~prefix:l w with
            | Some s -> Some (Path.concat r s)
            | None -> None)
        | None -> None)
      sigma
  in
  if applicable = [] then None else Some (pick rng applicable)

(* --- decide -------------------------------------------------------------- *)

type instance =
  | Word of { sigma : Constr.t list; phi : Constr.t }
      (** eps-free untyped word instance: the PTIME word route *)
  | Pc of { sigma : Constr.t list; phi : Constr.t }
      (** untyped P_c with prefixes, forward and backward: the chase *)
  | Typed of { schema : Schema.Mschema.t; sigma : Constr.t list; phi : Constr.t }
      (** P_c over a random kind-M schema: the cubic typed-M procedure *)

(* Word constraints with non-empty sides: the three rules are complete
   only when no right-hand side is eps. *)
let word_sigma rng n =
  List.init n (fun _ ->
      Constr.word
        ~lhs:(path rng ~min:1 ~max:3 labels3)
        ~rhs:(path rng ~min:1 ~max:3 labels3))

let word_instance rng =
  let sigma = word_sigma rng (5 + Random.State.int rng 4) in
  let phi =
    if Random.State.bool rng then
      (* derivable: rewrite a word that starts with some left side *)
      let l, _ = Option.get (Constr.as_word (pick rng sigma)) in
      let start = Path.concat l (path rng ~min:0 ~max:1 labels3) in
      let rec go w k =
        if k = 0 then w
        else match rewrite_once rng sigma w with Some w' -> go w' (k - 1) | None -> w
      in
      (* right sides are non-empty, so the goal is too *)
      Constr.word ~lhs:start ~rhs:(go start (1 + Random.State.int rng 3))
    else
      Constr.word ~lhs:(path rng ~min:1 ~max:3 labels3)
        ~rhs:(path rng ~min:1 ~max:3 labels3)
  in
  Word { sigma; phi }

let pc_constraint rng =
  let prefix = path rng ~min:0 ~max:1 labels3 in
  let lhs = path rng ~min:1 ~max:2 labels3 in
  let rhs = path rng ~min:0 ~max:2 labels3 in
  if Random.State.int rng 3 = 0 then Constr.backward ~prefix ~lhs ~rhs
  else Constr.forward ~prefix ~lhs ~rhs

let uses_all_labels cs =
  let used =
    List.fold_left (fun acc c -> Label.Set.union acc (Constr.labels_used c))
      Label.Set.empty cs
  in
  List.for_all (fun l -> Label.Set.mem l used) labels3

(* Every instance mentions all three labels, so the enumeration
   fallback's size cap is the same (2 nodes) on every instance. *)
let rec pc_instance rng =
  let sigma = List.init (3 + Random.State.int rng 3) (fun _ -> pc_constraint rng) in
  let phi =
    match Random.State.int rng 4 with
    | 0 ->
        (* right congruence of a forward member: the store prefilter's case *)
        let c = pick rng sigma in
        if Constr.kind c = Constr.Backward then c
        else
          let s = path rng ~min:1 ~max:1 labels3 in
          Constr.forward ~prefix:(Constr.prefix c)
            ~lhs:(Path.concat (Constr.lhs c) s)
            ~rhs:(Path.concat (Constr.rhs c) s)
    | _ -> pc_constraint rng
  in
  if uses_all_labels (phi :: sigma) then Pc { sigma; phi } else pc_instance rng

(* A P_c instance whose chase feeds itself: [l -> l.m], with [l] the
   first letter of phi's premise, asks for a fresh [l]-edge at every
   repair, so the chase runs into its step budget and the enumeration
   fallback answers.  A heavy op of steady cost. *)
let rec diverging_instance rng =
  let phi = pc_constraint rng in
  let l =
    match Path.head (Path.concat (Constr.prefix phi) (Constr.lhs phi)) with
    | Some l -> l
    | None -> pick rng labels3
  in
  let feed =
    Constr.word ~lhs:(Path.singleton l) ~rhs:(Path.of_labels [ l; pick rng labels3 ])
  in
  let sigma = feed :: List.init (2 + Random.State.int rng 2) (fun _ -> pc_constraint rng) in
  if uses_all_labels (phi :: sigma) then Pc { sigma; phi } else diverging_instance rng

let typed_instance rng =
  let schema =
    Schema.Mschema.random_m ~rng ~classes:(3 + Random.State.int rng 2)
      ~fields:(2 + Random.State.int rng 2) ~atoms:1
  in
  let sigma =
    Core.Typed_m.random_constraints ~rng ~schema ~count:(4 + Random.State.int rng 4)
      ~max_len:3
  in
  let phi =
    List.hd (Core.Typed_m.random_constraints ~rng ~schema ~count:1 ~max_len:3)
  in
  Typed { schema; sigma; phi }

(* Op [i] of the decide stream: a fixed family rotation, so the mix is
   the same on every seed and in every prefix of the stream. *)
let decide_instance ~seed i =
  let rng = rng seed [ 1; i ] in
  match i mod 10 with
  | 0 | 1 | 2 | 3 -> word_instance rng
  | 4 | 5 -> typed_instance rng
  | 6 | 7 | 8 -> pc_instance rng
  | _ -> diverging_instance rng

let instance_to_string = function
  | Word { sigma; phi } | Pc { sigma; phi } ->
      String.concat "\n" (List.map Constr.to_string sigma)
      ^ "\n? " ^ Constr.to_string phi
  | Typed { schema; sigma; phi } ->
      Schema.Schema_parser.to_string schema
      ^ String.concat "\n" (List.map Constr.to_string sigma)
      ^ "\n? " ^ Constr.to_string phi
