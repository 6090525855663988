(* [decide]: a stream of fresh (Sigma, phi) instances, each sent to the
   production entry point of its Table 1 cell.  No domain pool. *)

open Runner

(* Step and node budgets, never wall-clock, so verdicts repeat on every
   host. *)
let budget = Core.Engine.Budget.v ~max_steps:100 ~max_nodes:100 ()
let oracle_budget = Core.Engine.Budget.v ~max_steps:60 ~max_nodes:60 ()

type answer =
  | Word_answer of (bool, Core.Word_untyped.error) result
  | Pc_answer of Core.Verdict.t
  | Typed_answer of (Core.Typed_m.outcome, string) result

(* The production entry point of the instance's Table 1 cell. *)
let answer (inst : Gen.instance) =
  match inst with
  | Gen.Word { sigma; phi } ->
      Word_answer
        (Tracer.call "core" "Word_untyped.implies" (fun () ->
             Core.Word_untyped.implies ~sigma phi))
  | Gen.Pc { sigma; phi } ->
      Pc_answer
        (Tracer.call "core" "Semidecide.implies" (fun () ->
             Core.Semidecide.implies ~ctl:(Core.Engine.start budget) ~sigma phi))
  | Gen.Typed { schema; sigma; phi } ->
      Typed_answer
        (Tracer.call "core" "Typed_m.decide" (fun () -> Core.Typed_m.decide schema ~sigma ~phi))

(* Check [a] against the instance's oracle. *)
let judge (inst : Gen.instance) a ms =
  match (inst, a) with
  | Gen.Word { sigma; phi }, Word_answer (Ok b) ->
      (* the other route: the semidecider on the same instance *)
      let v = Core.Semidecide.implies ~ctl:(Core.Engine.start oracle_budget) ~sigma phi in
      if Oracle.agrees_with_bool ~sigma ~phi b v then
        { ms; failed = false; decisive = Some true }
      else fail ~what:"word route and semidecider disagree" ms
  | Gen.Pc { sigma; phi }, Pc_answer v ->
      let ok =
        match v with
        | Core.Verdict.Refuted g -> Oracle.countermodel g ~sigma ~phi
        | Core.Verdict.Implied -> (
            (* the retained reference chase must not find a model *)
            match
              Core.Chase.implies_reference ~ctl:(Core.Engine.start oracle_budget) ~sigma phi
            with
            | Core.Verdict.Refuted _ -> false
            | _ -> true)
        | Core.Verdict.Unknown _ -> true
      in
      if ok then { ms; failed = false; decisive = Some (not (Core.Verdict.is_unknown v)) }
      else fail ~what:"semidecider verdict failed its check" ms
  | Gen.Typed { schema; sigma; phi }, Typed_answer r ->
      let ok =
        match r with
        | Ok (Core.Typed_m.Implied d) -> Core.Axioms.proves ~sigma ~goal:phi d
        | Ok (Core.Typed_m.Not_implied s) -> Oracle.typed_countermodel schema s ~sigma ~phi
        | Ok (Core.Typed_m.Vacuous _) -> true
        | Error _ -> false
      in
      if ok then { ms; failed = false; decisive = Some true }
      else fail ~what:"typed-M verdict failed its check" ms
  | _ -> fail ~what:"route rejected its instance" ms

let decide inst =
  let a, ms = timed (fun () -> answer inst) in
  judge inst a ms

(* Replayed outside the op: the store prefilter that Semidecide.implies
   runs first, timed on the op's own inputs. *)
let replay_prefilter = function
  | Gen.Pc { sigma; phi } ->
      let st =
        Tracer.replay "pathlang" "Store.of_constraints" (fun () ->
            Pathlang.Store.of_constraints sigma)
      in
      ignore
        (Tracer.replay "pathlang" "Store.implies_syntactic" (fun () ->
             Pathlang.Store.implies_syntactic st phi))
  | _ -> ()

let warmup = 1000

let setup ~workdir:_ ~seed =
  (* warm-up on fixed instances, so set-up does the same work on every
     seed *)
  for i = 0 to warmup - 1 do
    ignore (answer (Gen.decide_instance ~seed:0 i))
  done;
  {
    round = 1000;
    repeats = false;
    op =
      (fun i ->
        let inst = Gen.decide_instance ~seed i in
        let o = decide inst in
        if !Tracer.on then replay_prefilter inst;
        o);
    peak_rss_mb = Host.peak_rss_mb;
    traced_extras = (fun ~ops:_ -> []);
    close = ignore;
  }

let workload = { name = "decide"; setup }
