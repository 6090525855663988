let src =
  Logs.Src.create "pathcons.engine" ~doc:"resource-governed solver engine"

module Log = (val Logs.src_log src : Logs.LOG)

let now_ns = Monotonic_clock.now

(* observability: each governed call is accounted here; the exhaustion
   snapshot picks these (and every other module's counters) up *)
let c_ticks = Obs.Counter.make ~unit_:"steps" "engine.ticks"
let c_trips = Obs.Counter.make ~unit_:"trips" "engine.trips"
let c_rounds = Obs.Counter.make ~unit_:"rounds" "engine.escalation_rounds"
let c_peak_nodes = Obs.Counter.make ~unit_:"nodes" "engine.peak_nodes"

(* steps spent inside each escalation round; a heavy last bucket means
   the geometric growth schedule is doing real work *)
let h_round_steps = Obs.Histogram.make ~unit_:"steps" "engine.round_steps"

let reason_str = function
  | Verdict.Steps -> "steps"
  | Verdict.Nodes -> "nodes"
  | Verdict.Deadline -> "deadline"
  | Verdict.Cancelled -> "cancelled"
  | Verdict.Crashed -> "crashed"

module Cancel = struct
  type cause = Request | Sigint | Sigterm

  type t = cause option Atomic.t

  let create () : t = Atomic.make None

  (* First cause wins: a SIGTERM arriving after a SIGINT must not
     change the exit code the operator already earned.  The cell is
     atomic so the race is decided exactly once even when a signal
     handler and a worker domain's first-hit cancellation fire
     together. *)
  let cancel ?(cause = Request) t =
    ignore (Atomic.compare_and_set t None (Some cause))

  let is_cancelled t = Atomic.get t <> None
  let cause t = Atomic.get t

  let with_sigint t f =
    (* SIGTERM is handled identically to SIGINT: service supervisors
       terminate with SIGTERM, and a governed solver should park its
       state and exit 143 rather than die mid-repair. *)
    let install signal cause =
      match Sys.signal signal (Sys.Signal_handle (fun _ -> cancel ~cause t)) with
      | prev -> Some prev
      | exception (Invalid_argument _ | Sys_error _) ->
          (* no signal support on this platform: run ungoverned *)
          None
    in
    let restore signal = function
      | None -> ()
      | Some prev -> (
          try Sys.set_signal signal prev
          with Invalid_argument _ | Sys_error _ -> ())
    in
    let prev_int = install Sys.sigint Sigint in
    let prev_term = install Sys.sigterm Sigterm in
    Fun.protect
      ~finally:(fun () ->
        restore Sys.sigint prev_int;
        restore Sys.sigterm prev_term)
      f
end

module Budget = struct
  type t = {
    max_steps : int option;
    max_nodes : int option;
    timeout : float option;
    cancel : Cancel.t option;
  }

  let v ?max_steps ?max_nodes ?timeout ?cancel () =
    { max_steps; max_nodes; timeout; cancel }

  let default =
    { max_steps = Some 2000; max_nodes = Some 2000;
      timeout = Some 10.; cancel = None }

  let unlimited =
    { max_steps = None; max_nodes = None; timeout = None; cancel = None }

  let steps_nodes s n = { default with max_steps = Some s; max_nodes = Some n }
end

type t = {
  max_steps : int option;
  max_nodes : int option;
  deadline : int64 option;  (* absolute, monotonic ns *)
  cancel : Cancel.t option;
  started : int64;
  mutable steps : int;
  mutable peak_nodes : int;
  mutable rounds : int;
  tripped : Verdict.reason option Atomic.t;
      (* atomic so [ok]/[interrupted] may be polled from worker
         domains; the counting fields above stay owner-domain-only *)
  mutable rev_notes : string list;
}

let deadline_of ~started timeout =
  Option.map (fun s -> Int64.add started (Int64.of_float (s *. 1e9))) timeout

(* [spent_steps]/[spent_peak_nodes] pre-charge the controller with work
   a previous (crashed or parked) run already did, so a resumed run
   trips at the same absolute budget an uninterrupted run would — the
   invariant the differential resume harness checks. *)
let start ?(spent_steps = 0) ?(spent_peak_nodes = 0) (b : Budget.t) =
  let started = now_ns () in
  {
    max_steps = b.max_steps;
    max_nodes = b.max_nodes;
    deadline = deadline_of ~started b.timeout;
    cancel = b.cancel;
    started;
    steps = spent_steps;
    peak_nodes = spent_peak_nodes;
    rounds = 1;
    tripped = Atomic.make None;
    rev_notes = [];
  }

let default () = start Budget.default

(* Trips never downgrade: Cancelled/Crashed > Deadline > Steps/Nodes
   (first wins within a tier). *)
let rank = function
  | Verdict.Cancelled | Verdict.Crashed -> 3
  | Verdict.Deadline -> 2
  | Verdict.Steps | Verdict.Nodes -> 1

let rec trip t r =
  match Atomic.get t.tripped with
  | None ->
      if Atomic.compare_and_set t.tripped None (Some r) then begin
        Obs.Counter.incr c_trips;
        Obs.Span.event "engine.trip"
          ~args:[ ("reason", reason_str r); ("steps", string_of_int t.steps) ]
      end
      else trip t r
  | Some cur as prev ->
      if rank r > rank cur then
        if not (Atomic.compare_and_set t.tripped prev (Some r)) then trip t r

(* Deadline and cancellation are live conditions: they apply to every
   phase of a run, even after a step/node budget tripped. *)
let ok t =
  (match t.cancel with
  | Some c when Cancel.is_cancelled c -> trip t Verdict.Cancelled
  | _ -> ());
  (match t.deadline with
  | Some d when now_ns () >= d -> trip t Verdict.Deadline
  | _ -> ());
  match Atomic.get t.tripped with
  | Some (Verdict.Cancelled | Verdict.Deadline | Verdict.Crashed) -> false
  | Some (Verdict.Steps | Verdict.Nodes) | None -> true

let interrupted t () = not (ok t)

let tick t ?nodes () =
  t.steps <- t.steps + 1;
  Obs.Counter.incr c_ticks;
  Obs.Span.event "engine.tick";
  (match nodes with
  | Some n when n > t.peak_nodes ->
      t.peak_nodes <- n;
      Obs.Counter.set_max c_peak_nodes n
  | _ -> ());
  if not (ok t) then false
  else begin
    (match t.max_steps with
    | Some m when t.steps > m -> trip t Verdict.Steps
    | _ -> ());
    (match (nodes, t.max_nodes) with
    | Some n, Some m when n > m -> trip t Verdict.Nodes
    | _ -> ());
    Atomic.get t.tripped = None
  end

let note t s =
  if not (List.mem s t.rev_notes) then begin
    Log.info (fun m -> m "%s" s);
    t.rev_notes <- s :: t.rev_notes
  end

let steps t = t.steps
let peak_nodes t = t.peak_nodes
let elapsed_ns t = Int64.sub (now_ns ()) t.started
let tripped t = Atomic.get t.tripped
let notes t = List.rev t.rev_notes
(* What the budget was spent doing: the synthetic consumed/remaining
   entries plus every instrumented module's live counters.  Only
   collected when the observability layer is on, so disabled-mode
   diagnostics are byte-identical to the uninstrumented ones. *)
let counters_snapshot t =
  if not (Obs.enabled ()) then []
  else begin
    let used_rem tag used cap =
      (Printf.sprintf "engine.budget.%s_used" tag, used)
      ::
      (match cap with
      | None -> []
      | Some m -> [ (Printf.sprintf "engine.budget.%s_remaining" tag, max 0 (m - used)) ])
    in
    used_rem "steps" t.steps t.max_steps
    @ used_rem "nodes" t.peak_nodes t.max_nodes
    @ Obs.Counter.snapshot ()
  end

let exhaustion t =
  {
    Verdict.reason = Option.value ~default:Verdict.Steps (Atomic.get t.tripped);
    steps = t.steps;
    nodes = t.peak_nodes;
    elapsed_ns = elapsed_ns t;
    rounds = t.rounds;
    notes = notes t;
    counters = counters_snapshot t;
  }

let escalate ?(base_steps = 64) ?(base_nodes = 64) ?(factor = 4)
    ?(max_rounds = 8) ?timeout ?cancel attempt =
  let started = now_ns () in
  let deadline = deadline_of ~started timeout in
  let total_steps = ref 0 and peak = ref 0 and all_notes = ref [] in
  let absorb ctl =
    total_steps := !total_steps + ctl.steps;
    if ctl.peak_nodes > !peak then peak := ctl.peak_nodes;
    List.iter
      (fun n -> if not (List.mem n !all_notes) then all_notes := n :: !all_notes)
      ctl.rev_notes
  in
  let give_up reason round =
    Verdict.Unknown
      {
        Verdict.reason;
        steps = !total_steps;
        nodes = !peak;
        elapsed_ns = Int64.sub (now_ns ()) started;
        rounds = round;
        notes = List.rev !all_notes;
        counters = (if Obs.enabled () then Obs.Counter.snapshot () else []);
      }
  in
  let grow n = if n > max_int / factor then n else n * factor in
  let rec go round step_cap node_cap =
    if round > max_rounds then give_up Verdict.Steps max_rounds
    else begin
      Log.debug (fun m ->
          m "escalation round %d/%d: %d steps, %d nodes" round max_rounds
            step_cap node_cap);
      Obs.Counter.incr c_rounds;
      Obs.Span.event "engine.escalate.round"
        ~args:
          [
            ("round", string_of_int round);
            ("step_cap", string_of_int step_cap);
            ("node_cap", string_of_int node_cap);
          ];
      let ctl =
        {
          max_steps = Some step_cap;
          max_nodes = Some node_cap;
          deadline;
          cancel;
          started = now_ns ();
          steps = 0;
          peak_nodes = 0;
          rounds = 1;
          tripped = Atomic.make None;
          rev_notes = [];
        }
      in
      let v = attempt ctl in
      absorb ctl;
      if Obs.enabled () then
        Obs.Histogram.observe h_round_steps (float_of_int ctl.steps);
      match v with
      | (Verdict.Implied | Verdict.Refuted _) as v -> v
      | Verdict.Unknown ex -> (
          match ex.Verdict.reason with
          | Verdict.Deadline | Verdict.Cancelled | Verdict.Crashed ->
              give_up ex.Verdict.reason round
          | Verdict.Steps | Verdict.Nodes ->
              go (round + 1) (grow step_cap) (grow node_cap))
    end
  in
  Obs.Span.with_ "engine.escalate" (fun () -> go 1 base_steps base_nodes)
