(* The closed loop shared by every workload: one client in one process
   sends op [i+1] only after op [i] has completed and been checked. *)

type outcome = {
  ms : float;  (** the timed region: the calls into the program only *)
  failed : bool;  (** raised, or disagreed with the oracle *)
  decisive : bool option;  (** [None]: the op carries no verdict *)
}

type ctx = {
  op : int -> outcome;
  round : int;  (** ops per round: one pass over the workload's input mix *)
  repeats : bool;
      (** op [i + round] runs op [i]'s input again.  Latencies and
          throughput are then taken from each input's median time, so a
          stall of the host during one run of an input does not reach
          them.  Without [repeats] the throughput is the median over
          complete rounds. *)
  peak_rss_mb : unit -> float;
  traced_extras : ops:int -> (string * float) list;
      (** workload-specific per-layer figures, read after a traced loop *)
  close : unit -> unit;
}

type workload = {
  name : string;
  setup : workdir:string -> seed:int -> ctx;
      (** generate the inputs, write the files, build the graph, warm up *)
}

let failures_logged = ref 0

(* Report a failed op on stderr (the first few only) and return the
   outcome; failures never stop the run. *)
let fail ~what ms =
  incr failures_logged;
  if !failures_logged <= 10 then prerr_endline ("perfbench: FAILED " ^ what);
  { ms; failed = true; decisive = None }

(* Time [f] as one op.  The op's inputs are prepared before and the
   oracle runs after, both outside the timed region. *)
let timed f =
  let t0 = Host.now_ns () in
  let r = Tracer.op f in
  (r, Host.elapsed_s t0 *. 1e3)

let guard ~what f =
  match f () with
  | o -> o
  | exception e -> fail ~what:(what ^ ": raised " ^ Printexc.to_string e) 0.

type loop = {
  samples : float array;  (** per-op ms *)
  latencies : float array;
      (** what the latency percentiles are taken over: per-op ms, or
          with [repeats] the median ms of each input *)
  throughput : float;  (** ops per second of the timed region *)
  attempted : int;
  failed : int;
  decisive : int;
  with_verdict : int;
}

(* Run ops [start], [start+1], ... until [seconds] of wall time have
   passed (oracle time included, so a slow oracle costs samples, never
   accuracy). *)
let loop ctx ~start ~seconds =
  let buf = Stats.Buf.create () in
  let failed = ref 0 and decisive = ref 0 and with_verdict = ref 0 in
  let t0 = Host.now_ns () in
  let i = ref start in
  let rates = Stats.Buf.create () and round_ms = ref 0. in
  let per_input =
    Array.init (if ctx.repeats then ctx.round else 0) (fun _ -> Stats.Buf.create ~capacity:16 ())
  in
  while Host.elapsed_s t0 < seconds do
    let o = guard ~what:(Printf.sprintf "op %d" !i) (fun () -> ctx.op !i) in
    if o.ms > 0. then begin
      Stats.Buf.add buf o.ms;
      if ctx.repeats then Stats.Buf.add per_input.(!i mod ctx.round) o.ms
    end;
    round_ms := !round_ms +. o.ms;
    if (!i - start + 1) mod ctx.round = 0 then begin
      Stats.Buf.add rates (float_of_int ctx.round /. (!round_ms /. 1e3));
      round_ms := 0.
    end;
    if o.failed then incr failed;
    (match o.decisive with
    | Some d ->
        incr with_verdict;
        if d then incr decisive
    | None -> ());
    incr i
  done;
  let samples = Stats.Buf.to_array buf in
  let rate ms = float_of_int (Array.length ms) /. (Array.fold_left ( +. ) 0. ms /. 1e3) in
  let latencies, throughput =
    if ctx.repeats then
      let medians =
        Array.of_list
          (List.filter_map
             (fun b ->
               if Stats.Buf.length b = 0 then None else Some (Stats.median (Stats.Buf.to_array b)))
             (Array.to_list per_input))
      in
      (medians, rate medians)
    else if Stats.Buf.length rates > 0 then (samples, Stats.median (Stats.Buf.to_array rates))
    else (samples, rate samples)
  in
  {
    samples;
    latencies;
    throughput;
    attempted = !i - start;
    failed = !failed;
    decisive = !decisive;
    with_verdict = !with_verdict;
  }
