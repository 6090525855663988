(* Per-layer attribution for the traced run.

   Every call the benchmark makes into a library goes through [call],
   which, when tracing is on, opens an [Obs] span named "<layer>:<fn>"
   and records the minor words the call allocated.  The spans the
   libraries already open ("chase.implies", "saturation.pre_star", ...)
   nest inside these, so [Obs.Stats] yields count, total and self time
   for both.  Each op is wrapped in an "op" span whose self time is the
   unattributed remainder.  Calls made outside an op to time a layer on
   the op's inputs are recorded under "replay:<layer>:<fn>".  With
   tracing off, [call] is a plain application. *)

let on = ref false
let words : (string, float ref) Hashtbl.t = Hashtbl.create 64

(* Obs records only inside [op] and [replay]: input generation and the
   oracles run between ops and must not be attributed. *)
let enable () =
  on := true;
  Obs.reset ();
  Hashtbl.reset words

let disable () = on := false

(* Run [f] untraced, keeping what was recorded so far. *)
let paused f =
  let was = !on in
  on := false;
  Fun.protect ~finally:(fun () -> on := was) f

let observed f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

let account key w =
  match Hashtbl.find_opt words key with
  | Some r -> r := !r +. w
  | None -> Hashtbl.add words key (ref w)

let span key f =
  let w0 = Host.minor_words () in
  Fun.protect
    ~finally:(fun () -> account key (Host.minor_words () -. w0))
    (fun () -> Obs.Span.with_ key f)

let call layer fn f = if !on then span (layer ^ ":" ^ fn) f else f ()

let replay layer fn f =
  if !on then observed (fun () -> span ("replay:" ^ layer ^ ":" ^ fn) f) else f ()

let op f = if !on then observed (fun () -> Obs.Span.with_ "op" f) else f ()

let layers =
  [ "pathlang"; "automata"; "core"; "sgraph"; "schema"; "analysis"; "rpq"; "bin" ]

(* The library spans that exist today, by name prefix. *)
let lib_layer name =
  let has p = String.starts_with ~prefix:p name in
  if has "saturation." then Some "automata"
  else if has "enumerate." then Some "sgraph"
  else if
    List.exists has
      [ "semidecide."; "chase."; "typed_m."; "typed_search."; "word.";
        "engine."; "interaction."; "kb." ]
  then Some "core"
  else if has "lint." || has "querycheck." then Some "analysis"
  else None

type kind = Op | Call of string | Replay of string | Lib of string | Other

let classify name =
  if name = "op" then Op
  else
    match String.split_on_char ':' name with
    | [ "replay"; l; _ ] -> Replay l
    | [ l; _ ] when List.mem l layers -> Call l
    | _ -> ( match lib_layer name with Some l -> Lib l | None -> Other)

type row = {
  name : string;
  count : int;
  total_ms : float;
  self_ms : float;
  minor_words : float;  (** for benchmark-side calls; [nan] for library spans *)
}

let rows () =
  List.map
    (fun (name, (s : Obs.Stats.span_stat)) ->
      {
        name;
        count = s.count;
        total_ms = Int64.to_float s.total_ns /. 1e6;
        self_ms = Int64.to_float s.self_ns /. 1e6;
        minor_words =
          (match Hashtbl.find_opt words name with Some r -> !r | None -> nan);
      })
    (Obs.Stats.spans ())

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Counter.snapshot ()))

let counters_with_prefix p =
  List.fold_left
    (fun acc (n, v) -> if String.starts_with ~prefix:p n then acc + v else acc)
    0 (Obs.Counter.snapshot ())
