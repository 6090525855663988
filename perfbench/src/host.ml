(* What a result needs to be compared across hosts and runs: the
   host, the toolchain, memory and a fixed CPU calibration. *)

external children_maxrss_kb : unit -> int = "perfbench_children_maxrss_kb"

let now_ns = Obs.now_ns
let elapsed_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let cores () = Domain.recommended_domain_count ()

(* A field of /proc/self/status in kB ([VmHWM], [VmRSS]); 0 when the
   file is unavailable. *)
let proc_status_kb field =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | s ->
      List.fold_left
        (fun acc line ->
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = field -> (
              let rest = String.sub line (i + 1) (String.length line - i - 1) in
              match String.split_on_char ' ' (String.trim rest) with
              | n :: _ -> ( try int_of_string n with Failure _ -> acc)
              | [] -> acc)
          | _ -> acc)
        0 (String.split_on_char '\n' s)

let peak_rss_mb () = float_of_int (proc_status_kb "VmHWM") /. 1024.

let children_peak_rss_mb () = float_of_int (children_maxrss_kb ()) /. 1024.

(* Words allocated on the minor heap so far.  [Gc.minor_words] reads the
   live allocation pointer; [Gc.quick_stat] only advances at a minor
   collection on OCaml 5, so it must not be used for per-call deltas. *)
let minor_words () = Gc.minor_words ()

(* A fixed pure-CPU loop (integer hashing, no allocation), timed as the
   median of five runs: drift between runs of the same binary shows
   here before it is blamed on a change. *)
let calibration_ms () =
  let once () =
    let t0 = now_ns () in
    let h = ref 0 in
    for i = 1 to 5_000_000 do
      h := (!h * 31) + (i lxor (!h lsr 7))
    done;
    ignore (Sys.opaque_identity !h);
    elapsed_s t0 *. 1e3
  in
  Stats.median (Array.init 5 (fun _ -> once ()))
