(* Order statistics over latency samples. *)

(* Nearest-rank quantile of a sorted array, [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let median samples = quantile_sorted (sorted samples) 0.5

(* A tail percentile is only reported when at least [min_beyond] samples
   lie strictly beyond its rank: with fewer, the figure is set by a
   handful of outliers and does not repeat. *)
let min_beyond = 10

let samples_needed q =
  int_of_float (Float.ceil (float_of_int min_beyond /. (1. -. q) -. 1e-9))

let tail_percentile samples q =
  let n = Array.length samples in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  if n - rank < min_beyond then None
  else Some (quantile_sorted (sorted samples) q)

let mean samples =
  let n = Array.length samples in
  if n = 0 then nan else Array.fold_left ( +. ) 0. samples /. float_of_int n

(* A growable float buffer for per-op samples. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create ?(capacity = 1024) () = { data = Array.make (max 1 capacity) 0.; len = 0 }

  let add b x =
    if b.len = Array.length b.data then begin
      let d = Array.make (2 * b.len) 0. in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.data 0 b.len
  let length b = b.len
end
