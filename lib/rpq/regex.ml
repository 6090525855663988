module Label = Pathlang.Label
module Path = Pathlang.Path
module Nfa = Automata.Nfa

type t =
  | Eps
  | Letter of Label.t
  | Concat of t * t
  | Alt of t * t
  | Star of t

let eps = Eps
let letter k = Letter k
let concat a b = match (a, b) with Eps, r | r, Eps -> r | _ -> Concat (a, b)
let alt a b = Alt (a, b)
let star = function Star r -> Star r | r -> Star r
let plus r = concat r (star r)
let opt r = alt Eps r

let of_path p =
  List.fold_left (fun acc k -> concat acc (Letter k)) Eps (Path.to_labels p)

(* --- parser ------------------------------------------------------------ *)

exception Err of string

let meta = [ '('; ')'; '|'; '*'; '+'; '?'; '.' ]

let parse_exn src =
  let pos = ref 0 in
  let len = String.length src in
  let peek () = if !pos < len then Some src.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < len && (src.[!pos] = ' ' || src.[!pos] = '\t') do
      advance ()
    done
  in
  let label () =
    skip_ws ();
    let start = !pos in
    while
      !pos < len
      && (not (List.mem src.[!pos] meta))
      && src.[!pos] <> ' '
      && src.[!pos] <> '\t'
    do
      advance ()
    done;
    if !pos = start then raise (Err (Printf.sprintf "expected a label at %d" start));
    String.sub src start (!pos - start)
  in
  let rec alt_level () =
    let left = cat_level () in
    skip_ws ();
    match peek () with
    | Some '|' ->
        advance ();
        Alt (left, alt_level ())
    | _ -> left
  and cat_level () =
    let left = rep_level () in
    skip_ws ();
    match peek () with
    | Some '.' ->
        advance ();
        concat left (cat_level ())
    | _ -> left
  and rep_level () =
    let base = atom () in
    let rec post r =
      skip_ws ();
      match peek () with
      | Some '*' ->
          advance ();
          post (star r)
      | Some '+' ->
          advance ();
          post (plus r)
      | Some '?' ->
          advance ();
          post (opt r)
      | _ -> r
    in
    post base
  and atom () =
    skip_ws ();
    match peek () with
    | Some '(' ->
        advance ();
        let r = alt_level () in
        skip_ws ();
        (match peek () with
        | Some ')' -> advance ()
        | _ -> raise (Err "unbalanced parenthesis"));
        r
    | _ -> (
        let name = label () in
        match name with
        | "eps" -> Eps
        | name -> (
            match Label.make name with
            | k -> Letter k
            | exception Invalid_argument m -> raise (Err m)))
  in
  let r = alt_level () in
  skip_ws ();
  if !pos <> len then raise (Err (Printf.sprintf "trailing input at %d" !pos));
  r

let parse src = match parse_exn src with r -> Ok r | exception Err m -> Error m

(* The printer walks the term once to measure the output and once to
   write it into a buffer of exactly that size, so its time and its
   allocation are linear in the output; it renders every PC8xx message
   and every [query eval] line, whatever the query's size. *)
let render ~str ~chr r =
  let prec = function
    | Alt _ -> 0
    | Concat _ -> 1
    | Star _ -> 2
    | Eps | Letter _ -> 3
  in
  let rec go outer r =
    let paren = prec r < outer in
    if paren then chr '(';
    (match r with
    | Eps -> str "eps"
    | Letter k -> str (Label.to_string k)
    (* [.] and [|] parse right-associatively, so a left-nested child at
       the operator's own level must be parenthesized — printing
       Concat (Concat (a, b), c) as "a.b.c" would re-parse as
       Concat (a, Concat (b, c)), breaking parse ∘ print = id (the
       round-trip property in test_rpq) *)
    | Concat (a, b) ->
        go 2 a;
        chr '.';
        go 1 b
    | Alt (a, b) ->
        go 1 a;
        chr '|';
        go 0 b
    | Star a ->
        go 3 a;
        chr '*');
    if paren then chr ')'
  in
  go 0 r

let to_string r =
  let len = ref 0 in
  render r ~str:(fun s -> len := !len + String.length s) ~chr:(fun _ -> incr len);
  let out = Bytes.create !len and pos = ref 0 in
  render r
    ~str:(fun s ->
      Bytes.blit_string s 0 out !pos (String.length s);
      pos := !pos + String.length s)
    ~chr:(fun c ->
      Bytes.set out !pos c;
      incr pos);
  Bytes.unsafe_to_string out

let pp ppf r = Format.pp_print_string ppf (to_string r)

let rec labels_used = function
  | Eps -> Label.Set.empty
  | Letter k -> Label.Set.singleton k
  | Concat (a, b) | Alt (a, b) -> Label.Set.union (labels_used a) (labels_used b)
  | Star a -> labels_used a

(* --- Thompson construction ----------------------------------------------- *)

let to_nfa r =
  let a = Nfa.create () in
  (* returns (entry, exit) *)
  let rec build = function
    | Eps ->
        let s = Nfa.add_state a in
        (s, s)
    | Letter k ->
        let s = Nfa.add_state a and t = Nfa.add_state a in
        Nfa.add_trans a s k t;
        (s, t)
    | Concat (x, y) ->
        let sx, tx = build x in
        let sy, ty = build y in
        Nfa.add_eps a tx sy;
        (sx, ty)
    | Alt (x, y) ->
        let s = Nfa.add_state a and t = Nfa.add_state a in
        let sx, tx = build x in
        let sy, ty = build y in
        Nfa.add_eps a s sx;
        Nfa.add_eps a s sy;
        Nfa.add_eps a tx t;
        Nfa.add_eps a ty t;
        (s, t)
    | Star x ->
        let s = Nfa.add_state a in
        let sx, tx = build x in
        Nfa.add_eps a s sx;
        Nfa.add_eps a tx s;
        (s, s)
  in
  let start, stop = build r in
  Nfa.set_final a stop;
  (a, start)

let matches r w =
  let a, start = to_nfa r in
  Nfa.accepts_from a start (Path.to_labels w)

let full_alphabet ?(alphabet = []) r1 r2 =
  Label.Set.elements
    (Label.Set.union
       (List.fold_left (fun s k -> Label.Set.add k s) Label.Set.empty alphabet)
       (Label.Set.union (labels_used r1) (labels_used r2)))

let included ?alphabet r1 r2 =
  let sigma = full_alphabet ?alphabet r1 r2 in
  let a1, s1 = to_nfa r1 in
  let a2, s2 = to_nfa r2 in
  Automata.Dfa.nfa_inclusion ~alphabet:sigma a1 ~start1:s1 a2 ~start2:s2

let equivalent ?alphabet r1 r2 = included ?alphabet r1 r2 && included ?alphabet r2 r1

let example_word r =
  let a, start = to_nfa r in
  let alphabet = Label.Set.elements (labels_used r) in
  let d = Automata.Dfa.of_nfa ~alphabet a ~start in
  Option.map Path.of_labels (Automata.Dfa.some_word d)
