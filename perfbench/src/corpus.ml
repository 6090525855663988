(* Seeded constraint files with defects planted by construction, and a
   seeded query file over a schema: the inputs of [lint], [query] and
   [cli].  Generation is pure; [write] puts the files on disk. *)

module Path = Pathlang.Path
module Constr = Pathlang.Constr
module Label = Pathlang.Label
module SG = Schema.Schema_graph

type file = {
  name : string;  (** file name inside the work directory *)
  text : string;
  schema : string option;  (** schema file text, for typed files *)
  planted : (string * int) list;
      (** (code, 1-based line) of each planted defect *)
}

(* Lines of [body] with [planted] lines spliced in at fixed positions:
   returns the text and the line of each planted constraint. *)
let assemble body planted =
  let n = List.length body in
  let lines = ref (List.map (fun c -> (c, None)) body) in
  List.iteri
    (fun k (code, c) ->
      let at = min (List.length !lines) ((k + 1) * n / (List.length planted + 1) + k) in
      let before = List.filteri (fun i _ -> i < at) !lines
      and after = List.filteri (fun i _ -> i >= at) !lines in
      lines := before @ [ (c, Some code) ] @ after)
    planted;
  let text = String.concat "\n" (List.map fst !lines) ^ "\n" in
  let marks =
    List.concat (List.mapi (fun i (_, m) -> match m with Some code -> [ (code, i + 1) ] | None -> []) !lines)
  in
  (text, marks)

(* No walk outside Paths(Delta) is planted: one such constraint moves
   the redundancy pass from the typed-M procedure to the chase, whose
   enumeration fallback over the schema's many labels then runs into the
   pass's wall-clock cap and makes verdicts host-dependent. *)
let typed_file rng name =
  let schema =
    Schema.Mschema.random_m ~rng ~classes:(3 + Random.State.int rng 2)
      ~fields:(2 + Random.State.int rng 2) ~atoms:1
  in
  let sigma =
    List.map Constr.to_string
      (Core.Typed_m.random_constraints ~rng ~schema ~count:6 ~max_len:3)
  in
  let db_path = Path.of_strings [ "c0" ] in
  let trivial = Constr.to_string (Constr.word ~lhs:db_path ~rhs:db_path) in
  let text, planted =
    assemble sigma
      [ ("PC500", List.hd sigma); ("PC504", trivial) ]
  in
  { name; text; schema = Some (Schema.Schema_parser.to_string schema); planted }

let word_file rng name =
  let sigma = Gen.word_sigma rng 6 in
  let u, v = Option.get (Constr.as_word (List.hd sigma)) in
  let w = Gen.path rng ~min:1 ~max:3 Gen.labels3 in
  let step = Constr.word ~lhs:v ~rhs:w in
  (* [u -> w] follows from [u -> v] and [v -> w] by transitivity *)
  let shortcut = Constr.word ~lhs:u ~rhs:w in
  let a = Path.of_strings [ "a" ] in
  let body = List.map Constr.to_string (sigma @ [ step ]) in
  let text, planted =
    assemble body
      [
        ("PC500", List.hd body);
        ("PC504", Constr.to_string (Constr.word ~lhs:a ~rhs:a));
        ("PC300", Constr.to_string shortcut);
      ]
  in
  { name; text; schema = None; planted }

(* All three labels occur, so the redundancy pass's enumeration fallback
   is capped at 2 nodes (with two labels it would search 3-node graphs,
   2^18 of them, and hit the pass's wall-clock cap). *)
let rec pc_body rng =
  let cs = List.init 5 (fun _ -> Gen.pc_constraint rng) in
  if Gen.uses_all_labels cs then cs else pc_body rng

let pc_file rng name =
  let body = List.map Constr.to_string (pc_body rng) in
  let trivial =
    Constr.to_string
      (Constr.forward ~prefix:(Path.of_strings [ "a" ]) ~lhs:(Path.of_strings [ "b" ])
         ~rhs:(Path.of_strings [ "b" ]))
  in
  let text, planted = assemble body [ ("PC500", List.hd body); ("PC504", trivial) ] in
  { name; text; schema = None; planted }

(* File [i] of the seed's stream.  One file in twenty is P_c, the rest
   alternate typed and word.  A P_c file's redundancy checks may each run
   the chase into its budget and then enumerate, so its cost has a long
   thin tail (0.5 ms at the median, 20 ms at the 99th percentile); at
   one in twenty that tail stays beyond the 99th percentile of the mix,
   where it cannot make p99 jump from seed to seed, and still shows in
   throughput and in the traced chase and enumeration shares. *)
let lint_file ~seed i =
  let rng = Gen.rng seed [ 2; i ] in
  let name = Printf.sprintf "f%05d" i in
  let k = i mod 20 in
  if k = 19 then pc_file rng name
  else if k mod 2 = 0 then typed_file rng name
  else word_file rng name

let lint_files ~seed n = List.init n (lint_file ~seed)

let sigma_path dir f = Filename.concat dir (f.name ^ ".constraints")
let schema_path dir f = Filename.concat dir (f.name ^ ".schema")

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write dir files =
  mkdir_p dir;
  List.iter
    (fun f ->
      write_file (sigma_path dir f) f.text;
      Option.iter (write_file (schema_path dir f)) f.schema)
    files

(* --- queries --------------------------------------------------------------- *)

type query = {
  text : string;
  dead : bool;  (** a schema-dead branch is planted: PC801 must fire *)
}

(* A query built by walking the schema's field graph from the database
   record: a revisited class closes a cycle, which becomes a star; with
   [dead], one step gets an alternative branch the schema cannot take. *)
let walk_query rng schema ~dead =
  let dbt = Schema.Mschema.dbtype schema in
  let labels_at t = List.map fst (SG.out_edges schema t) in
  let all_labels = Label.Set.elements (SG.labels schema) in
  let len = 3 + Random.State.int rng 4 in
  (* steps: (label, sort after) *)
  let rec walk t k acc =
    if k = 0 then List.rev acc
    else
      match SG.out_edges schema t with
      | [] -> List.rev acc
      | edges ->
          let l, t' = Gen.pick rng edges in
          walk t' (k - 1) ((l, t, t') :: acc)
  in
  let steps = Array.of_list (walk dbt len []) in
  let n = Array.length steps in
  (* the first cycle: positions i < j with the sort before step i equal
     to the sort after step j *)
  let cycle = ref None in
  for i = n - 1 downto 1 do
    for j = n - 1 downto i do
      let _, before_i, _ = steps.(i) and _, _, after_j = steps.(j) in
      if Schema.Mtype.equal before_i after_j then cycle := Some (i, j)
    done
  done;
  let dead_at = if dead then Some (Random.State.int rng n) else None in
  let tok k =
    let l, before, _ = steps.(k) in
    let name = Label.to_string l in
    match dead_at with
    | Some d when d = k -> (
        let live = labels_at before in
        match List.filter (fun x -> not (List.mem x live)) all_labels with
        | [] -> name
        | bad -> Printf.sprintf "(%s|%s)" name (Label.to_string (Gen.pick rng bad)))
    | _ -> name
  in
  let parts =
    List.init n (fun k ->
        match !cycle with
        | Some (i, j) when k = i -> Some ("(" ^ String.concat "." (List.init (j - i + 1) (fun d -> tok (i + d))) ^ ")*")
        | Some (i, j) when k > i && k <= j -> None
        | _ -> Some (tok k))
  in
  String.concat "." (List.filter_map Fun.id parts)

(* A closure query: from the database record to one class, then a star
   over the three class-valued fields, in a seeded order.  With [dead],
   the alternation gets a database label, which no class has. *)
let closure_query rng schema ~dead =
  let dbt = Schema.Mschema.dbtype schema in
  let entry, _ = Gen.pick rng (SG.out_edges schema dbt) in
  let branches =
    List.map snd (List.sort compare (List.map (fun f -> (Random.State.bits rng, f)) [ "f0"; "f1"; "f2" ]))
  in
  let branches =
    if dead then
      branches @ [ Label.to_string (fst (Gen.pick rng (SG.out_edges schema dbt))) ]
    else branches
  in
  Printf.sprintf "%s.(%s)*" (Label.to_string entry) (String.concat "|" branches)

type query_corpus = {
  schema : Schema.Mschema.t;
  schema_text : string;
  queries : query list;
}

(* Four in five queries are closures, the fifth a walk; one in ten of
   each kind carries a dead branch. *)
(* A kind-M schema in which every class has three class-valued fields
   and one atomic one: [fk] leads [2k+1] classes further round a ring.
   Its shape is fixed; the seed draws the instances and the queries.
   Closures over [f0|f1|f2] then reach nearly all of an instance graph,
   whatever the seed. *)
let ring_schema ~classes =
  let c i = Schema.Mtype.Class (Schema.Mtype.cname (Printf.sprintf "C%d" i)) in
  Schema.Mschema.make_exn ~kind:Schema.Mschema.M
    ~classes:
      (List.init classes (fun i ->
           ( Schema.Mtype.cname (Printf.sprintf "C%d" i),
             Schema.Mtype.record
               [
                 ("f0", c ((i + 1) mod classes));
                 ("f1", c ((i + 3) mod classes));
                 ("f2", c ((i + 5) mod classes));
                 ("f3", Schema.Mtype.Atomic (Schema.Mtype.atomic "b0"));
               ] )))
    ~dbtype:(Schema.Mtype.record (List.init classes (fun i -> (Printf.sprintf "c%d" i, c i))))

let query_corpus ~seed ~classes ~queries =
  let rng = Gen.rng seed [ 3 ] in
  let schema = ring_schema ~classes in
  let queries =
    List.init queries (fun i ->
        let dead = i mod 10 = 3 || i mod 10 = 9 in
        if i mod 5 = 4 then
          let text = walk_query rng schema ~dead in
          (* a walk's dead branch needs a label the sort lacks *)
          { text; dead = dead && String.contains text '|' }
        else { text = closure_query rng schema ~dead; dead })
  in
  { schema; schema_text = Schema.Schema_parser.to_string schema; queries }

let query_file_text c = String.concat "\n" (List.map (fun q -> q.text) c.queries) ^ "\n"
