(* The pass registry: the name, owned codes and default of every
   analyzer pass, in the fixed order their findings are concatenated.
   It sits below Config (which takes its [[passes]] keys from here);
   the [run] functions are attached by the analyzers on top of
   Driver. *)

type 'run pass = {
  name : string;
  codes : string list;
  default_on : bool;
  run : 'run;
}

let v ?(default_on = true) name codes = { name; codes; default_on; run = () }

let classify = v "classify" [ "PC1xx" ]
let typeflow = v "typeflow" [ "PC6xx" ]
let vacuity = v "vacuity" [ "PC2xx" ]
let inconsistency = v "inconsistency" [ "PC4xx" ]
let redundancy = v "redundancy" [ "PC3xx" ]

(* PC510 is the suppression machinery's own code, not hygiene's *)
let hygiene =
  v "hygiene" [ "PC500"; "PC501"; "PC502"; "PC503"; "PC504"; "PC505" ]

let interact = v ~default_on:false "interact" [ "PC7xx" ]
let querycheck = v "querycheck" [ "PC8xx" ]

let all =
  [
    classify;
    typeflow;
    vacuity;
    inconsistency;
    redundancy;
    hygiene;
    interact;
    querycheck;
  ]

let attach p run = { p with run }

let owns p code = List.exists (fun pat -> Suppress.code_matches pat code) p.codes
