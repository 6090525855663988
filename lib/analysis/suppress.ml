module Span = Pathlang.Span
module Parser = Pathlang.Parser

(* [PC3xx] matches every code of the family; anything else matches
   exactly.  Unknown patterns simply never match and surface as PC510. *)
let code_matches pat code =
  pat = code
  || String.length pat = 5
     && String.sub pat 3 2 = "xx"
     && String.length code = 5
     && String.sub code 0 3 = String.sub pat 0 3

let describe_codes = function
  | [] -> "(no codes)"
  | codes -> String.concat "/" codes

(* A pattern is idle when it names some rule and every rule it names is
   idle: the pass that owns it did not run, so silence proves nothing. *)
let idle_pattern idle pat =
  let named =
    List.filter_map
      (fun (c, _, _) -> if code_matches pat c then Some c else None)
      Diagnostic.rules
  in
  named <> [] && List.for_all idle named

let apply ~sigma_file ~idle (pragmas : Parser.pragma list) diags =
  let parr = Array.of_list pragmas in
  let used = Array.make (Array.length parr) false in
  let matches (d : Diagnostic.t) (p : Parser.pragma) =
    d.Diagnostic.code <> "PC510"
    && d.Diagnostic.file = sigma_file
    && List.exists (fun pat -> code_matches pat d.Diagnostic.code) p.Parser.codes
    && (p.Parser.file_wide
       ||
       match (d.Diagnostic.span, p.Parser.applies_to) with
       | Some s, Some l -> s.Span.line = l
       | _ -> false)
  in
  let kept =
    List.filter
      (fun d ->
        let hit = ref false in
        Array.iteri
          (fun i p ->
            if matches d p then begin
              hit := true;
              used.(i) <- true
            end)
          parr;
        not !hit)
      diags
  in
  let unused =
    Array.to_list
      (Array.mapi
         (fun i (p : Parser.pragma) ->
           if
             used.(i)
             || (p.Parser.codes <> []
                && List.for_all (idle_pattern idle) p.Parser.codes)
           then None
           else
             let message =
               if p.Parser.codes = [] then
                 "suppression lists no diagnostic codes"
               else if p.Parser.file_wide then
                 Printf.sprintf
                   "unused suppression: no %s diagnostic fired in this file"
                   (describe_codes p.Parser.codes)
               else
                 match p.Parser.applies_to with
                 | Some l ->
                     Printf.sprintf
                       "unused suppression: no %s diagnostic fired at line %d"
                       (describe_codes p.Parser.codes)
                       l
                 | None ->
                     "unused suppression: no constraint follows this pragma"
             in
             Some
               (Diagnostic.make ~code:"PC510" ~severity:Diagnostic.Warning
                  ~file:sigma_file ~span:p.Parser.pragma_span message))
         parr)
    |> List.filter_map Fun.id
  in
  kept @ unused
