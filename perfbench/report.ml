(* What a workload hands back, and how a run prints it: human-readable
   lines, one [record] JSON line carrying the machine metadata, and — last
   — the one-line result object whose metric names BENCHMARK.json lists. *)

type check = { name : string; ok : bool; detail : string }

type t = {
  checks : check list;  (** output checks; any failure fails the run *)
  attempted : int;  (** outputs produced and checked *)
  failed : int;  (** outputs that failed or were wrong *)
  metrics : (string * float) list;  (** by {!Schema} name *)
  counts : (string * int) list;
      (** exact counts that must repeat between runs with the same seed *)
  info : (string * Obs.Json.t) list;  (** sample sizes, layer tables *)
}

let check name ok detail = { name; ok; detail }

type meta = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  nproc : int;
  flambda : string;
  profile : string;
}

let meta_json m =
  let open Obs.Json in
  Obj
    [ "workload", Str m.workload
    ; "seed", Num (float_of_int m.seed)
    ; "seconds", Num m.seconds
    ; "trace", Bool m.trace
    ; "nproc", Num (float_of_int m.nproc)
    ; "ocaml", Str Sys.ocaml_version
    ; "flambda", Str m.flambda
    ; "profile", Str m.profile
    ; "clock", Str "Resil.Clock (CLOCK_MONOTONIC)"
    ]

(* Compare [counts] with the ones an earlier run of this same executable
   with the same workload, seed and mode left in [dir]; the first run
   records them.  Keying on the executable's digest keeps a rebuilt
   program from being compared with another version's counts. *)
let repeat_check ~dir ~(meta : meta) counts =
  if counts = [] then []
  else begin
    let exe = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
    let file =
      Filename.concat dir
        (Fmt.str "%s-%s-seed%d-trace%d.counts" exe meta.workload meta.seed
           (if meta.trace then 1 else 0))
    in
    let line (k, v) = Fmt.str "%s %d" k v in
    let mine = List.map line counts in
    if Sys.file_exists file then begin
      let ic = open_in file in
      let rec read acc =
        match input_line ic with
        | l -> read (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let theirs = read [] in
      close_in ic;
      [ check "counts repeat exactly across runs with this seed"
          (theirs = mine)
          (if theirs = mine then Fmt.str "%d counts match %s" (List.length mine) file
           else
             Fmt.str "earlier [%s], now [%s]" (String.concat "; " theirs)
               (String.concat "; " mine))
      ]
    end
    else begin
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let oc = open_out file in
      List.iter (fun l -> output_string oc (l ^ "\n")) mine;
      close_out oc;
      []
    end
  end

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print ~(meta : meta) ~schema (r : t) =
  let correct = List.for_all (fun c -> c.ok) r.checks in
  let failed = if correct then r.failed else max 1 r.failed in
  let attempted = max 1 r.attempted in
  Fmt.pr "workload %s  seed %d  trace %b  nproc %d  ocaml %s  flambda %s  \
          profile %s@."
    meta.workload meta.seed meta.trace meta.nproc Sys.ocaml_version
    meta.flambda meta.profile;
  List.iter
    (fun c ->
      Fmt.pr "check %-4s %s: %s@." (if c.ok then "ok" else "FAIL") c.name
        c.detail)
    r.checks;
  List.iter (fun (k, v) -> Fmt.pr "count  %s = %d@." k v) r.counts;
  let value name =
    match List.assoc_opt name r.metrics with Some v -> v | None -> 0.
  in
  List.iter
    (fun (name, unit_) -> Fmt.pr "metric %s = %.6g %s@." name (value name) unit_)
    schema;
  let open Obs.Json in
  let record =
    Obj
      [ "meta", meta_json meta
      ; ( "checks",
          Arr
            (List.map
               (fun c ->
                 Obj [ "name", Str c.name; "ok", Bool c.ok; "detail", Str c.detail ])
               r.checks) )
      ; "attempted", Num (float_of_int attempted)
      ; "failed", Num (float_of_int failed)
      ; "fail_ratio", Num (float_of_int failed /. float_of_int attempted)
      ; "counts", Obj (List.map (fun (k, v) -> k, Num (float_of_int v)) r.counts)
      ; "info", Obj r.info
      ]
  in
  print_endline ("record " ^ to_string record);
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, unit_) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_float (value name)) unit_)
         schema)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed metrics;
  correct
