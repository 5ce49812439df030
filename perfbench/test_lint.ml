(* The benchmark reads time only through [Resil.Clock]: lint its own
   sources with the [monotonic] pass (no [Unix.gettimeofday], [Unix.time]
   or [Sys.time]), and refuse any use of a self-reported [elapsed] field —
   [Multicore.Swap_ksa_mc]'s reads the wall clock, and the benchmark times
   every call itself. *)

let () =
  let files =
    List.filter (fun f -> Filename.basename f <> "test_lint.ml") (Lint.ml_files ".")
  in
  if List.length files < 5 then begin
    Fmt.epr "test_lint: expected the benchmark sources, found %d files@."
      (List.length files);
    exit 1
  end;
  let findings = Lint.run_plan (List.map (fun f -> f, [ Lint.monotonic ]) files) in
  List.iter (fun f -> Fmt.epr "%a@." Lint.pp_finding f) findings;
  let field = "." ^ "elapsed" in
  let uses_elapsed f =
    let ic = open_in f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let n = String.length field in
    let ident_char i =
      i < String.length s
      && match s.[i] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
    in
    let rec scan i =
      i + n <= String.length s
      && ((String.sub s i n = field && not (ident_char (i + n))) || scan (i + 1))
    in
    scan 0
  in
  let elapsed = List.filter uses_elapsed files in
  List.iter (fun f -> Fmt.epr "%s: reads a self-reported elapsed field@." f) elapsed;
  if findings <> [] || elapsed <> [] then exit 1;
  Fmt.pr "test_lint: %d benchmark sources clean (monotonic clock only)@."
    (List.length files)
