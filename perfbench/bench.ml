(* The repository benchmark.  Usage:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--counts-dir DIR] [--profile P] [--flambda B]

   runs one workload (check-full, space-cert, serve-saturated)
   and prints, last, one JSON object with the fields [correct],
   [attempted], [failed] and [metrics]: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1].  Exits 1 when an
   output check fails, 2 on a usage error. *)

let workloads =
  [ "check-full", Wl_check.run
  ; "space-cert", Wl_space.run
  ; "serve-saturated", Wl_serve.run
  ]

let usage msg =
  prerr_endline ("bench: " ^ msg);
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_of k v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> usage (Fmt.str "--%s expects an integer, got %s" k v)
  in
  let workload =
    match get "workload" with
    | Some w -> w
    | None -> usage "--workload is required"
  in
  let run =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None ->
      usage
        (Fmt.str "unknown workload %s (one of %s)" workload
           (String.concat ", " (List.map fst workloads)))
  in
  let seed = int_of "seed" (Option.value (get "seed") ~default:"1") in
  let seconds = int_of "seconds" (Option.value (get "seconds") ~default:"10") in
  let trace =
    match Option.value (get "trace") ~default:"0" with
    | "0" -> false
    | "1" -> true
    | v -> usage ("--trace expects 0 or 1, got " ^ v)
  in
  if seconds < 1 then usage "--seconds must be at least 1";
  let meta =
    { Report.workload
    ; seed
    ; seconds = float_of_int seconds
    ; trace
    ; nproc = Domain.recommended_domain_count ()
    ; flambda = Option.value (get "flambda") ~default:"unknown"
    ; profile = Option.value (get "profile") ~default:"unknown"
    }
  in
  let r = run ~seed ~seconds:(float_of_int seconds) ~trace in
  let r =
    match get "counts-dir" with
    | None -> r
    | Some dir ->
      { r with
        Report.checks = r.Report.checks @ Report.repeat_check ~dir ~meta r.Report.counts
      }
  in
  let schema = if trace then Schema.per_layer () else Schema.end_to_end in
  let correct = Report.print ~meta ~schema r in
  exit (if correct then 0 else 1)
