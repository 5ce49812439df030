(* Counterexample hunting: take an unsafe variant of Algorithm 1 (the
   decision threshold lowered from the paper's 2 laps to 1 — bench table T8
   shows why that matters), let the model checker find an agreement
   violation, shrink it to a minimal schedule, and draw it.

     dune exec examples/counterexample_hunt.exe *)

let () =
  Fmt.pr
    "=== Hunting the bug in \"decide at a 1-lap lead\" (Algorithm 1 ablation) \
     ===@.@.";
  let (module P) = Core.Swap_ksa.make_ablation ~n:3 ~k:1 ~m:2 ~lead:1 () in
  let module C = Checker.Make (P) in
  let inputs = [| 0; 1; 1 |] in
  let prune (c : C.E.config) = Baselines.Registry.lap_prune 3 c.C.E.mem in
  let report = C.explore ~prune ~inputs () in
  match
    List.find_opt
      (fun v -> v.Checker.property = "k-agreement")
      report.Checker.violations
  with
  | None -> failwith "expected a violation — the variant is supposed to be unsafe"
  | Some v ->
    Fmt.pr "checker: %d configurations explored, agreement violated by a \
            %d-step schedule@."
      report.Checker.configs_explored
      (Shmem.Trace.length v.Checker.trace);
    let small = C.shrink_violation ~inputs v in
    Fmt.pr "shrunk to %d steps: %s@.@."
      (Shmem.Trace.length small.Checker.trace)
      (Shmem.Schedule.to_string (Shmem.Schedule.of_trace small.Checker.trace));
    Fmt.pr "@[<v>%a@]@.@."
      (fun ppf -> Shmem.Timeline.render ~n:3 ppf)
      small.Checker.trace;
    (* replay it to show the contradiction *)
    let module E = Shmem.Exec.Make (P) in
    let c = E.replay (E.initial ~inputs) small.Checker.trace in
    Fmt.pr "decided values: %a — two values, violating agreement.@."
      Fmt.(list ~sep:(any " and ") int)
      (E.decided_values c);
    Fmt.pr
      "With the paper's 2-lap threshold the same schedule decides nothing \
       early:@.";
    let (module P2) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
    let module E2 = Shmem.Exec.Make (P2) in
    let c2, _ =
      E2.run_script (E2.initial ~inputs)
        (Shmem.Schedule.of_trace small.Checker.trace)
    in
    Fmt.pr "decided values: %a@."
      Fmt.(list ~sep:(any " and ") int)
      (E2.decided_values c2)
