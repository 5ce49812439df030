(* The lib/explore refactor contract: rebasing the checker and the Theorem
   10 search onto the unified engine must be observationally invisible.
   These suites diff the production implementations against the frozen seed
   copies in [Seed_ref] (same instances, same seeds, field-by-field — for
   the checker literally [=] on whole reports), and exercise the engine
   surface the seed never had: multi-domain BFS, the memoized solo oracle
   and id-based trace reconstruction. *)

let report =
  Alcotest.testable Checker.pp_report (fun (a : Checker.report) b -> a = b)

(* ---------------------------------------------------- checker differential *)

let diff_explore name (module P : Shmem.Protocol.S) ?solo_cap ?prune_lap
    ~inputs () =
  let module C = Checker.Make (P) in
  let module R = Seed_ref.Checker_ref (P) in
  let prune =
    match prune_lap with
    | None -> None
    | Some bound ->
      Some (fun (c : C.E.config) -> Baselines.Registry.lap_prune bound c.C.E.mem)
  in
  let new_report = C.explore ?solo_cap ?prune ~inputs () in
  let seed_report = R.explore ?solo_cap ?prune ~inputs () in
  Alcotest.check report (name ^ ": explore report identical to seed")
    seed_report new_report

let test_diff_stubborn () =
  diff_explore "stubborn" (Util.stubborn_protocol ()) ~inputs:[| 0; 1 |] ()

let test_diff_invalid () =
  diff_explore "invalid" (Util.invalid_protocol ()) ~inputs:[| 0; 0 |] ()

let test_diff_spinner () =
  diff_explore "spinner" (Util.spinner_protocol ()) ~solo_cap:64
    ~inputs:[| 0; 1 |] ()

let test_diff_cas () =
  diff_explore "cas" (Baselines.Cas_consensus.make ~n:2 ~m:2)
    ~inputs:[| 0; 1 |] ()

let test_diff_swap_ksa_all_inputs () =
  let (module P) = Core.Swap_ksa.make ~n:2 ~k:1 ~m:2 in
  let module C = Checker.Make (P) in
  List.iter
    (fun inputs ->
      diff_explore
        (Fmt.str "swap-ksa inputs=[%a]" Fmt.(array ~sep:(any ",") int) inputs)
        (module P) ~prune_lap:3 ~inputs ())
    (C.all_input_vectors ())

let test_diff_truncation () =
  (* the budget path: truncation flag and partial exploration must agree *)
  let (module P) = Core.Swap_ksa.make ~n:2 ~k:1 ~m:2 in
  let module C = Checker.Make (P) in
  let module R = Seed_ref.Checker_ref (P) in
  let inputs = [| 0; 1 |] in
  let new_report =
    C.explore ~max_configs:500 ~check_solo:false ~inputs ()
  in
  let seed_report =
    R.explore ~max_configs:500 ~check_solo:false ~inputs ()
  in
  Alcotest.check report "truncated run identical to seed" seed_report
    new_report

let test_diff_random_runs () =
  let check name (module P : Shmem.Protocol.S) ~runs ~max_steps
      ~solo_check_every =
    let module C = Checker.Make (P) in
    let module R = Seed_ref.Checker_ref (P) in
    let new_report = C.random_runs ~runs ~max_steps ~solo_check_every () in
    let seed_report = R.random_runs ~runs ~max_steps ~solo_check_every () in
    Alcotest.check report (name ^ ": random_runs identical to seed")
      seed_report new_report
  in
  check "stubborn" (Util.stubborn_protocol ()) ~runs:50 ~max_steps:100
    ~solo_check_every:0;
  check "swap-ksa n=3"
    (let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
     (module P))
    ~runs:10 ~max_steps:200 ~solo_check_every:50

(* -------------------------------------------------- theorem 10 differential *)

(* The certificate types of the production and reference drivers are
   distinct nominal records; compare them through a shared summary. *)
let test_diff_theorem10 () =
  let diff ~n ~k ~search_rounds =
    let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
    let module T = Lowerbound.Theorem10.Make (P) in
    let module R = Seed_ref.Theorem10_ref (P) in
    let t_cert = T.run ~search_rounds () in
    let r_cert = R.run ~search_rounds () in
    let t_levels =
      List.map
        (function
          | T.Base c -> `Base (c.T.L9.objects_forced, c.T.L9.gamma, c.T.L9.delta)
          | T.Found_k_values { r; alpha; cert } ->
            `Found
              (r, alpha, cert.T.L9.objects_forced, cert.T.L9.gamma,
               cert.T.L9.delta)
          | T.Recursed { r } -> `Recursed r)
        t_cert.T.levels
    in
    let r_levels =
      List.map
        (function
          | R.Base c -> `Base (c.R.L9.objects_forced, c.R.L9.gamma, c.R.L9.delta)
          | R.Found_k_values { r; alpha; cert } ->
            `Found
              (r, alpha, cert.R.L9.objects_forced, cert.R.L9.gamma,
               cert.R.L9.delta)
          | R.Recursed { r } -> `Recursed r)
        r_cert.R.levels
    in
    Alcotest.(check bool)
      (Fmt.str "n=%d k=%d: certificate identical to seed" n k)
      true
      (t_levels = r_levels
      && t_cert.T.objects_forced = r_cert.R.objects_forced
      && t_cert.T.bound = r_cert.R.bound)
  in
  diff ~n:4 ~k:1 ~search_rounds:30;
  diff ~n:6 ~k:2 ~search_rounds:30;
  diff ~n:9 ~k:3 ~search_rounds:30

(* --------------------------------------------------------- engine surface *)

let test_bfs_discovery_order () =
  (* on one domain the level-synchronized BFS is the FIFO traversal: a
     one-shard store hands out ids in discovery order and they are visited
     in that same order, so the visitor sees 0, 1, 2, ... and every
     interned configuration once; two domains over a one-shard store
     intern as many configurations and visit every id once too *)
  let check name (module P : Shmem.Protocol.S) ~inputs ~prune =
    let module X = Explore.Make (P) in
    let run domains =
      let t = X.create ~inputs () in
      let ids = ref [] and lock = Mutex.create () in
      let visit (v : X.visit) =
        Mutex.protect lock (fun () -> ids := v.X.id :: !ids);
        if prune v.X.config.X.E.mem then X.Prune else X.Continue
      in
      let stats = X.bfs t ~domains ~visit () in
      Alcotest.(check int)
        (Fmt.str "%s, %d domains: one visit per id" name domains)
        (List.length !ids) stats.X.visited;
      List.rev !ids, X.size t
    in
    let ids, size = run 1 in
    Alcotest.(check (list int))
      (name ^ ": visited in discovery order")
      (List.init size Fun.id) ids;
    let ids2, size2 = run 2 in
    Alcotest.(check int) (name ^ ": 2 domains intern as many") size size2;
    Alcotest.(check (list int))
      (name ^ ": 2 domains visit the same ids")
      ids
      (List.sort Int.compare ids2)
  in
  check "cas n=2" (Baselines.Cas_consensus.make ~n:2 ~m:2) ~inputs:[| 0; 1 |]
    ~prune:(fun _ -> false);
  check "swap-ksa n=3"
    (let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
     (module P))
    ~inputs:[| 0; 1; 0 |]
    ~prune:(Baselines.Registry.lap_prune 2)

let test_trace_to_replays () =
  (* every back-edge path must replay from the root to its configuration *)
  let (module P) = Core.Swap_ksa.make ~n:2 ~k:1 ~m:2 in
  let module X = Explore.Make (P) in
  let inputs = [| 0; 1 |] in
  let t = X.create ~inputs () in
  let checked = ref 0 in
  let visit (v : X.visit) =
    if v.X.id mod 7 = 0 then begin
      incr checked;
      let c = X.E.replay (X.E.initial ~inputs) (X.trace_to t v.X.id) in
      if not (X.E.equal_config c v.X.config) then
        Alcotest.failf "trace_to id %d does not replay to its config" v.X.id;
      (* the lazy visitor path must spell the same schedule *)
      if Lazy.force v.X.path <> X.trace_to t v.X.id then
        Alcotest.failf "visit.path diverges from trace_to at id %d" v.X.id
    end;
    if Baselines.Registry.lap_prune 2 v.X.config.X.E.mem then X.Prune
    else X.Continue
  in
  ignore (X.bfs t ~visit ());
  Alcotest.(check bool) "sampled some ids" true (!checked > 5)

let test_solo_oracle_consistent () =
  (* memoized verdicts must agree with direct solo runs, on the unreduced
     two-level memo and on the symmetry-reduced canonical key alike *)
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  let module X = Explore.Make (P) in
  let inputs = [| 0; 1; 0 |] in
  List.iter
    (fun sym ->
      let t = X.create ~sym ~inputs () in
      Alcotest.(check bool) "reduction as requested" sym (X.sym_enabled t);
      let sampled = ref 0 in
      let visit (v : X.visit) =
        if v.X.id mod 29 = 0 then
          List.iter
            (fun pid ->
              incr sampled;
              let direct =
                X.E.run_solo ~pid ~max_steps:(X.solo_cap t) v.X.config <> None
              in
              Alcotest.(check bool)
                (Fmt.str "oracle agrees with run_solo (sym %b, id %d, p%d)" sym
                   v.X.id pid)
                direct
                (X.solo_ok t ~pid v.X.config))
            (X.E.undecided v.X.config);
        if Baselines.Registry.lap_prune 2 v.X.config.X.E.mem then X.Prune
        else X.Continue
      in
      ignore (X.bfs t ~max_configs:5_000 ~visit ());
      Alcotest.(check bool) "sampled some verdicts" true (!sampled > 10))
    [ false; true ]

(* [f ()] with observability on, paired with how far [c] advanced *)
let counting c f =
  let was = Obs.enabled () in
  Obs.enable ();
  let c0 = Obs.Counter.value c in
  let r = Fun.protect ~finally:(fun () -> if not was then Obs.disable ()) f in
  r, Obs.Counter.value c - c0

let solo_misses = Obs.counter "explore.solo.cache_misses"

let test_solo_oracle_key () =
  (* Unreduced and serial, the oracle misses exactly once per distinct
     (pid, state, memory) restriction it is asked about: a coarser key would
     share verdicts unsoundly, a finer one would rerun solo executions.  The
     restrictions are counted here with an independent table over
     [P.equal_state] and [Value.equal]. *)
  let (module P) = Core.Swap_ksa.make ~n:5 ~k:1 ~m:2 in
  let module C = Checker.Make (P) in
  let module Pr = Prop.Make (P) in
  let inputs = [| 0; 1; 0; 1; 0 |] in
  let prune (c : C.E.config) =
    Baselines.Registry.total_lap_prune 2 c.C.E.mem
  in
  let run () =
    let seen = Hashtbl.create 4096 in
    let distinct = ref 0 in
    (* the solo-termination properties ask about every undecided pid of
       every visited configuration; this probe sees the same snapshots *)
    let probe =
      Pr.invariant ~name:"solo-query-probe" ~desc:"records solo queries"
        (fun s ->
          List.iter
            (fun pid ->
              let st = s.Pr.states.(pid) in
              let h =
                Hashtbl.hash
                  (pid, P.hash_state st, Array.map Shmem.Value.hash s.Pr.mem)
              in
              let bucket = Option.value ~default:[] (Hashtbl.find_opt seen h) in
              let same (p, st', mem') =
                p = pid && P.equal_state st st'
                && Array.for_all2 Shmem.Value.equal s.Pr.mem mem'
              in
              if not (List.exists same bucket) then begin
                incr distinct;
                Hashtbl.replace seen h ((pid, st, s.Pr.mem) :: bucket)
              end)
            (Pr.undecided s);
          None)
    in
    let r, misses =
      counting solo_misses (fun () ->
          C.explore ~prune ~extra_props:(fun _ -> [ probe ]) ~inputs ())
    in
    Util.check_ok "swap-ksa n=5 unreduced" r;
    Alcotest.(check bool) "queried some restrictions" true (!distinct > 1000);
    Alcotest.(check int) "one miss per distinct restriction" !distinct misses;
    misses
  in
  (* a second exploration on this domain starts from an empty oracle: the
     memory memo of the first must not leak into it *)
  let first = run () in
  Alcotest.(check int) "a second exploration misses as often" first (run ());
  (* two live explorations interleaved on one domain, queried with the same
     physical configuration, each miss in their own table *)
  let module X = C.X in
  let t1 = X.create ~inputs () and t2 = X.create ~inputs () in
  let c = X.config t1 (X.root t1) in
  let _, misses =
    counting solo_misses (fun () ->
        List.iter
          (fun t -> ignore (X.solo_ok t ~pid:0 c : bool))
          [ t1; t2; t1; t2 ])
  in
  Alcotest.(check int) "interleaved explorations keep their own memos" 2
    misses

let test_walk_interns_path () =
  let (module P) = Core.Swap_ksa.make ~n:2 ~k:1 ~m:2 in
  let module X = Explore.Make (P) in
  let t = X.create ~inputs:[| 0; 1 |] () in
  let rng = Random.State.make [| 7 |] in
  let r = X.walk t ~sched:(X.E.random rng) ~max_steps:50
      ~visit:(fun _ -> X.Continue) ()
  in
  Alcotest.(check bool) "walk interned its positions" true (X.size t > 1);
  Alcotest.(check bool) "walk took steps" true (r.X.steps > 0);
  let c = X.E.replay (X.E.initial ~inputs:[| 0; 1 |]) (X.trace_to t r.X.last) in
  Alcotest.(check bool) "last id replays" true
    (X.E.equal_config c (X.config t r.X.last))

(* ------------------------------------------------------------- parallel *)

let test_parallel_matches_serial () =
  let (module P) = Baselines.Cas_consensus.make ~n:2 ~m:2 in
  let module C = Checker.Make (P) in
  let inputs = [| 0; 1 |] in
  let serial = C.explore ~inputs () in
  List.iter
    (fun domains ->
      let par = C.explore ~domains ~inputs () in
      Alcotest.(check int)
        (Fmt.str "%d domains: same configs explored" domains)
        serial.Checker.configs_explored par.Checker.configs_explored;
      Alcotest.(check bool) "not truncated" false par.Checker.truncated;
      Alcotest.(check bool) "no violations" true (Checker.ok par))
    [ 1; 2; 4 ]

let test_parallel_finds_violations () =
  let (module P) = Util.stubborn_protocol () in
  let module C = Checker.Make (P) in
  let inputs = [| 0; 1 |] in
  let serial = C.explore ~inputs () in
  let par = C.explore ~domains:4 ~inputs () in
  let multiset r =
    List.sort Stdlib.compare
      (List.map
         (fun v -> v.Checker.property, v.Checker.detail,
                   Shmem.Trace.length v.Checker.trace)
         r.Checker.violations)
  in
  Alcotest.(check int) "same configs explored" serial.Checker.configs_explored
    par.Checker.configs_explored;
  Alcotest.(check bool) "same violation multiset" true
    (multiset serial = multiset par);
  (* parallel counterexample traces must still replay to violating configs *)
  List.iter
    (fun v ->
      if v.Checker.property = "k-agreement" then begin
        let c = C.E.replay (C.E.initial ~inputs) v.Checker.trace in
        Alcotest.(check bool) "replayed parallel violation" false
          (C.E.check_agreement c)
      end)
    par.Checker.violations

let test_parallel_swap_ksa_safe () =
  (* a pruned infinite-space instance through the parallel engine *)
  let (module P) = Core.Swap_ksa.make ~n:2 ~k:1 ~m:2 in
  let module C = Checker.Make (P) in
  let prune (c : C.E.config) = Baselines.Registry.lap_prune 3 c.C.E.mem in
  let serial = C.explore ~prune ~inputs:[| 0; 1 |] () in
  let par = C.explore ~domains:4 ~prune ~inputs:[| 0; 1 |] () in
  Util.check_ok "parallel swap-ksa" par;
  Alcotest.(check int) "same configs explored"
    serial.Checker.configs_explored par.Checker.configs_explored

let test_parallel_swap_ksa_unreduced () =
  (* shards > 1: each worker domain keeps its own memory memo over the
     shared, sharded oracle, and the verdicts match the serial run's *)
  let (module P) = Core.Swap_ksa.make ~n:5 ~k:1 ~m:2 in
  let module C = Checker.Make (P) in
  let inputs = [| 0; 1; 0; 1; 0 |] in
  let prune (c : C.E.config) =
    Baselines.Registry.total_lap_prune 2 c.C.E.mem
  in
  let serial = C.explore ~prune ~inputs () in
  let par = C.explore ~domains:2 ~prune ~inputs () in
  Util.check_ok "serial swap-ksa n=5" serial;
  Alcotest.(check report) "parallel report equals serial" serial par

let () =
  Alcotest.run "explore"
    [ ( "checker-differential",
        [ Alcotest.test_case "stubborn" `Quick test_diff_stubborn
        ; Alcotest.test_case "invalid" `Quick test_diff_invalid
        ; Alcotest.test_case "spinner" `Quick test_diff_spinner
        ; Alcotest.test_case "cas exhaustive" `Quick test_diff_cas
        ; Alcotest.test_case "swap-ksa all inputs" `Quick
            test_diff_swap_ksa_all_inputs
        ; Alcotest.test_case "truncation" `Quick test_diff_truncation
        ; Alcotest.test_case "random runs" `Quick test_diff_random_runs
        ] )
    ; ( "theorem10-differential",
        [ Alcotest.test_case "certificates identical" `Slow
            test_diff_theorem10
        ] )
    ; ( "engine",
        [ Alcotest.test_case "bfs discovery order" `Quick
            test_bfs_discovery_order
        ; Alcotest.test_case "trace_to replays" `Quick test_trace_to_replays
        ; Alcotest.test_case "solo oracle consistent" `Quick
            test_solo_oracle_consistent
        ; Alcotest.test_case "solo oracle key is the restriction" `Quick
            test_solo_oracle_key
        ; Alcotest.test_case "walk interns its path" `Quick
            test_walk_interns_path
        ] )
    ; ( "parallel",
        [ Alcotest.test_case "matches serial on finite space" `Quick
            test_parallel_matches_serial
        ; Alcotest.test_case "finds the same violations" `Quick
            test_parallel_finds_violations
        ; Alcotest.test_case "pruned swap-ksa safe" `Quick
            test_parallel_swap_ksa_safe
        ; Alcotest.test_case "unreduced swap-ksa n=5 matches serial" `Quick
            test_parallel_swap_ksa_unreduced
        ] )
    ]
