(* check-full: [Checker.Make(P).explore], serially, on Algorithm 1 at
   n=7 k=1 m=2 — unreduced (no symmetry, no POR), pruned at total lap
   progress 2, with the registry's declared properties riding along.  The
   graph closes at 629,256 configurations.  Step, intern, the solo oracle,
   property evaluation and allocation do the work; canonicalization does
   none.  The seed picks a permutation of the input vector (4 zeros, 3
   ones), which permutes the graph and leaves every count unchanged. *)

let n = 7
let lap = 2
let expected_configs = 629_256
let max_configs = 2_000_000
let builtin = [ "k-agreement"; "validity"; "solo-termination" ]

let total_laps (mem : Shmem.Value.t array) =
  Array.fold_left
    (fun acc v ->
      match v with
      | Shmem.Value.Pair (Shmem.Value.Ints u, _) -> Array.fold_left ( + ) acc u
      | _ -> acc)
    0 mem

let entry () =
  match Baselines.Registry.find "swap-ksa k=1" ~n with
  | Ok e -> e
  | Error msg -> failwith msg

let inputs_of_seed seed =
  let rng = Random.State.make [| seed; 0xC4EC |] in
  let a = Array.init n (fun i -> i mod 2) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let run ~seed ~seconds ~trace : Report.t =
  let inputs = inputs_of_seed seed in
  let e = entry () in
  let (module Pk) = e.Baselines.Registry.props in
  let module P = Pk.P in
  let module C = Checker.Make (P) in
  let module PM = Prop.Make (P) in
  let module R = Replay.Make (P) (C.X) in
  let extra =
    List.filter (fun p -> not (List.mem (PM.name p) builtin)) Pk.props
  in
  let prune_at budget (c : C.E.config) = total_laps c.C.E.mem > budget in
  let prune = prune_at lap in
  (* one check: the report, its wall, its store and its GC deltas *)
  let job ?(budget = lap) () =
    let store = ref None in
    let extra_props t =
      store := Some t;
      extra
    in
    let g0 = Gc.quick_stat () in
    let r, s =
      Stat.time (fun () ->
          C.explore ~max_configs ~prune:(prune_at budget) ~extra_props ~inputs ())
    in
    let g1 = Gc.quick_stat () in
    let t = Option.get !store in
    r, s, t, (g1.Gc.minor_words -. g0.Gc.minor_words,
              g1.Gc.major_collections - g0.Gc.major_collections)
  in
  (* set-up: registry lookup, functor instantiation, and a warm-up check
     at lap budget 1 through the same path, five times *)
  let setup_once () =
    snd
      (Stat.time (fun () ->
           let e = entry () in
           let (module Pk) = e.Baselines.Registry.props in
           ignore (Pk.props : _ list);
           let r, _, _, _ = job ~budget:1 () in
           assert (r.Checker.violations = [])))
  in
  let setup_s = Stat.median (List.init 5 (fun _ -> setup_once ())) in
  let checks = ref [] and attempted = ref 0 and failed = ref 0 in
  let verify (r : Checker.report) t =
    incr attempted;
    let closed = r.Checker.truncated && C.X.size t < max_configs in
    let ok =
      r.Checker.configs_explored = expected_configs
      && r.Checker.violations = [] && closed
    in
    if not ok then begin
      incr failed;
      checks :=
        Report.check "check-full output"
          false
          (Fmt.str "%d configs (expected %d), %d violations, %s"
             r.Checker.configs_explored expected_configs
             (List.length r.Checker.violations)
             (if closed then "closed under the prune" else "cut off by the cap"))
        :: !checks
    end
  in
  let summary_check () =
    Report.check "check-full output" (!failed = 0)
      (Fmt.str
         "%d/%d checks visited %d configs with 0 violations, closed under the \
          total-lap-%d prune (store below the %d cap)"
         (!attempted - !failed) !attempted expected_configs lap max_configs)
  in
  if not trace then begin
    let jobs =
      Stat.repeat_for ~seconds ~min_jobs:2 (fun _ ->
          let r, s, t, _ = job () in
          verify r t;
          r.Checker.configs_explored, s, C.X.size t)
    in
    let walls = List.map (fun (_, s, _) -> s) jobs in
    let visited, _, interned = List.hd jobs in
    let repeat = List.for_all (fun (v, _, i) -> v = visited && i = interned) jobs in
    { Report.checks =
        summary_check ()
        :: Report.check "counts repeat exactly within the run" repeat
             (Fmt.str "%d checks, each %d visited / %d interned"
                (List.length jobs) visited interned)
        :: List.rev !checks
    ; attempted = !attempted
    ; failed = !failed
    ; metrics =
        [ "setup_s", setup_s
        ; "rate_per_s", float_of_int visited /. Stat.minimum walls
        ; "wall_s", Stat.minimum walls
        ; "latency_p50_us", 1e6 *. Stat.median walls
        ]
    ; counts =
        [ "explore.visited", visited; "explore.configs.interned", interned
        ]
    ; info =
        [ "latency_samples", Obs.Json.Num (float_of_int (List.length walls))
        ; "request", Obs.Json.Str "one Checker.explore call"
        ; "inputs",
          Obs.Json.Arr
            (Array.to_list (Array.map (fun i -> Obs.Json.Num (float_of_int i)) inputs))
        ]
    }
  end
  else begin
    (* untraced reference pass, then the traced pass with Obs on and the
       GC event reader running *)
    let r0, untraced_s, t0, (minor_words, majors) = job () in
    verify r0 t0;
    let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
    let visited0 = r0.Checker.configs_explored in
    Obs.reset ();
    Obs.enable ();
    let gw = Gcwatch.start () in
    let r, traced_s, t, _ = job () in
    let gct = Gcwatch.finish gw in
    Obs.disable ();
    verify r t;
    let snap = Obs.snapshot () in
    let visited = Stat.counter snap "explore.visited" in
    let interned = Stat.counter snap "explore.configs.interned" in
    let dedup = Stat.counter snap "explore.configs.dedup_hits" in
    let hits = Stat.counter snap "explore.solo.cache_hits" in
    let misses = Stat.counter snap "explore.solo.cache_misses" in
    let solo_ns = Stat.span_ns snap "prop.eval.solo-termination" in
    let prop_ns, prop_evals =
      List.fold_left
        (fun (s, c) (name, (d : Obs.dist)) ->
          if
            String.length name > 10
            && String.sub name 0 10 = "prop.eval."
            && name <> "prop.eval.solo-termination"
          then s + d.Obs.sum, c + d.Obs.count
          else s, c)
        (0, 0) snap.Obs.spans
    in
    (* replays on the traced store *)
    let edges = R.edges_of_store t ~expand:(fun c -> not (prune c)) in
    let n_edges = edges.R.n in
    let it = R.replay ~sym:false ~por:false ~inputs edges in
    let _, _, bare_s =
      R.bare_bfs ~sym:false ~por:false ~inputs ~max_configs ~prune ()
    in
    let replay_ok =
      it.R.fresh + 1 = interned && it.R.calls - it.R.fresh = dedup
    in
    let step_s = it.R.step_s and intern_s = it.R.intern_s in
    let canon_s = 0. (* the store has symmetry off: nothing canonicalizes *) in
    let solo_s = float_of_int solo_ns *. 1e-9 in
    let prop_s = float_of_int prop_ns *. 1e-9 in
    let bfs_self_s = bare_s -. step_s -. intern_s in
    let sum = step_s +. intern_s +. canon_s +. solo_s +. prop_s +. bfs_self_s in
    let residual = (traced_s -. sum) /. traced_s in
    let tolerance = Tolerance.check_full in
    let main_gc, other_gc = Gcwatch.shares gct ~wall_s:traced_s in
    let fv = float_of_int in
    let per x d = if d = 0 then 0. else x /. fv d in
    { Report.checks =
        [ summary_check ()
        ; Report.check "replay reproduces the run's intern calls" replay_ok
            (Fmt.str "replay: %d calls, %d fresh; run: %d interned, %d dedup hits"
               it.R.calls it.R.fresh interned dedup)
        ; Report.check "traced and untraced passes agree"
            (visited = visited0 && visited0 = expected_configs)
            (Fmt.str "visited %d traced, %d untraced" visited visited0)
        ; Tolerance.residual_check ~tolerance ~residual ~sum ~wall:traced_s
        ]
        @ List.rev !checks
    ; attempted = !attempted
    ; failed = !failed
    ; metrics =
        [ "exec.step_ns", per (step_s *. 1e9) n_edges
        ; "exec.steps_per_cfg", per (fv n_edges) visited
        ; "explore.intern_ns", per (intern_s *. 1e9) it.R.calls
        ; "explore.canon_ns", 0.
        ; "explore.dedup_ratio", per (fv dedup) (dedup + interned)
        ; "explore.solo_ns", per (fv solo_ns) (hits + misses)
        ; "explore.solo_hit_ratio", per (fv hits) (hits + misses)
        ; "explore.bfs_self_ns_per_cfg", per (bfs_self_s *. 1e9) visited
        ; "explore.por_pruned", fv (Stat.counter snap "explore.por.pruned")
        ; "explore.walk_s", fv (Stat.span_ns snap "explore.walk") *. 1e-9
        ; "explore.visited", fv visited
        ; "explore.configs.interned", fv interned
        ; "explore.configs.dedup_hits", fv dedup
        ; "explore.solo.cache_misses", fv misses
        ; "explore.canon.renamed", fv (Stat.counter snap "explore.canon.renamed")
        ; "prop.eval_ns", per (fv prop_ns) prop_evals
        ; "prop.evals_per_cfg", per (fv prop_evals) visited
        ; "gc.minor_words_per_unit", minor_words /. fv visited0
        ; "gc.top_heap_words", fv top_heap
        ; "gc.resident_bytes_per_unit", fv (top_heap * (Sys.word_size / 8)) /. fv interned
        ; "gc.major_collections", fv majors
        ; "gc.time_share.main", main_gc
        ; "gc.time_share.others", other_gc
        ; "self_s.exec.step", step_s
        ; "self_s.explore.intern", intern_s
        ; "self_s.explore.canon", canon_s
        ; "self_s.explore.solo", solo_s
        ; "self_s.explore.bfs_self", bfs_self_s
        ; "self_s.prop.eval", prop_s
        ; "layers.sum_s", sum
        ; "layers.residual_share", residual
        ; "trace.wall_s", traced_s
        ; "trace.untraced_wall_s", untraced_s
        ; "trace.overhead_share", (traced_s -. untraced_s) /. untraced_s
        ]
    ; counts =
        [ "explore.visited", visited
        ; "explore.configs.interned", interned
        ; "explore.configs.dedup_hits", dedup
        ; "explore.solo.cache_misses", misses
        ; "explore.canon.renamed", Stat.counter snap "explore.canon.renamed"
        ; "explore.por.pruned", Stat.counter snap "explore.por.pruned"
        ]
    ; info =
        [ "gc_events_lost", Obs.Json.Num (fv gct.Gcwatch.lost)
        ; "edges", Obs.Json.Num (fv n_edges)
        ; "bare_bfs_s", Obs.Json.Num bare_s
        ]
    }
  end
