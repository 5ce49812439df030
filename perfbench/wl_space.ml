(* space-cert: [Analyze.Space.run_protocol] — symmetry and POR on, the
   Theorem 10 bracket on — over every [Baselines.Registry.standard ~n:4]
   entry with its own prune: what [swapspace analyze --space --all] runs.
   Canonicalization and the Theorem 10 walks do the work; there is no solo
   oracle and no property evaluation.  Every entry keeps its default
   inputs: most explorations stop at the 20,000-config budget, and which
   region a bounded search covers depends on its inputs, so permuted
   inputs changed the work by a third between seeds.  The seed orders the
   entries instead. *)

let n = 4
let max_configs = 20_000
let search_rounds = 200

let permuted rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

type entry = {
  e : Baselines.Registry.entry;
  inputs : int array;
}

let entries_of_seed seed =
  let rng = Random.State.make [| seed; 0x5ACE |] in
  let entries =
    List.map
      (fun (e : Baselines.Registry.entry) ->
        let (module P : Shmem.Protocol.S) = e.protocol in
        { e; inputs = Array.init P.n (fun i -> i mod P.num_inputs) })
      (Baselines.Registry.standard ~n ())
  in
  Array.to_list (permuted rng (Array.of_list entries))

let certify ?(certificate = true) ?(max_configs = max_configs) x =
  Analyze.Space.run_protocol ~max_configs ~inputs:x.inputs ~prune:x.e.prune
    ~certificate x.e.protocol

let is_algorithm1 (x : entry) =
  String.length x.e.name >= 8 && String.sub x.e.name 0 8 = "swap-ksa"

(* the report's own verdict, Algorithm 1's exact n−k, and a closed
   Theorem 10 bracket wherever the adversary ran *)
let verify x (r : Analyze.Space.report) =
  let problems = ref [] in
  let fail fmt = Fmt.kstr (fun s -> problems := s :: !problems) fmt in
  if not (Analyze.Space.ok r) then fail "report not ok";
  if is_algorithm1 x && r.measured <> r.n - r.k then
    fail "Algorithm 1 measured %d, expected n-k = %d" r.measured (r.n - r.k);
  (match r.bracket with
   | Some b ->
     if
       not
         (b.theorem_bound <= b.forced && b.forced <= r.measured
        && r.measured <= r.declared)
     then
       fail "bracket open: bound %d, forced %d, measured %d, declared %d"
         b.theorem_bound b.forced r.measured r.declared
   | None -> if is_algorithm1 x then fail "no Theorem 10 bracket");
  !problems

let run ~seed ~seconds ~trace : Report.t =
  let xs = entries_of_seed seed in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  (* one certification pass: per-entry walls and reports *)
  let pass () =
    List.map
      (fun x ->
        let r, s = Stat.time (fun () -> certify x) in
        incr attempted;
        (match verify x r with
         | [] -> ()
         | ps ->
           incr failed;
           problems := List.map (fun p -> x.e.name ^ ": " ^ p) ps @ !problems);
        x, r, s)
      xs
  in
  let configs_of rs = List.fold_left (fun a (_, r, _) -> a + r.Analyze.Space.configs) 0 rs in
  let wall_of rs = List.fold_left (fun a (_, _, s) -> a +. s) 0. rs in
  (* set-up: build the registry and run every entry once at a tenth of
     the budget without the bracket *)
  let setup_once () =
    snd
      (Stat.time (fun () ->
           List.iter
             (fun x ->
               ignore (certify ~certificate:false ~max_configs:(max_configs / 10) x))
             (entries_of_seed seed)))
  in
  let setup_s = Stat.median (List.init 5 (fun _ -> setup_once ())) in
  let output_check () =
    Report.check "space-cert output" (!failed = 0)
      (if !failed = 0 then
         Fmt.str
           "%d certifications ok; Algorithm 1 measured = n-k; Theorem 10 \
            brackets closed"
           !attempted
       else String.concat "; " (List.rev !problems))
  in
  let counts_of rs =
    List.map (fun (x, r, _) -> "configs." ^ Schema.metric_safe x.e.name, r.Analyze.Space.configs) rs
  in
  if not trace then begin
    let passes = Stat.repeat_for ~seconds ~min_jobs:2 (fun _ -> pass ()) in
    let walls = List.map wall_of passes in
    let per_entry =
      Stat.sorted_floats (List.concat_map (List.map (fun (_, _, s) -> s)) passes)
    in
    let first = List.hd passes in
    let repeat = List.for_all (fun rs -> counts_of rs = counts_of first) passes in
    { Report.checks =
        [ output_check ()
        ; Report.check "counts repeat exactly within the run" repeat
            (Fmt.str "%d passes, %d configs each" (List.length passes)
               (configs_of first))
        ]
    ; attempted = !attempted
    ; failed = !failed
    ; metrics =
        [ "setup_s", setup_s
        ; "rate_per_s", float_of_int (configs_of first) /. Stat.minimum walls
        ; "wall_s", Stat.minimum walls
        ; "latency_p50_us", 1e6 *. Stat.quantile_sorted per_entry 0.5
        ]
    ; counts = counts_of first
    ; info =
        [ "latency_samples", Obs.Json.Num (float_of_int (Array.length per_entry))
        ; "request", Obs.Json.Str "one registry entry's run_protocol call"
        ; "passes", Obs.Json.Num (float_of_int (List.length passes))
        ]
    }
  end
  else begin
    let g0 = Gc.quick_stat () in
    let refs = List.init 3 (fun _ -> pass ()) in
    let g1 = Gc.quick_stat () in
    let untraced = List.hd refs in
    let untraced_s = Stat.median (List.map wall_of refs) in
    let configs = configs_of untraced in
    Obs.reset ();
    Obs.enable ();
    let gw = Gcwatch.start () in
    let traced = pass () in
    let gct = Gcwatch.finish gw in
    Obs.disable ();
    let snap = Obs.snapshot () in
    let traced_s = wall_of traced in
    let counter = Stat.counter snap in
    (* per entry: the bare reduced traversal with its edges recorded, the
       step/intern replays into a symmetry-off and a symmetry-on store,
       and the Theorem 10 adversary called directly *)
    let layer (x, (r : Analyze.Space.report), _) =
      let (module P : Shmem.Protocol.S) = x.e.protocol in
      let module X = Explore.Make (P) in
      let module R = Replay.Make (P) (X) in
      let edges, on_step = R.recorder () in
      let prune (c : X.E.config) = x.e.prune c.X.E.mem in
      let _, _, bfs_s =
        R.bare_bfs ~sym:true ~por:true ~inputs:x.inputs ~max_configs ~on_step
          ~prune ()
      in
      let off = R.replay ~sym:false ~por:true ~inputs:x.inputs edges in
      let on = R.replay ~sym:true ~por:true ~inputs:x.inputs edges in
      let t10_s =
        match r.bracket with
        | None -> 0.
        | Some _ ->
          let module T = Lowerbound.Theorem10.Make (P) in
          snd (Stat.time (fun () -> ignore (T.run ~search_rounds ~sym:true ())))
      in
      (on.R.step_s, off.R.intern_s, on.R.intern_s -. off.R.intern_s,
       bfs_s -. on.R.step_s -. on.R.intern_s, t10_s, edges.R.n)
    in
    let layers = List.map layer traced in
    let add f = List.fold_left (fun a l -> a +. f l) 0. layers in
    let step_s = add (fun (s, _, _, _, _, _) -> s) in
    let intern_s = add (fun (_, i, _, _, _, _) -> i) in
    let canon_s = add (fun (_, _, c, _, _, _) -> c) in
    let bfs_self_s = add (fun (_, _, _, b, _, _) -> b) in
    let t10_s = add (fun (_, _, _, _, t, _) -> t) in
    let edges = List.fold_left (fun a (_, _, _, _, _, e) -> a + e) 0 layers in
    let overhead_s = traced_s -. untraced_s in
    let sum = step_s +. intern_s +. canon_s +. bfs_self_s +. t10_s +. overhead_s in
    let residual = (traced_s -. sum) /. traced_s in
    let tolerance = Tolerance.space_cert in
    let interned = counter "explore.configs.interned" in
    let dedup = counter "explore.configs.dedup_hits" in
    let hits = counter "explore.solo.cache_hits" in
    let misses = counter "explore.solo.cache_misses" in
    let main_gc, other_gc = Gcwatch.shares gct ~wall_s:traced_s in
    let fv = float_of_int in
    let per x d = if d = 0 then 0. else x /. fv d in
    let same_counts = counts_of untraced = counts_of traced in
    { Report.checks =
        [ output_check ()
        ; Report.check "traced and untraced passes agree" same_counts
            (Fmt.str "%d configs untraced, %d traced" configs (configs_of traced))
        ; Tolerance.residual_check ~tolerance ~residual ~sum ~wall:traced_s
        ]
    ; attempted = !attempted
    ; failed = !failed
    ; metrics =
        [ "exec.step_ns", per (step_s *. 1e9) edges
        ; "exec.steps_per_cfg", per (fv edges) configs
        ; "explore.intern_ns", per (intern_s *. 1e9) edges
        ; "explore.canon_ns", per (canon_s *. 1e9) edges
        ; "explore.dedup_ratio", per (fv dedup) (dedup + interned)
        ; "explore.solo_ns", 0.
        ; "explore.solo_hit_ratio", per (fv hits) (hits + misses)
        ; "explore.bfs_self_ns_per_cfg", per (bfs_self_s *. 1e9) configs
        ; "explore.por_pruned", fv (counter "explore.por.pruned")
        ; "explore.walk_s", float_of_int (Stat.span_ns snap "explore.walk") *. 1e-9
        ; "explore.visited", fv (counter "explore.visited")
        ; "explore.configs.interned", fv interned
        ; "explore.configs.dedup_hits", fv dedup
        ; "explore.solo.cache_misses", fv misses
        ; "explore.canon.renamed", fv (counter "explore.canon.renamed")
        ; "lowerbound.theorem10_s", t10_s
        ; "gc.minor_words_per_unit",
          (g1.Gc.minor_words -. g0.Gc.minor_words) /. fv (3 * configs)
        ; "gc.top_heap_words", fv g1.Gc.top_heap_words
        ; "gc.resident_bytes_per_unit",
          fv (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. fv configs
        ; "gc.major_collections",
          fv (g1.Gc.major_collections - g0.Gc.major_collections) /. 3.
        ; "gc.time_share.main", main_gc
        ; "gc.time_share.others", other_gc
        ; "self_s.exec.step", step_s
        ; "self_s.explore.intern", intern_s
        ; "self_s.explore.canon", canon_s
        ; "self_s.explore.bfs_self", bfs_self_s
        ; "self_s.lowerbound.theorem10", t10_s
        ; "self_s.trace.overhead", overhead_s
        ; "layers.sum_s", sum
        ; "layers.residual_share", residual
        ; "trace.wall_s", traced_s
        ; "trace.untraced_wall_s", untraced_s
        ; "trace.overhead_share", (traced_s -. untraced_s) /. untraced_s
        ]
        @ List.map
            (fun (x, _, s) -> Schema.space_entry_metric x.e.name, s)
            traced
    ; counts =
        counts_of traced
        @ [ "explore.visited", counter "explore.visited"
          ; "explore.configs.interned", interned
          ; "explore.configs.dedup_hits", dedup
          ; "explore.solo.cache_misses", misses
          ; "explore.canon.renamed", counter "explore.canon.renamed"
          ; "explore.por.pruned", counter "explore.por.pruned"
          ]
    ; info =
        [ "gc_events_lost", Obs.Json.Num (fv gct.Gcwatch.lost)
        ; "edges", Obs.Json.Num (fv edges)
        ]
    }
  end
