(* The benchmark's metric names and units — the single list BENCHMARK.json
   mirrors.  Every workload prints every end-to-end metric in an untraced
   run and every per-layer metric in a traced run; a layer a workload does
   not exercise reports 0 (it did no work there). *)

let end_to_end =
  [ "setup_s", "s"
  ; "rate_per_s", "1/s"
  ; "wall_s", "s"
  ; "latency_p50_us", "us"
  ]

(* [Analyze.Space] entry names of [Baselines.Registry.standard ~n:4],
   made safe for metric names *)
let metric_safe name =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> ch
      | _ -> '_')
    name

let space_entry_metric name = "analyze.space.entry_s." ^ metric_safe name

let space_entries () =
  List.map
    (fun (e : Baselines.Registry.entry) -> space_entry_metric e.name)
    (Baselines.Registry.standard ~n:4 ())

(* layers whose self times are added up against the traced wall; on the
   workloads whose layers are all timed untraced, the tracing overhead
   (traced minus untraced wall) is a layer of its own *)
let self_layers =
  [ "exec.step"
  ; "explore.intern"
  ; "explore.canon"
  ; "explore.solo"
  ; "explore.bfs_self"
  ; "prop.eval"
  ; "lowerbound.theorem10"
  ; "arena.intake"
  ; "arena.drive"
  ; "arena.reset"
  ; "arena.admit"
  ; "gc.workers"
  ; "sched.wait"
  ; "trace.overhead"
  ]

let per_layer () =
  [ "exec.step_ns", "ns"
  ; "exec.steps_per_cfg", "count"
  ; "explore.intern_ns", "ns"
  ; "explore.canon_ns", "ns"
  ; "explore.dedup_ratio", "ratio"
  ; "explore.solo_ns", "ns"
  ; "explore.solo_hit_ratio", "ratio"
  ; "explore.bfs_self_ns_per_cfg", "ns"
  ; "explore.por_pruned", "count"
  ; "explore.walk_s", "s"
  ; "explore.visited", "count"
  ; "explore.configs.interned", "count"
  ; "explore.configs.dedup_hits", "count"
  ; "explore.solo.cache_misses", "count"
  ; "explore.canon.renamed", "count"
  ; "prop.eval_ns", "ns"
  ; "prop.evals_per_cfg", "count"
  ]
  @ List.map (fun m -> m, "s") (space_entries ())
  @ [ "lowerbound.theorem10_s", "s"
    ; "gc.minor_words_per_unit", "words"
    ; "gc.top_heap_words", "words"
    ; "gc.resident_bytes_per_unit", "bytes"
    ; "gc.major_collections", "count"
    ; "gc.time_share.main", "ratio"
    ; "gc.time_share.others", "ratio"
    ; "runtime.exchange_ns", "ns"
    ; "runtime.solo_drive_us", "us"
    ; "runtime.reset_arena_ns", "ns"
    ; "runtime.spawn_join_us", "us"
    ; "runtime.run_us", "us"
    ; "runtime.ops_per_instance", "count"
    ; "runtime.backoffs_per_instance", "count"
    ; "multicore.hand_run_us", "us"
    ; "arena.latency_us.p50", "us"
    ; "arena.latency_us.p99", "us"
    ; "arena.queue_wait_us.p50", "us"
    ; "arena.queue_wait_us.p99", "us"
    ; "arena.service_us.p50", "us"
    ; "arena.service_us.p99", "us"
    ; "arena.intake_ns", "ns"
    ; "arena.batch_mean", "count"
    ; "arena.steals_per_round", "count"
    ; "resil.backoff_spins_per_decision", "count"
    ; "arena.rounds", "count"
    ; "arena.decisions", "count"
    ]
  @ List.map (fun l -> "self_s." ^ l, "s") self_layers
  @ [ "layers.sum_s", "s"
    ; "layers.residual_share", "ratio"
    ; "trace.wall_s", "s"
    ; "trace.untraced_wall_s", "s"
    ; "trace.overhead_share", "ratio"
    ]
