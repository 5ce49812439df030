(* serve-saturated: [Arena.Service.Make(swap-ksa n=4 k=1).serve] as a quiet
   closed loop with zero think time, [workers] = nproc and 8·n clients per
   worker, so every worker always has a queued round.  Inputs come from
   the benchmark's own seeded [~input].  The only workload that uses
   intake, admission, work stealing, solo drives on warm arenas and
   recycling; it explores nothing.

   Latency is measured here, at full resolution, not from the service's
   power-of-two histograms: with zero think time a client resubmits the
   moment its decision is delivered, so the interval between consecutive
   [~think] callbacks for one client is one submit-to-decision sample.
   The [~input] callback runs at admission, which splits each sample into
   queue wait (resubmission to admission) and service (admission to
   decision). *)

let n = 4
let rounds_per_session = 20_000
let probe_rounds = 5_000

let input_of ~seed ~client ~served =
  let h = (seed * 0x2545F491) + (client * 0x9E3779B1) + (served * 0x85EBCA6B) in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1B873593 in
  ((h lxor (h lsr 31)) land max_int) mod 2

let run ~seed ~seconds ~trace : Report.t =
  let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
  let module S = Arena.Service.Make (P) in
  let workers = Domain.recommended_domain_count () in
  let clients = 8 * n * workers in
  let last_think = Array.make clients 0 and last_input = Array.make clients 0 in
  let latency = Stat.Per_domain.create () in
  let queue_wait = Stat.Per_domain.create () in
  let service = Stat.Per_domain.create () in
  let timed = ref false in
  (* while timed, each worker domain records its thread id once *)
  let worker_tids = Mutex.create () and tids = ref [] in
  let tid_key =
    Domain.DLS.new_key (fun () ->
        let tid = Gcwatch.own_tid () in
        Mutex.lock worker_tids;
        tids := tid :: !tids;
        Mutex.unlock worker_tids;
        tid)
  in
  (* the first decision of a session, for its start-up latency *)
  let first = Atomic.make 0 in
  let think ~client ~served =
    let now = Int64.to_int (Stat.now ()) in
    if Atomic.get first = 0 then ignore (Atomic.compare_and_set first 0 now);
    if served >= 2 then Stat.Per_domain.add latency (now - last_think.(client));
    if !timed then begin
      ignore (Domain.DLS.get tid_key : string);
      Stat.Per_domain.add service (now - last_input.(client))
    end;
    last_think.(client) <- now;
    0
  in
  let input ~client ~served =
    if !timed then begin
      let now = Int64.to_int (Stat.now ()) in
      if served >= 1 then Stat.Per_domain.add queue_wait (now - last_think.(client));
      last_input.(client) <- now
    end;
    input_of ~seed ~client ~served
  in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  (* one session: its summary, wall, and start-up latency (the [serve]
     call to its first decision: pool spawn, arena pool, first admission) *)
  let session ~workers ~rounds =
    Atomic.set first 0;
    let t0 = Stat.now () in
    let sum, s =
      Stat.time (fun () ->
          S.serve ~clients ~rounds ~workers ~seed ~max_think:0 ~think ~input ())
    in
    let startup = float_of_int (Atomic.get first - Int64.to_int t0) *. 1e-9 in
    attempted := !attempted + sum.S.decisions;
    failed := !failed + sum.S.violation_count;
    if not (S.ok sum && sum.S.rounds_done = rounds) then begin
      incr failed;
      problems :=
        Fmt.str "session not ok: %d/%d rounds, %d violations, conservation %s"
          sum.S.rounds_done rounds sum.S.violation_count
          (match sum.S.conservation with Ok () -> "ok" | Error e -> e)
        :: !problems
    end;
    sum, s, startup
  in
  (* a single-worker probe, three times: its admission digest is a
     function of the seed alone *)
  let probes =
    List.init 3 (fun _ ->
        let p, _, _ = session ~workers:1 ~rounds:probe_rounds in
        p.S.rounds_done, p.S.decisions, p.S.digest)
  in
  ignore (session ~workers ~rounds:probe_rounds);
  ignore (Stat.Per_domain.drain latency);
  let probe_rounds_done, probe_decisions, probe_digest = List.hd probes in
  let deterministic = List.for_all (( = ) (List.hd probes)) probes in
  let counts =
    [ "arena.rounds", probe_rounds_done
    ; "arena.decisions", probe_decisions
    ; "arena.digest", probe_digest
    ]
  in
  let checks () =
    [ Report.check "serve-saturated output" (!problems = [] && !failed = 0)
        (if !problems = [] then
           Fmt.str
             "%d decisions: Service.ok (conservation, no violations, target \
              reached) in every session"
             !attempted
         else String.concat "; " (List.rev !problems))
    ; Report.check "single-worker probe repeats exactly within the run"
        deterministic
        (Fmt.str "%d probes: %d rounds, %d decisions, digest %d"
           (List.length probes) probe_rounds_done probe_decisions probe_digest)
    ]
  in
  let us x = float_of_int x /. 1e3 in
  if not trace then begin
    (* each session's own latency median; the run reports the median of
       those, so a burst of host interference moves one session, not the
       result *)
    let sessions =
      Stat.repeat_for ~seconds ~min_jobs:2 (fun _ ->
          let sum, s, startup = session ~workers ~rounds:rounds_per_session in
          let lat = Stat.Per_domain.drain latency in
          sum.S.decisions, s, Array.length lat, Stat.Samples.quantile lat 0.5, startup)
    in
    let walls = List.map (fun (_, s, _, _, _) -> s) sessions in
    let samples = List.fold_left (fun a (_, _, n, _, _) -> a + n) 0 sessions in
    let med f = Stat.median (List.map (fun x -> float_of_int (f x)) sessions) in
    { Report.checks = checks ()
    ; attempted = !attempted
    ; failed = !failed
    ; metrics =
        [ "setup_s", Stat.median (List.map (fun (_, _, _, _, u) -> u) sessions)
        ; ( "rate_per_s",
            Stat.median
              (List.map (fun (d, s, _, _, _) -> float_of_int d /. s) sessions) )
        ; "wall_s", Stat.median walls
        ; "latency_p50_us", med (fun (_, _, _, p50, _) -> p50) /. 1e3
        ]
    ; counts
    ; info =
        [ "latency_samples", Obs.Json.Num (float_of_int samples)
        ; "latency_statistic", Obs.Json.Str "median over sessions of each session's median"
        ; "request", Obs.Json.Str "one client submit-to-decision"
        ; "clients", Obs.Json.Num (float_of_int clients)
        ; "workers", Obs.Json.Num (float_of_int workers)
        ; "sessions", Obs.Json.Num (float_of_int (List.length sessions))
        ]
    }
  end
  else begin
    let g0 = Gc.quick_stat () in
    let refs = List.init 3 (fun _ -> session ~workers ~rounds:rounds_per_session) in
    let g1 = Gc.quick_stat () in
    let u, _, _ = List.hd refs in
    let untraced_s = Stat.median (List.map (fun (_, s, _) -> s) refs) in
    ignore (Stat.Per_domain.drain latency);
    Obs.reset ();
    Obs.enable ();
    timed := true;
    let gw = Gcwatch.start () in
    let sum, traced_s, _ = session ~workers ~rounds:rounds_per_session in
    let gct = Gcwatch.finish gw in
    timed := false;
    Obs.disable ();
    let snap = Obs.snapshot () in
    let counter = Stat.counter snap in
    let batch_mean =
      match List.assoc_opt "arena.batch" snap.Obs.hists with
      | Some d when d.Obs.count > 0 -> float_of_int d.Obs.sum /. float_of_int d.Obs.count
      | _ -> 0.
    in
    let qw = Stat.Per_domain.drain queue_wait in
    let sv = Stat.Per_domain.drain service in
    let lat = Stat.Per_domain.drain latency in
    (* the layers, timed on the main domain through their public calls *)
    let module R = S.R in
    let arena = R.make_arena () in
    let op0 = P.poised (P.init ~pid:0 ~input:0) in
    let reps = 1_000_000 in
    let exchange_s =
      snd (Stat.time (fun () -> for _ = 1 to reps do ignore (R.arena_apply arena op0) done))
    in
    R.reset_arena arena;
    let drive_rounds = 20_000 in
    let drive_s = ref 0. and reset_s = ref 0. in
    for r = 0 to drive_rounds - 1 do
      let states =
        Array.init n (fun pid -> P.init ~pid ~input:(input_of ~seed ~client:pid ~served:r))
      in
      let t0 = Stat.now () in
      Array.iteri
        (fun pid _ ->
          while P.decision states.(pid) = None do
            states.(pid) <- P.on_response states.(pid) (R.arena_apply arena (P.poised states.(pid)))
          done)
        states;
      let t1 = Stat.now () in
      R.reset_arena arena;
      drive_s := !drive_s +. Int64.to_float (Int64.sub t1 t0) *. 1e-9;
      reset_s := !reset_s +. Resil.Clock.elapsed_s ~since:t1
    done;
    let intake = Arena.Intake.create () in
    let batches = 20_000 in
    let intake_s =
      snd
        (Stat.time (fun () ->
             for _ = 1 to batches do
               for c = 1 to clients do Arena.Intake.push intake c done;
               ignore (Arena.Intake.drain intake)
             done))
    in
    let fv = float_of_int in
    let decisions = sum.S.decisions in
    let per_round_drive = !drive_s /. fv drive_rounds in
    let reset_each = !reset_s /. fv drive_rounds in
    let intake_each = intake_s /. fv (batches * clients) in
    (* busy time of each layer over the traced session, from the per-call
       costs above: members driven solo, arena resets, intake push and
       drain; the workers run in parallel, so a layer's share of the wall
       is its busy time over [workers] *)
    let share x = x /. fv workers in
    let drive_s = share (per_round_drive /. fv n *. fv decisions) in
    let reset_s = share (reset_each *. fv sum.S.recycles) in
    let intake_s = share (intake_each *. fv decisions) in
    (* stop-the-world minor collections stall every worker at once: the
       workers' mean GC time from the runtime's event ring *)
    let main_gc, other_gc = Gcwatch.shares gct ~wall_s:traced_s in
    let gc_s = other_gc *. traced_s in
    (* the kernel's accounting of the worker threads: time on a CPU, and
       time runnable but waiting for one (the supervising domain spins
       while it waits, so [workers] = nproc leaves the workers short of a
       core).  On-CPU time the layers above do not cover is admission,
       stealing, callbacks and idle spinning. *)
    let sched = Gcwatch.sched_of gct ~tids:!tids in
    let cpu_s = share (fv sched.Gcwatch.cpu_ns *. 1e-9) in
    let wait_s = share (fv sched.Gcwatch.wait_ns *. 1e-9) in
    let admit_s = cpu_s -. drive_s -. reset_s -. intake_s -. gc_s in
    let sum_s = drive_s +. reset_s +. intake_s +. gc_s +. admit_s +. wait_s in
    let residual = (traced_s -. sum_s) /. traced_s in
    let probe = Runtime_probe.measure ~seed in
    let tolerance = Tolerance.serve_saturated in
    let q s p = us (Stat.Samples.quantile s p) in
    { Report.checks =
        checks ()
        @ [ Report.check "traced and untraced sessions agree"
              (u.S.rounds_done = sum.S.rounds_done)
              (Fmt.str "%d rounds untraced, %d traced" u.S.rounds_done sum.S.rounds_done)
          ; Tolerance.residual_check ~tolerance ~residual ~sum:sum_s ~wall:traced_s
          ]
        @ probe.Runtime_probe.checks
    ; attempted = !attempted + probe.Runtime_probe.attempted
    ; failed = !failed + probe.Runtime_probe.failed
    ; metrics =
        [ "gc.minor_words_per_unit", (g1.Gc.minor_words -. g0.Gc.minor_words) /. fv u.S.decisions
        ; "gc.top_heap_words", fv g1.Gc.top_heap_words
        ; "gc.resident_bytes_per_unit",
          fv (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. fv clients
        ; "gc.major_collections", fv (g1.Gc.major_collections - g0.Gc.major_collections)
        ; "gc.time_share.main", main_gc
        ; "gc.time_share.others", other_gc
        ; "runtime.exchange_ns", exchange_s *. 1e9 /. fv reps
        ; "runtime.solo_drive_us", per_round_drive *. 1e6
        ; "runtime.reset_arena_ns", reset_each *. 1e9
        ; "arena.latency_us.p50", q lat 0.5
        ; "arena.latency_us.p99", q lat 0.99
        ; "arena.queue_wait_us.p50", q qw 0.5
        ; "arena.queue_wait_us.p99", q qw 0.99
        ; "arena.service_us.p50", q sv 0.5
        ; "arena.service_us.p99", q sv 0.99
        ; "arena.intake_ns", intake_each *. 1e9
        ; "arena.batch_mean", batch_mean
        ; "arena.steals_per_round", fv sum.S.steals /. fv sum.S.rounds_done
        ; "resil.backoff_spins_per_decision", fv (counter "resil.backoff.spins") /. fv decisions
        ; "arena.rounds", fv probe_rounds_done
        ; "arena.decisions", fv probe_decisions
        ; "self_s.arena.drive", drive_s
        ; "self_s.arena.reset", reset_s
        ; "self_s.arena.intake", intake_s
        ; "self_s.arena.admit", admit_s
        ; "self_s.gc.workers", gc_s
        ; "self_s.sched.wait", wait_s
        ; "layers.sum_s", sum_s
        ; "layers.residual_share", residual
        ; "trace.wall_s", traced_s
        ; "trace.untraced_wall_s", untraced_s
        ; "trace.overhead_share", (traced_s -. untraced_s) /. untraced_s
        ]
        @ probe.Runtime_probe.metrics
    ; counts
    ; info =
        [ "gc_events_lost", Obs.Json.Num (fv gct.Gcwatch.lost)
        ; "worker_threads", Obs.Json.Num (fv (List.length !tids))
        ; "latency_samples", Obs.Json.Num (fv (Array.length lat))
        ; "queue_wait_samples", Obs.Json.Num (fv (Array.length qw))
        ; "service_samples", Obs.Json.Num (fv (Array.length sv))
        ; "traced_decisions", Obs.Json.Num (fv decisions)
        ; "workers", Obs.Json.Num (fv workers)
        ; "little_law_latency_us",
          Obs.Json.Num (1e6 *. fv clients /. (fv decisions /. traced_s))
        ]
    }
  end
