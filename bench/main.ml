(* The benchmark harness: regenerates every table and figure of the
   reproduction (see DESIGN.md's experiment index and EXPERIMENTS.md for the
   paper-vs-measured record).

   The paper is a theory paper — its "evaluation" is a set of theorems — so
   each table pairs the proved bound with the quantity measured by the
   corresponding executable engine:

     T1  Theorem 10 / Corollary 11: swap objects forced by the Lemma 9
         adversary vs ⌈n/k⌉-1, vs Algorithm 1's n-k and the register
         baseline's n-k+1.
     T2  Lemma 8: measured solo-execution lengths vs the 8(n-k) bound.
     T3  Theorem 17 / Lemma 15: objects accumulated by the construction vs
         n-2 (readable binary swap).
     T4  Theorem 21 / Lemma 19: potential vs n-2, implied object count vs
         (n-2)/(3b+1).
     T5  The §1/§2 landscape: declared and touched space of every algorithm.
     T6  Contention behaviour (not in the paper): steps to decision under
         solo windows vs uniformly random scheduling.
     T7  Real multicore runs over Atomic.exchange.
     T10 Chaos campaigns (not in the paper): fault-injection throughput and
         detection counts — benign plans must produce zero violations,
         object-fault plans must be detected whenever they manifest.
     T11 Static analysis (not in the paper): every registry protocol's
         lint verdict and its measured solo maximum vs the proved bound.
     T12 Symmetry + partial-order reduction (not in the paper): reduced vs
         unreduced exploration on identical state spaces — interned-state
         collapse, wall-clock, and the Theorem 10 search with canonical
         interning.
     F1  The Lemma 15 induction chain (paper Figure 1).
     F2  The Lemma 19 induction chain (paper Figure 2).

   The tables print counts and verdicts (T2, T7, T8 and T12 abort on a
   wrong one); their time columns are reproduction output, not a gate.
   Throughput is measured, per layer and with checked outputs, by
   perfbench/ (BENCHMARK.json's check-full, space-cert and serve-saturated
   workloads), and CI gates on that.

   Usage: dune exec bench/main.exe [-- section ...] [--csv DIR] [--json FILE]
   where section ∈ {t0..t8 t10 t11 t12 f1 f2 all}; default all.  With
   [--csv DIR], every table is additionally written to DIR/<section>.csv;
   with [--json FILE], all tables of the run are written to FILE as one
   machine-readable JSON document (section id, title, header, rows, wall
   time, and — since the run was instrumented — an "obs" metrics snapshot
   per table covering the work since the section started). *)

let csv_dir = ref None
let json_path = ref None
let current_section = ref "table"
let current_title = ref ""
let section_start = ref 0L

(* every timing in the harness reads the monotonic clock *)
let time f =
  let t0 = Resil.Clock.now_ns () in
  let r = f () in
  r, Resil.Clock.elapsed_s ~since:t0

(* (section id, section title, header, rows, seconds since section start,
   metrics since section start), accumulated by [print_table] in emission
   order *)
let json_tables :
    (string * string * string list * string list list * float
    * Obs.snapshot)
    list
    ref =
  ref []

(* repackage extended protocol modules at the plain signature *)
let sksa ~n ~k ~m : (module Shmem.Protocol.S) =
  let (module P) = Core.Swap_ksa.make ~n ~k ~m in
  (module P)

let btrack ~n ~cap : (module Shmem.Protocol.S) =
  let (module B) = Baselines.Binary_track_consensus.make ~n ~cap in
  (module B)

let section_header id title =
  current_section := id;
  current_title := title;
  section_start := Resil.Clock.now_ns ();
  (* per-section metrics: each table's snapshot covers the work since its
     section header (instrumentation is only live under [--json]) *)
  if Obs.enabled () then Obs.reset ();
  Fmt.pr "@.============ %s: %s ============@." (String.uppercase_ascii id)
    title

let write_csv header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (!current_section ^ ".csv") in
    let oc = open_out path in
    let quote cell =
      if String.exists (fun c -> c = ',' || c = '"') cell then
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
      else cell
    in
    let emit row = output_string oc (String.concat "," (List.map quote row) ^ "\n") in
    emit header;
    List.iter emit rows;
    close_out oc;
    Fmt.pr "(written to %s)@." path

let hline widths =
  Fmt.pr "+%s+@."
    (String.concat "+" (List.map (fun w -> String.make w '-') widths))

let row widths cells =
  Fmt.pr "|%s|@."
    (String.concat "|"
       (List.map2
          (fun w c ->
            let pad = max 0 (w - String.length c) in
            " " ^ c ^ String.make (max 0 (pad - 1)) ' ')
          widths cells))

let print_table header rows =
  let widths =
    List.mapi
      (fun i h ->
        2
        + List.fold_left
            (fun acc r -> max acc (String.length (List.nth r i)))
            (String.length h) rows)
      header
  in
  hline widths;
  row widths header;
  hline widths;
  List.iter (row widths) rows;
  hline widths;
  write_csv header rows;
  json_tables :=
    ( !current_section
    , !current_title
    , header
    , rows
    , Resil.Clock.elapsed_s ~since:!section_start
    , if Obs.enabled () then Obs.snapshot () else Obs.empty_snapshot )
    :: !json_tables

let write_json () =
  match !json_path with
  | None -> ()
  | Some path ->
    let table_json (section, title, header, rows, wall, snap) =
      let base =
        [ "section", Obs.Json.Str section
        ; "title", Obs.Json.Str title
        ; "wall_s", Obs.Json.Num (Float.of_string (Printf.sprintf "%.3f" wall))
        ; "header", Obs.Json.Arr (List.map (fun h -> Obs.Json.Str h) header)
        ; "rows",
          Obs.Json.Arr
            (List.map
               (fun r -> Obs.Json.Arr (List.map (fun c -> Obs.Json.Str c) r))
               rows)
        ]
      in
      Obs.Json.Obj
        (if Obs.is_empty snap then base
         else base @ [ "obs", Obs.snapshot_to_json snap ])
    in
    let doc =
      Obs.Json.Obj
        [ "tables", Obs.Json.Arr (List.map table_json (List.rev !json_tables)) ]
    in
    let oc = open_out path in
    output_string oc (Obs.Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    Fmt.pr "(json written to %s)@." path

(* ------------------------------------------------------------------ T0 *)

let t0 () =
  section_header "t0" "the paper's bound landscape (closed forms)";
  let n = 16 and k = 2 and b = 2 in
  Fmt.pr "at n=%d, k=%d, b=%d:@." n k b;
  print_table [ "bound"; "value" ]
    (List.map
       (fun (d, v) -> [ d; v ])
       (Lowerbound.Bounds.summary ~n ~k ~b))

(* ------------------------------------------------------------------ T1 *)

let forced_objects ~n ~k =
  let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
  let module T = Lowerbound.Theorem10.Make (P) in
  let cert = T.run ~search_rounds:30 () in
  List.length cert.T.objects_forced

let t1 () =
  section_header "t1" "space of k-set agreement from swap (Thm 10 + Alg 1)";
  let grid =
    [ 4, 1; 8, 1; 16, 1; 32, 1; 64, 1; 8, 2; 12, 2; 9, 3; 16, 4; 20, 5 ]
  in
  let rows =
    List.map
      (fun (n, k) ->
        let bound = Lowerbound.Bounds.ksa_swap_lb ~n ~k in
        let forced = forced_objects ~n ~k in
        [ string_of_int n
        ; string_of_int k
        ; string_of_int bound
        ; string_of_int forced
        ; string_of_int (n - k)
        ; string_of_int (n - k + 1)
        ])
      grid
  in
  print_table
    [ "n"
    ; "k"
    ; "lower bound ⌈n/k⌉-1"
    ; "forced (Lemma 9)"
    ; "Alg 1 (swap)"
    ; "registers [15]"
    ]
    rows;
  Fmt.pr
    "for k=1 the adversary forces exactly n-1 objects, matching Algorithm \
     1's usage.@."

(* ------------------------------------------------------------------ T2 *)

let t2 () =
  section_header "t2" "solo-termination step bound (Lemma 8)";
  let measure ~n ~k =
    let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
    let module E = Shmem.Exec.Make (P) in
    let rng = Random.State.make [| 99; n; k |] in
    let worst = ref 0 in
    (* probe solo runs from initial configurations and from configurations
       reached by adversarial prefixes of various lengths *)
    for _ = 1 to 20 do
      let inputs = Array.init n (fun _ -> Random.State.int rng (k + 1)) in
      let c0 = E.initial ~inputs in
      (* keep the adversarial prefix short enough that undecided
         processes remain to probe *)
      let prefix_len = Random.State.int rng (4 * n) in
      let c, _, _ =
        E.run ~sched:(E.random rng) ~max_steps:prefix_len c0
      in
      List.iter
        (fun pid ->
          match E.run_solo ~pid ~max_steps:(8 * (n - k)) c with
          | Some (_, tr) -> worst := max !worst (Shmem.Trace.length tr)
          | None -> failwith "Lemma 8 violated!")
        (E.undecided c)
    done;
    !worst
  in
  let rows =
    List.map
      (fun (n, k) ->
        let w = measure ~n ~k in
        [ string_of_int n
        ; string_of_int k
        ; string_of_int w
        ; string_of_int (8 * (n - k))
        ])
      [ 2, 1; 4, 1; 8, 1; 16, 1; 6, 2; 9, 3; 12, 4 ]
  in
  print_table [ "n"; "k"; "max solo steps observed"; "8(n-k) bound" ] rows

(* ------------------------------------------------------------------ T3 *)

let t3 () =
  section_header "t3"
    "readable binary swap lower bound (Thm 17 via Lemma 15)";
  let rows =
    List.map
      (fun n ->
        let (module B) = Baselines.Binary_track_consensus.make ~n ~cap:8 in
        let module L = Lowerbound.Binary_lb.Make (B) in
        let r, dt = time L.run in
        [ string_of_int n
        ; string_of_int r.L.distinct_objects
        ; string_of_int r.L.bound
        ; string_of_int (List.length r.L.x)
        ; string_of_int (List.length r.L.y)
        ; Fmt.str "%.1fs" dt
        ])
      [ 3; 4; 5; 6; 7; 8 ]
  in
  print_table
    [ "n"; "distinct objects"; "bound n-2"; "|X|"; "|Y|"; "time" ]
    rows;
  Fmt.pr
    "the construction certifies that the protocol cannot be rewritten to \
     use fewer than n-2 readable binary swap objects.@."

(* ------------------------------------------------------------------ T4 *)

let t4 () =
  section_header "t4" "bounded-domain lower bound (Thm 21 via Lemma 19)";
  let rows =
    List.map
      (fun n ->
        let (module B) = Baselines.Binary_track_consensus.make ~n ~cap:8 in
        let module L = Lowerbound.Bounded_lb.Make (B) in
        let r = L.run () in
        let b = r.L.domain_size in
        [ string_of_int n
        ; string_of_int b
        ; string_of_int r.L.potential
        ; string_of_int (n - 2)
        ; string_of_int r.L.implied_objects
        ; Fmt.str "%.2f" (float_of_int (n - 2) /. float_of_int ((3 * b) + 1))
        ])
      [ 3; 4; 5; 6 ]
  in
  print_table
    [ "n"
    ; "b"
    ; "potential Σ(2|f|+|g|)+|S|"
    ; "bound n-2"
    ; "implied objects"
    ; "(n-2)/(3b+1)"
    ]
    rows

(* ------------------------------------------------------------------ T5 *)

let touched protocol =
  let (module P : Shmem.Protocol.S) = protocol in
  let module E = Shmem.Exec.Make (P) in
  let rng = Random.State.make [| 5; P.n |] in
  let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
  let c0 = E.initial ~inputs in
  let _, trace, _ =
    E.run
      ~sched:(E.bursty rng ~burst:(64 * Array.length P.objects))
      ~max_steps:200_000 c0
  in
  List.length (Shmem.Trace.objects_accessed trace)

let t5 () =
  section_header "t5" "space landscape of all implemented algorithms";
  let n = 8 in
  let entries =
    [ sksa ~n ~k:1 ~m:2, "swap-ksa k=1 (Alg 1)", "n-1 (optimal, Thm 10)"
    ; sksa ~n ~k:2 ~m:3, "swap-ksa k=2 (Alg 1)", "n-k; LB ⌈n/k⌉-1"
    ; Baselines.Register_ksa.make ~n ~k:1 ~m:2, "register-ksa k=1 [15]",
      "n-k+1; LB n [10]"
    ; Baselines.Readable_swap_consensus.make ~n ~m:2,
      "readable-swap consensus [16]", "n-1"
    ; btrack ~n ~cap:16, "binary-track consensus [17]",
      "2n-1 binary objs (unary here)"
    ; Baselines.Bitwise_consensus.make ~n ~m:4 ~cap:16,
      "bitwise multivalued [16]", "O(n log m) binary objects"
    ; Core.Two_proc_swap.make ~m:2, "2-proc swap consensus", "1 (wait-free)"
    ; Core.Pair_ksa.make ~n ~m:2, "(n-1)-set agreement", "1 (wait-free)"
    ; Baselines.Cas_consensus.make ~n ~m:2, "CAS consensus [7]",
      "1 (CAS not historyless)"
    ]
  in
  let rows =
    List.map
      (fun (p, name, stated) ->
        let (module P : Shmem.Protocol.S) = p in
        [ name
        ; string_of_int (Array.length P.objects)
        ; string_of_int (touched p)
        ; stated
        ])
      entries
  in
  print_table
    [ Fmt.str "algorithm (n=%d)" n
    ; "objects declared"
    ; "objects touched"
    ; "stated bound"
    ]
    rows

(* ------------------------------------------------------------------ T6 *)

let t6 () =
  section_header "t6"
    "contention: steps to decision, solo windows vs uniform scheduling";
  let runs = 10 in
  let measure protocol ~burst =
    let (module P : Shmem.Protocol.S) = protocol in
    let module E = Shmem.Exec.Make (P) in
    let rng = Random.State.make [| 17; burst |] in
    let total = ref 0 and decided = ref 0 in
    for _ = 1 to runs do
      let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
      let sched =
        if burst <= 1 then E.random rng else E.bursty rng ~burst
      in
      let _, trace, outcome =
        E.run ~sched ~max_steps:100_000 (E.initial ~inputs)
      in
      if outcome = E.All_decided then begin
        incr decided;
        total := !total + Shmem.Trace.length trace
      end
    done;
    if !decided = 0 then "never (>100k)"
    else if !decided < runs then
      Fmt.str "%d/%d decide" !decided runs
    else Fmt.str "%d" (!total / runs)
  in
  let rows =
    List.concat_map
      (fun n ->
        let swap = sksa ~n ~k:1 ~m:2 in
        let reg = Baselines.Register_ksa.make ~n ~k:1 ~m:2 in
        let burst = 2 * 8 * (n - 1) in
        [ [ string_of_int n
          ; "swap-ksa"
          ; measure swap ~burst
          ; measure swap ~burst:1
          ]
        ; [ string_of_int n
          ; "register-ksa"
          ; measure reg ~burst
          ; measure reg ~burst:1
          ]
        ])
      [ 2; 4; 6; 8 ]
  in
  print_table
    [ "n"
    ; "algorithm"
    ; "mean steps (bursty sched)"
    ; "steps (uniform sched)"
    ]
    rows;
  Fmt.pr
    "obstruction-freedom in action: with solo windows decisions are quick; \
     under a uniformly random scheduler they may never come.@."

(* ------------------------------------------------------------------ T7 *)

let t7 () =
  section_header "t7"
    "cross-backend: simulator steps vs real multicore (generic runtime)";
  (* one protocol definition, two backends: every multicore_runnable entry
     of the registry grid runs (a) on the simulator under its bursty solo
     window and (b) on real domains via Runtime.Make, from the same
     Protocol.S module *)
  let n = 4 in
  let runs = 5 in
  let rows =
    List.map
      (fun (e : Baselines.Registry.entry) ->
        let (module P : Shmem.Protocol.S) = e.Baselines.Registry.protocol in
        let module E = Shmem.Exec.Make (P) in
        let rng = Random.State.make [| 7 |] in
        let sim_steps = ref 0 in
        for _ = 1 to runs do
          let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
          let _, trace, outcome =
            E.run
              ~sched:(E.bursty rng ~burst:e.Baselines.Registry.burst)
              ~max_steps:400_000 (E.initial ~inputs)
          in
          assert (outcome = E.All_decided);
          sim_steps := !sim_steps + Shmem.Trace.length trace
        done;
        let mc =
          if not e.Baselines.Registry.multicore_runnable then
            [ "-"; "-"; "-" ]
          else begin
            let module R = Runtime.Make (P) in
            let elapsed = ref 0. and ops = ref 0 in
            for seed = 1 to runs do
              let inputs = Array.init P.n (fun i -> i mod P.num_inputs) in
              let o = R.run ~inputs ~seed () in
              (match R.check ~inputs o with
              | Ok () -> ()
              | Error err ->
                failwith (e.Baselines.Registry.name ^ ": " ^ err));
              elapsed := !elapsed +. o.R.elapsed;
              ops := !ops + Array.fold_left ( + ) 0 o.R.ops
            done;
            let mean_elapsed = !elapsed /. float_of_int runs in
            let mean_ops = float_of_int !ops /. float_of_int runs in
            [ Fmt.str "%.4f" mean_elapsed
            ; Fmt.str "%.0f" mean_ops
            ; Fmt.str "%.0f" (mean_ops /. mean_elapsed)
            ]
          end
        in
        [ e.Baselines.Registry.name
          ; string_of_int (Array.length P.objects)
          ; string_of_int (!sim_steps / runs)
        ]
        @ mc)
      (Baselines.Registry.standard ~n ())
  in
  print_table
    [ Fmt.str "algorithm (n=%d)" n
    ; "objects"
    ; "sim steps (bursty)"
    ; "mc elapsed (s)"
    ; "mc ops/run"
    ; "mc ops/s"
    ]
    rows;
  Fmt.pr
    "'-' = not multicore_runnable (cap-bounded unary tracks may livelock \
     at the cap under real concurrency).@.";
  (* the hand-optimized Algorithm 1 against the generic runtime on the same
     protocol: the price of interpreting Protocol.S over atomic cells *)
  let hand_rows =
    List.map
      (fun (n, k) ->
        let hand_elapsed = ref 0. and hand_swaps = ref 0 in
        let gen_elapsed = ref 0. and gen_ops = ref 0 in
        for seed = 1 to runs do
          let inputs = Array.init n (fun i -> i mod (k + 1)) in
          let o = Multicore.Swap_ksa_mc.run ~n ~k ~m:(k + 1) ~inputs ~seed () in
          (match Multicore.Swap_ksa_mc.check ~inputs ~k o with
          | Ok () -> ()
          | Error e -> failwith e);
          hand_elapsed := !hand_elapsed +. o.Multicore.Swap_ksa_mc.elapsed;
          hand_swaps :=
            !hand_swaps
            + Array.fold_left ( + ) 0 o.Multicore.Swap_ksa_mc.swaps;
          let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
          let module R = Runtime.Make (P) in
          let g = R.run ~inputs ~seed () in
          (match R.check ~inputs g with
          | Ok () -> ()
          | Error e -> failwith e);
          gen_elapsed := !gen_elapsed +. g.R.elapsed;
          gen_ops := !gen_ops + Array.fold_left ( + ) 0 g.R.ops
        done;
        [ string_of_int n
        ; string_of_int k
        ; Fmt.str "%.4f" (!hand_elapsed /. float_of_int runs)
        ; string_of_int (!hand_swaps / runs)
        ; Fmt.str "%.4f" (!gen_elapsed /. float_of_int runs)
        ; string_of_int (!gen_ops / runs)
        ])
      [ 2, 1; 4, 1; 8, 1; 8, 2 ]
  in
  Fmt.pr "hand-optimized Algorithm 1 vs the generic runtime:@.";
  print_table
    [ "n"
    ; "k"
    ; "hand elapsed (s)"
    ; "hand swaps/run"
    ; "generic elapsed (s)"
    ; "generic ops/run"
    ]
    hand_rows

(* ------------------------------------------------------------------ T8 *)

let t8 () =
  section_header "t8" "ablations of Algorithm 1's design choices";
  let variant ~lead ~merge : (module Shmem.Protocol.S) * string =
    let (module P) = Core.Swap_ksa.make_ablation ~n:2 ~k:1 ~m:2 ~lead ~merge () in
    ( (module P),
      if merge then Fmt.str "lead=%d" lead else Fmt.str "lead=%d, no merge" lead )
  in
  let verdict protocol =
    let (module P : Shmem.Protocol.S) = protocol in
    let module C = Checker.Make (P) in
    let prune (c : C.E.config) = Baselines.Registry.lap_prune 4 c.C.E.mem in
    let r = C.explore_all_inputs ~prune ~max_configs:300_000 () in
    if Checker.ok r then "safe (checked)"
    else
      match r.Checker.violations with
      | v :: _ -> Fmt.str "UNSAFE: %s" v.Checker.property
      | [] -> assert false
  in
  let steps ~lead ~merge =
    (* mean steps to decision for a safe variant at n=6 under solo windows *)
    let (module P) = Core.Swap_ksa.make_ablation ~n:6 ~k:1 ~m:2 ~lead ~merge () in
    let module E = Shmem.Exec.Make (P) in
    let rng = Random.State.make [| 23; lead |] in
    let total = ref 0 in
    let runs = 10 in
    for _ = 1 to runs do
      let inputs = Array.init 6 (fun i -> i mod 2) in
      let _, trace, outcome =
        E.run ~sched:(E.bursty rng ~burst:100) ~max_steps:200_000
          (E.initial ~inputs)
      in
      assert (outcome = E.All_decided);
      total := !total + Shmem.Trace.length trace
    done;
    string_of_int (!total / runs)
  in
  let rows =
    List.map
      (fun (lead, merge) ->
        let p, name = variant ~lead ~merge in
        let v = verdict p in
        let mean =
          if String.length v >= 4 && String.sub v 0 4 = "safe" then
            steps ~lead ~merge
          else "-"
        in
        [ name; v; mean ])
      [ 1, true; 2, true; 3, true; 4, true; 2, false ]
  in
  print_table
    [ "variant"; "exhaustive check (n=2)"; "mean steps n=6 (bursty)" ]
    rows;
  Fmt.pr
    "the paper's choices (lead 2, merging) are the cheapest safe point: a \
     1-lap lead breaks agreement, as does dropping the merge of lines \
     11-12.@."

(* ----------------------------------------------------------------- T10 *)

let t10 () =
  section_header "t10"
    "chaos campaigns: fault-injection throughput and detection counts";
  let sim_row name (module P : Shmem.Protocol.S) kinds_label kinds runs =
    let module F = Fault.Sim (P) in
    let s, t = time (fun () -> F.campaign ~seed:42 ~runs ~kinds ()) in
    [ name
    ; "sim"
    ; kinds_label
    ; string_of_int runs
    ; string_of_int s.F.steps
    ; Fmt.str "%.0f" (float_of_int s.F.steps /. t)
    ; string_of_int s.F.fired
    ; string_of_int (List.length s.F.detections)
    ; string_of_int (List.length s.F.violations)
    ; string_of_int s.F.missed
    ]
  in
  let mc_row name (module P : Shmem.Protocol.S) runs =
    let module MC = Fault.Mc (P) in
    let s, t =
      time (fun () ->
          MC.campaign ~seed:42 ~runs ~kinds:Fault.benign_kinds ())
    in
    [ name
    ; "multicore"
    ; "benign"
    ; string_of_int runs
    ; string_of_int s.MC.total_ops
    ; Fmt.str "%.0f" (float_of_int s.MC.total_ops /. t)
    ; "-"
    ; "-"
    ; string_of_int (List.length s.MC.violations)
    ; "-"
    ]
  in
  let rows =
    [ sim_row "swap-ksa" (sksa ~n:4 ~k:1 ~m:2) "benign" Fault.benign_kinds 60
    ; sim_row "swap-ksa" (sksa ~n:4 ~k:1 ~m:2) "all" Fault.all_kinds 60
    ; sim_row "swap-ksa" (sksa ~n:6 ~k:2 ~m:3) "all" Fault.all_kinds 30
    ; sim_row "register-ksa"
        (Baselines.Register_ksa.make ~n:4 ~k:1 ~m:2)
        "all" Fault.all_kinds 30
    ; sim_row "cas" (Baselines.Cas_consensus.make ~n:4 ~m:2) "all"
        Fault.all_kinds 30
    ; mc_row "swap-ksa" (sksa ~n:4 ~k:1 ~m:2) 10
    ]
  in
  print_table
    [ "algo"
    ; "backend"
    ; "kinds"
    ; "runs"
    ; "steps/ops"
    ; "per sec"
    ; "fired"
    ; "detected"
    ; "violations"
    ; "missed"
    ]
    rows;
  Fmt.pr
    "violations and missed must be 0: benign faults (crash/stall) are \
     tolerated by obstruction-freedom, and every manifested object fault \
     (torn/lost/stale) is caught by the sequential-replay atomicity check \
     and shrunk to a locally-minimal schedule.@."

let t11 () =
  section_header "t11"
    "static analysis: lint throughput and measured solo maxima vs proved \
     bounds";
  let rows =
    List.map
      (fun (e : Baselines.Registry.entry) ->
        let r, t =
          time (fun () ->
              Analyze.run_protocol ~max_configs:5_000
                ?solo_bound:e.solo_bound ~prune:e.prune e.protocol)
        in
        [ e.name
        ; (if Analyze.ok r then "ok" else "FAIL")
        ; string_of_int r.Analyze.configs
        ; (if r.Analyze.exhaustive then "yes" else "no")
        ; Fmt.str "%b/%b" r.Analyze.declared_historyless
            r.Analyze.derived_historyless
        ; string_of_int r.Analyze.solo_measured_max
        ; (match r.Analyze.solo_bound with
          | Some b -> string_of_int b
          | None -> "-")
        ; Fmt.str "%.0f" (float_of_int r.Analyze.configs /. t)
        ])
      (Baselines.Registry.standard ())
  in
  print_table
    [ "algo"
    ; "verdict"
    ; "configs"
    ; "exhaustive"
    ; "historyless d/d"
    ; "solo max"
    ; "8(n-k)"
    ; "configs/sec"
    ]
    rows;
  Fmt.pr
    "every verdict must be ok; where a closed-form solo bound is declared \
     (Algorithm 1, Lemma 8) the measured maximum stays within it.@."

(* ----------------------------------------------------------------- T12 *)

(* Reduced vs unreduced exploration: the symmetry (canonical-orbit
   interning) and partial-order reductions of lib/explore, measured on
   identical state spaces.  The check rows bound the total lap progress
   (Registry.total_lap_prune) so every non-"-" run closes its graph inside
   the budget; the ratio column
   is the interned-state collapse the canonicalization buys.  Larger n run
   reduced-only — their unreduced spaces no longer fit the budget, which is
   the point of the reduction.  The Theorem 10 rows time the §5 induction's
   random search with and without canonical interning of the walk store
   (the certificate is identical either way). *)
let t12 () =
  section_header "t12"
    "symmetry + POR: reduced vs unreduced exploration (Swap_ksa)";
  let max_configs = 3_000_000 in
  let check_rows =
    List.map
      (fun (n, lap, unreduced_too) ->
        let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
        let module C = Checker.Make (P) in
        let prune (c : C.E.config) =
          Baselines.Registry.total_lap_prune lap c.C.E.mem
        in
        let inputs = Array.init n (fun i -> i mod 2) in
        let red, red_t =
          time (fun () ->
              C.explore ~max_configs ~prune ~sym:true ~por:true ~inputs ())
        in
        assert (Checker.ok red);
        assert (red.Checker.configs_explored < max_configs);
        let full_cell, ratio_cell, speedup_cell =
          if not unreduced_too then "-", "-", "-"
          else begin
            let full, full_t =
              time (fun () -> C.explore ~max_configs ~prune ~inputs ())
            in
            assert (Checker.ok full);
            assert (full.Checker.configs_explored < max_configs);
            ( string_of_int full.Checker.configs_explored
            , Fmt.str "%.1fx"
                (float_of_int full.Checker.configs_explored
                /. float_of_int red.Checker.configs_explored)
            , Fmt.str "%.1fx" (full_t /. red_t) )
          end
        in
        [ string_of_int n
        ; string_of_int lap
        ; string_of_int red.Checker.configs_explored
        ; Fmt.str "%.2f" red_t
        ; full_cell
        ; ratio_cell
        ; speedup_cell
        ])
      [ 5, 3, true; 6, 2, true; 7, 2, true; 8, 2, false; 9, 1, false ]
  in
  print_table
    [ "n"
    ; "lap budget"
    ; "reduced configs"
    ; "reduced wall (s)"
    ; "unreduced configs"
    ; "state collapse"
    ; "wall speedup"
    ]
    check_rows;
  let t10_rows =
    List.map
      (fun (n, k) ->
        let (module P) = Core.Swap_ksa.make ~n ~k ~m:(k + 1) in
        let module T = Lowerbound.Theorem10.Make (P) in
        let cert_r, red_t = time (fun () -> T.run ~search_rounds:30 ~sym:true ()) in
        let cert_f, full_t = time (fun () -> T.run ~search_rounds:30 ()) in
        (* canonical interning must not change the certificate *)
        assert (cert_r.T.objects_forced = cert_f.T.objects_forced);
        [ string_of_int n
        ; string_of_int k
        ; string_of_int (List.length cert_r.T.objects_forced)
        ; Fmt.str "%.2f" red_t
        ; Fmt.str "%.2f" full_t
        ])
      [ 8, 2; 9, 3 ]
  in
  print_table
    [ "n"; "k"; "objects forced"; "T10 sym wall (s)"; "T10 plain wall (s)" ]
    t10_rows;
  Fmt.pr
    "identical verdicts and certificates; the collapse column is bounded \
     by the input-vector stabilizer (%s at n=7) and must stay >= 10x \
     there.@."
    "4!*3! = 144"

(* ------------------------------------------------------------- figures *)

let f1 () =
  section_header "f1" "Lemma 15 construction chain (paper Figure 1)";
  (* n = 8: large enough that the construction exercises both cases of the
     induction (a covered object enters Y) *)
  let (module B) = Baselines.Binary_track_consensus.make ~n:8 ~cap:8 in
  let module L = Lowerbound.Binary_lb.Make (B) in
  let r = L.run () in
  Fmt.pr "%a@.@.%a@." L.pp_result r L.pp_figure r

let f2 () =
  section_header "f2" "Lemma 19 construction chain (paper Figure 2)";
  let (module B) = Baselines.Binary_track_consensus.make ~n:4 ~cap:8 in
  let module L = Lowerbound.Bounded_lb.Make (B) in
  let r = L.run () in
  Fmt.pr "%a@.@.%a@." L.pp_result r L.pp_figure r

(* --------------------------------------------------------------- main *)

let sections =
  [ "t0", t0; "t1", t1; "t2", t2; "t3", t3; "t4", t4; "t5", t5; "t6", t6
  ; "t7", t7; "t8", t8; "t10", t10; "t11", t11; "t12", t12; "f1", f1
  ; "f2", f2 ]

let () =
  (* accept "--csv DIR", "--csv=DIR", "--json FILE" and "--json=FILE" *)
  let rec strip = function
    | "--csv" :: dir :: rest ->
      csv_dir := Some dir;
      strip rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      strip rest
    | a :: rest -> (
      match String.index_opt a '=' with
      | Some i when String.sub a 0 i = "--csv" ->
        csv_dir := Some (String.sub a (i + 1) (String.length a - i - 1));
        strip rest
      | Some i when String.sub a 0 i = "--json" ->
        json_path := Some (String.sub a (i + 1) (String.length a - i - 1));
        strip rest
      | _ -> a :: strip rest)
    | [] -> []
  in
  let args = strip (List.tl (Array.to_list Sys.argv)) in
  (* instrument only recorded runs: [--json] documents carry obs snapshots,
     while plain (human-readable) runs keep the disabled fast path *)
  if !json_path <> None then Obs.enable ();
  let requested =
    match args with
    | _ :: _ when not (List.mem "all" args) -> args
    | _ -> List.map fst sections
  in
  List.iter
    (fun id ->
      match List.assoc_opt id sections with
      | Some f -> f ()
      | None ->
        Fmt.epr "unknown section %s (available: %s)@." id
          (String.concat " " (List.map fst sections));
        exit 1)
    requested;
  write_json ();
  Fmt.pr "@.done.@."
