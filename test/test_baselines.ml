(* Tests for the baseline algorithms: register k-set agreement (BRS-style),
   readable-swap consensus (EGSZ-style), binary-track consensus and CAS
   consensus.  Small instances are checked exhaustively (with lap caps where
   counters are unbounded); larger ones with randomized schedules. *)

let test_register_object_count () =
  List.iter
    (fun (n, k) ->
      let (module P) = Baselines.Register_ksa.make ~n ~k ~m:(k + 1) in
      Alcotest.(check int)
        (Fmt.str "n=%d k=%d uses n-k+1 registers" n k)
        (n - k + 1)
        (Array.length P.objects))
    [ 2, 1; 5, 1; 5, 2; 8, 4 ]

let test_register_exhaustive_n2 () =
  let (module P) = Baselines.Register_ksa.make ~n:2 ~k:1 ~m:2 in
  let module C = Checker.Make (P) in
  let prune (c : C.E.config) = Baselines.Registry.lap_prune 3 c.C.E.mem in
  Util.check_ok "register-ksa n=2"
    (C.explore_all_inputs ~prune ~max_configs:400_000 ())

let test_register_exhaustive_n3_k2 () =
  let (module P) = Baselines.Register_ksa.make ~n:3 ~k:2 ~m:3 in
  let module C = Checker.Make (P) in
  let prune (c : C.E.config) = Baselines.Registry.lap_prune 3 c.C.E.mem in
  Util.check_ok "register-ksa n=3 k=2 inputs 012"
    (C.explore ~prune ~max_configs:400_000 ~check_solo:false
       ~inputs:[| 0; 1; 2 |] ())

let test_register_random () =
  let (module P) = Baselines.Register_ksa.make ~n:5 ~k:2 ~m:3 in
  let module C = Checker.Make (P) in
  Util.check_ok "register-ksa n=5 k=2 random"
    (C.random_runs ~runs:10 ~max_steps:30_000 ~solo_check_every:1_000 ())

let test_readable_swap_object_count () =
  List.iter
    (fun n ->
      let (module P) = Baselines.Readable_swap_consensus.make ~n ~m:2 in
      Alcotest.(check int)
        (Fmt.str "n=%d uses n-1 objects" n)
        (n - 1) (Array.length P.objects))
    [ 2; 5; 9 ]

let test_readable_swap_exhaustive_n2 () =
  let (module P) = Baselines.Readable_swap_consensus.make ~n:2 ~m:2 in
  let module C = Checker.Make (P) in
  let prune (c : C.E.config) = Baselines.Registry.lap_prune 4 c.C.E.mem in
  Util.check_ok "readable-swap n=2"
    (C.explore_all_inputs ~prune ~max_configs:200_000 ())

let test_readable_swap_random () =
  let (module P) = Baselines.Readable_swap_consensus.make ~n:6 ~m:4 in
  let module C = Checker.Make (P) in
  Util.check_ok "readable-swap n=6 random"
    (C.random_runs ~runs:10 ~max_steps:30_000 ~solo_check_every:1_000 ())

let test_binary_track_exhaustive_n2 () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:2 ~cap:8 in
  let module C = Checker.Make (B) in
  let prune (c : C.E.config) = B.near_cap ~margin:3 c.C.E.mem in
  Util.check_ok "binary-track n=2"
    (C.explore_all_inputs ~prune ~max_configs:200_000 ())

let test_binary_track_exhaustive_n3 () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:3 ~cap:7 in
  let module C = Checker.Make (B) in
  let prune (c : C.E.config) = B.near_cap ~margin:3 c.C.E.mem in
  Util.check_ok "binary-track n=3 inputs 010"
    (C.explore ~prune ~max_configs:300_000 ~inputs:[| 0; 1; 0 |] ())

let test_binary_track_random () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:5 ~cap:64 in
  let module C = Checker.Make (B) in
  Util.check_ok "binary-track n=5 random"
    (C.random_runs ~runs:10 ~max_steps:20_000 ())

let test_binary_track_positions () =
  let (module B) = Baselines.Binary_track_consensus.make ~n:2 ~cap:4 in
  let module E = Shmem.Exec.Make (B) in
  let c = E.initial ~inputs:[| 0; 1 |] in
  Alcotest.(check (pair int int)) "initially 0,0" (0, 0)
    (B.positions c.E.mem);
  (* p0 solo: decides 0 after advancing its track twice *)
  (match E.run_solo ~pid:0 ~max_steps:100 c with
  | None -> Alcotest.fail "solo run stuck"
  | Some (c', _) ->
    Alcotest.(check (option int)) "p0 decided 0" (Some 0) (E.decision c' 0);
    let p0, p1 = B.positions c'.E.mem in
    Alcotest.(check (pair int int)) "track 0 two ahead" (2, 0) (p0, p1))

let test_eager_track_exhaustive_n2 () =
  let (module B) = Baselines.Binary_track_consensus.make_eager ~n:2 ~cap:8 in
  let module C = Checker.Make (B) in
  let prune (c : C.E.config) = B.near_cap ~margin:3 c.C.E.mem in
  Util.check_ok "eager-track n=2"
    (C.explore_all_inputs ~prune ~max_configs:300_000 ())

let test_eager_track_random () =
  let (module B) = Baselines.Binary_track_consensus.make_eager ~n:5 ~cap:64 in
  let module C = Checker.Make (B) in
  Util.check_ok "eager-track n=5 random"
    (C.random_runs ~runs:10 ~max_steps:20_000 ())

let test_tas_track_exhaustive_n2 () =
  let (module B) = Baselines.Binary_track_consensus.make_tas ~n:2 ~cap:8 in
  let module C = Checker.Make (B) in
  let prune (c : C.E.config) = B.near_cap ~margin:3 c.C.E.mem in
  Util.check_ok "tas-track n=2"
    (C.explore_all_inputs ~prune ~max_configs:200_000 ());
  Alcotest.(check bool) "all objects are TAS" true
    (Array.for_all (fun k -> k = Shmem.Obj_kind.Test_and_set) B.objects)

let test_tas_track_random () =
  let (module B) = Baselines.Binary_track_consensus.make_tas ~n:4 ~cap:64 in
  let module C = Checker.Make (B) in
  Util.check_ok "tas-track n=4 random"
    (C.random_runs ~runs:10 ~max_steps:20_000 ())

let test_bitwise_bits_needed () =
  List.iter
    (fun (m, expect) ->
      Alcotest.(check int) (Fmt.str "bits for m=%d" m) expect
        (Baselines.Bitwise_consensus.bits_needed m))
    [ 2, 1; 3, 2; 4, 2; 5, 3; 8, 3; 9, 4 ]

let test_bitwise_exhaustive_n2 () =
  let n = 2 and m = 3 and cap = 6 in
  let (module P) = Baselines.Bitwise_consensus.make ~n ~m ~cap in
  let module C = Checker.Make (P) in
  let prune (c : C.E.config) =
    Baselines.Bitwise_consensus.near_cap ~n ~m ~cap ~margin:3 c.C.E.mem
  in
  Util.check_ok "bitwise n=2 m=3 inputs 02"
    (C.explore ~prune ~max_configs:300_000 ~inputs:[| 0; 2 |] ())

let test_bitwise_random () =
  let (module P) = Baselines.Bitwise_consensus.make ~n:4 ~m:5 ~cap:48 in
  let module C = Checker.Make (P) in
  Util.check_ok "bitwise n=4 m=5 random"
    (C.random_runs ~runs:10 ~max_steps:30_000 ())

let test_bitwise_decides_posted_value () =
  (* bursty runs decide, agree, and the decision is one of the inputs *)
  let (module P) = Baselines.Bitwise_consensus.make ~n:3 ~m:7 ~cap:32 in
  let module E = Shmem.Exec.Make (P) in
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 10 do
    let inputs = Array.init 3 (fun _ -> Random.State.int rng 7) in
    let c, _, outcome =
      E.run ~sched:(E.bursty rng ~burst:300) ~max_steps:200_000
        (E.initial ~inputs)
    in
    Alcotest.(check bool) "decided" true (outcome = E.All_decided);
    Alcotest.(check bool) "agreement" true (E.check_agreement c);
    Alcotest.(check bool) "validity" true (E.check_validity ~inputs c)
  done

let test_bitwise_all_binary_objects () =
  let (module P) = Baselines.Bitwise_consensus.make ~n:3 ~m:4 ~cap:8 in
  Alcotest.(check bool) "all objects are binary readable swap" true
    (Array.for_all
       (function
         | Shmem.Obj_kind.Readable_swap (Shmem.Obj_kind.Bounded 2) -> true
         | _ -> false)
       P.objects)

let test_cas_wait_free () =
  let (module P) = Baselines.Cas_consensus.make ~n:6 ~m:4 in
  let module E = Shmem.Exec.Make (P) in
  let inputs = [| 3; 1; 0; 2; 1; 3 |] in
  let c = E.initial ~inputs in
  (* every interleaving decides within 2 steps per process *)
  let c', trace, outcome = E.run ~sched:E.round_robin ~max_steps:100 c in
  Alcotest.(check bool) "all decided" true (outcome = E.All_decided);
  Alcotest.(check bool) "at most 2 steps each" true
    (List.for_all
       (fun pid -> Shmem.Trace.steps_by ~pid trace <= 2)
       (List.init 6 Fun.id));
  Alcotest.(check (list int)) "agreement on first value" [ 3 ]
    (E.decided_values c')

let test_cas_exhaustive () =
  let (module P) = Baselines.Cas_consensus.make ~n:3 ~m:3 in
  let module C = Checker.Make (P) in
  Util.check_ok "cas n=3" (C.explore_all_inputs ())

let test_two_proc_swap_exhaustive () =
  let (module P) = Core.Two_proc_swap.make ~m:4 in
  let module C = Checker.Make (P) in
  Util.check_ok "two-proc-swap" (C.explore_all_inputs ())

let test_pair_ksa_exhaustive () =
  let (module P) = Core.Pair_ksa.make ~n:4 ~m:3 in
  let module C = Checker.Make (P) in
  Util.check_ok "pair-ksa n=4" (C.explore_all_inputs ())

let test_pair_ksa_wait_free () =
  (* every process decides within one step (n-1-set agreement from a single
     swap object is wait-free) *)
  let (module P) = Core.Pair_ksa.make ~n:5 ~m:5 in
  let module E = Shmem.Exec.Make (P) in
  let c = E.initial ~inputs:[| 0; 1; 2; 3; 4 |] in
  let c', _, outcome = E.run ~sched:E.round_robin ~max_steps:10 c in
  Alcotest.(check bool) "all decided fast" true (outcome = E.All_decided);
  Alcotest.(check bool) "at most n-1 values" true
    (List.length (E.decided_values c') <= 4)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let find_name name =
  match Baselines.Registry.find name ~n:4 with
  | Ok e -> Ok e.Baselines.Registry.name
  | Error e -> Error e

let test_registry_find_exact () =
  Alcotest.(check (result string string))
    "exact name" (Ok "swap-ksa k=1") (find_name "swap-ksa k=1");
  (* an exact match wins even when it is also a prefix of another entry *)
  Alcotest.(check (result string string))
    "exact beats prefix" (Ok "binary-track") (find_name "binary-track")

let test_registry_find_unique_prefix () =
  Alcotest.(check (result string string))
    "unique prefix" (Ok "register-ksa k=1") (find_name "reg");
  Alcotest.(check (result string string))
    "unique prefix" (Ok "readable-swap") (find_name "read")

let test_registry_find_ambiguous_prefix () =
  (match find_name "swap-ksa" with
  | Error e ->
    Alcotest.(check bool)
      "message lists the matches" true
      (contains e "ambiguous"
      && contains e "swap-ksa k=1"
      && contains e "swap-ksa k=2")
  | Ok name -> Alcotest.failf "ambiguous prefix resolved to %S" name);
  match find_name "b" with
  | Error _ -> ()
  | Ok name -> Alcotest.failf "ambiguous prefix resolved to %S" name

let test_registry_find_unknown () =
  match find_name "nonesuch" with
  | Error e ->
    Alcotest.(check bool)
      "message lists available algorithms" true
      (contains e "unknown" && contains e "pair-ksa")
  | Ok name -> Alcotest.failf "unknown name resolved to %S" name

let sec4 =
  [ "lap-domination"
  ; "decide-lead-by-2"
  ; "max-lap-increment"
  ; "total-config-domination"
  ]

let generic = [ "k-agreement" ]

let pack_names pack =
  List.map (fun (s : Prop.spec) -> s.Prop.name) (Prop.pack_specs pack)

(* every name [-a] accepts, pinned to the protocol name and declared
   properties it selects (n=4, m=2, cap=48; k=1 except grouped, whose
   constructor needs n <= 2k) *)
let resolved =
  [ "swap-ksa", 1, "swap-ksa(n=4,k=1,m=2)", sec4
  ; "register-ksa", 1, "register-ksa(n=4,k=1,m=2)", generic
  ; "readable-swap", 1, "readable-swap-consensus(n=4,m=2)", generic
  ; "binary-track", 1, "binary-track(n=4,cap=48)", generic
  ; "bitwise", 1, "bitwise[binary-track(n=4,cap=48)](n=4,m=2)", generic
  ; "grouped", 2, "grouped-ksa(n=4,k=2,m=2)", generic
  ; "cas", 1, "cas-consensus(n=4,m=2)", generic
  ; "two-proc", 1, "two-proc-swap(m=2)", generic
  ; "pair-ksa", 1, "pair-ksa(n=4,m=2)", generic
  ]

let test_resolve_names () =
  List.iter
    (fun (algo, k, name, props) ->
      match Baselines.Registry.resolve algo ~n:4 ~k ~m:2 ~cap:48 with
      | Error e -> Alcotest.failf "%s did not resolve: %s" algo e
      | Ok pack ->
        let (module Pk : Prop.PACK) = pack in
        Alcotest.(check string) (algo ^ " protocol") name Pk.P.name;
        Alcotest.(check (list string)) (algo ^ " props") props
          (pack_names pack))
    resolved

let test_resolve_errors () =
  let rejects what r =
    match r with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s resolved" what
  in
  (match Baselines.Registry.resolve "nonesuch" ~n:4 ~k:1 ~m:2 ~cap:48 with
  | Error e ->
    Alcotest.(check bool)
      "message lists the known names" true
      (contains e "unknown" && contains e "pair-ksa")
  | Ok _ -> Alcotest.fail "unknown name resolved");
  rejects "swap-ksa n=3 k=3"
    (Baselines.Registry.resolve "swap-ksa" ~n:3 ~k:3 ~m:2 ~cap:48);
  rejects "grouped n=4 k=1"
    (Baselines.Registry.resolve "grouped" ~n:4 ~k:1 ~m:2 ~cap:48)

(* the standard grid, pinned:
   (n, name, stated_objects, burst, solo_bound, multicore_runnable,
   declared properties) *)
let standard_grid =
  let rows n ~swap1 ~swap2 ~register ~readable =
    [ n, "swap-ksa k=1", "n-1 (optimal)", 2 * swap1, Some swap1, true, sec4
    ; n, "swap-ksa k=2", "n-k", 2 * swap2, Some swap2, true, sec4
    ; n, "register-ksa k=1", "n-k+1", register, None, true, generic
    ; n, "readable-swap", "n-1", readable, None, true, generic
    ; n, "binary-track", "2n-1 binary [17]", 384, None, false, generic
    ; n, "binary-track eager", "2n-1 binary [17]", 384, None, false, generic
    ; n, "tas-track", "unbounded TAS [16]", 384, None, false, generic
    ; n, "bitwise", "O(n log m) binary", 768, None, false, generic
    ; n, "grouped-ksa", "k (n <= 2k)", 4, None, true, generic
    ; n, "cas", "1 (not historyless)", 4, None, true, generic
    ; n, "pair-ksa", "1", 4, None, true, generic
    ]
  in
  rows 3 ~swap1:16 ~swap2:8 ~register:128 ~readable:96
  @ rows 4 ~swap1:24 ~swap2:16 ~register:200 ~readable:128
  @ rows 5 ~swap1:32 ~swap2:24 ~register:288 ~readable:160

let test_standard_grid () =
  let show (n, name, stated, burst, solo, mc, props) =
    Fmt.str "n=%d %S %S burst=%d solo=%a mc=%b [%s]" n name stated burst
      Fmt.(option ~none:(any "-") int)
      solo mc (String.concat ";" props)
  in
  let actual =
    List.concat_map
      (fun n ->
        List.map
          (fun (e : Baselines.Registry.entry) ->
            show
              ( n,
                e.name,
                e.stated_objects,
                e.burst,
                e.solo_bound,
                e.multicore_runnable,
                pack_names e.props ))
          (Baselines.Registry.standard ~n ()))
      [ 3; 4; 5 ]
  in
  Alcotest.(check (list string))
    "standard entries" (List.map show standard_grid) actual;
  (* an entry's protocol is its pack's [P] *)
  List.iter
    (fun (e : Baselines.Registry.entry) ->
      let (module P : Shmem.Protocol.S) = e.protocol in
      let (module Pk : Prop.PACK) = e.props in
      Alcotest.(check string) (e.name ^ " protocol = pack") Pk.P.name P.name)
    (Baselines.Registry.standard ~n:4 ())

let () =
  Alcotest.run "baselines"
    [ ( "register-ksa",
        [ Alcotest.test_case "object count" `Quick test_register_object_count
        ; Alcotest.test_case "exhaustive n=2" `Slow test_register_exhaustive_n2
        ; Alcotest.test_case "exhaustive n=3 k=2" `Slow
            test_register_exhaustive_n3_k2
        ; Alcotest.test_case "random n=5 k=2" `Quick test_register_random
        ] )
    ; ( "readable-swap",
        [ Alcotest.test_case "object count" `Quick
            test_readable_swap_object_count
        ; Alcotest.test_case "exhaustive n=2" `Slow
            test_readable_swap_exhaustive_n2
        ; Alcotest.test_case "random n=6" `Quick test_readable_swap_random
        ] )
    ; ( "binary-track",
        [ Alcotest.test_case "exhaustive n=2" `Slow
            test_binary_track_exhaustive_n2
        ; Alcotest.test_case "exhaustive n=3" `Slow
            test_binary_track_exhaustive_n3
        ; Alcotest.test_case "random n=5" `Quick test_binary_track_random
        ; Alcotest.test_case "positions" `Quick test_binary_track_positions
        ; Alcotest.test_case "eager variant exhaustive n=2" `Slow
            test_eager_track_exhaustive_n2
        ; Alcotest.test_case "eager variant random n=5" `Quick
            test_eager_track_random
        ; Alcotest.test_case "TAS variant exhaustive n=2" `Slow
            test_tas_track_exhaustive_n2
        ; Alcotest.test_case "TAS variant random n=4" `Quick
            test_tas_track_random
        ] )
    ; ( "bitwise multivalued consensus",
        [ Alcotest.test_case "bits needed" `Quick test_bitwise_bits_needed
        ; Alcotest.test_case "exhaustive n=2 m=3" `Slow
            test_bitwise_exhaustive_n2
        ; Alcotest.test_case "random n=4 m=5" `Quick test_bitwise_random
        ; Alcotest.test_case "decides a posted value" `Quick
            test_bitwise_decides_posted_value
        ; Alcotest.test_case "binary objects only" `Quick
            test_bitwise_all_binary_objects
        ] )
    ; ( "one-object algorithms",
        [ Alcotest.test_case "cas wait-free" `Quick test_cas_wait_free
        ; Alcotest.test_case "cas exhaustive" `Quick test_cas_exhaustive
        ; Alcotest.test_case "two-proc swap exhaustive" `Quick
            test_two_proc_swap_exhaustive
        ; Alcotest.test_case "pair-ksa exhaustive" `Quick
            test_pair_ksa_exhaustive
        ; Alcotest.test_case "pair-ksa wait-free" `Quick
            test_pair_ksa_wait_free
        ] )
    ; ( "registry lookup",
        [ Alcotest.test_case "exact match" `Quick test_registry_find_exact
        ; Alcotest.test_case "unique prefix" `Quick
            test_registry_find_unique_prefix
        ; Alcotest.test_case "ambiguous prefix is an error" `Quick
            test_registry_find_ambiguous_prefix
        ; Alcotest.test_case "unknown name is an error" `Quick
            test_registry_find_unknown
        ; Alcotest.test_case "resolve every -a name" `Quick
            test_resolve_names
        ; Alcotest.test_case "resolve errors" `Quick test_resolve_errors
        ; Alcotest.test_case "standard grid n=3..5" `Quick test_standard_grid
        ] )
    ]
