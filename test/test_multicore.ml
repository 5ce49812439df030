(* Tests for the real-shared-memory backends: the hand-written Algorithm 1
   ([Multicore.Swap_ksa_mc]) over Atomic.exchange on OCaml 5 domains, and
   the generic runtime ([Runtime.Make]) over the two-process swap protocol
   and readable-swap consensus. *)

let test_two_proc () =
  let (module P) = Core.Two_proc_swap.make ~m:3 in
  let module R = Runtime.Make (P) in
  for seed = 0 to 19 do
    let input0 = seed mod 3 and input1 = (seed + 1) mod 3 in
    let inputs = [| input0; input1 |] in
    let o = R.run ~inputs ~seed () in
    (match R.check ~inputs o with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Fmt.str "seed=%d: %s" seed e));
    let d0 = o.R.decisions.(0) and d1 = o.R.decisions.(1) in
    Alcotest.(check int) "agreement" d0 d1;
    Alcotest.(check bool) "validity" true (d0 = input0 || d0 = input1);
    (* wait-free: one swap each *)
    Alcotest.(check (array int)) "one swap each" [| 1; 1 |] o.R.ops
  done

let run_and_check ~n ~k ~m ~seed =
  let rng = Random.State.make [| seed |] in
  let inputs = Array.init n (fun _ -> Random.State.int rng m) in
  let o = Multicore.Swap_ksa_mc.run ~n ~k ~m ~inputs ~seed () in
  match Multicore.Swap_ksa_mc.check ~inputs ~k o with
  | Ok () -> o
  | Error e -> Alcotest.fail (Fmt.str "n=%d k=%d m=%d seed=%d: %s" n k m seed e)

let test_consensus_small () =
  for seed = 0 to 9 do
    ignore (run_and_check ~n:2 ~k:1 ~m:2 ~seed)
  done

let test_consensus_contended () =
  for seed = 0 to 4 do
    ignore (run_and_check ~n:6 ~k:1 ~m:4 ~seed)
  done

let test_set_agreement () =
  for seed = 0 to 4 do
    ignore (run_and_check ~n:8 ~k:3 ~m:4 ~seed)
  done

let test_readable_swap_mc () =
  for seed = 0 to 4 do
    let rng = Random.State.make [| seed |] in
    let n = 2 + Random.State.int rng 5 in
    let m = 2 + Random.State.int rng 3 in
    let inputs = Array.init n (fun _ -> Random.State.int rng m) in
    let (module P) = Baselines.Readable_swap_consensus.make ~n ~m in
    let module R = Runtime.Make (P) in
    match R.check ~inputs (R.run ~inputs ~seed ()) with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Fmt.str "n=%d m=%d seed=%d: %s" n m seed e)
  done

let test_readable_swap_mc_validation () =
  (try
     ignore (Baselines.Readable_swap_consensus.make ~n:1 ~m:2);
     Alcotest.fail "accepted n = 1"
   with Invalid_argument _ -> ());
  let (module P) = Baselines.Readable_swap_consensus.make ~n:2 ~m:2 in
  let module R = Runtime.Make (P) in
  let bad =
    { R.decisions = [| 0; 1 |]
    ; statuses = [| R.Decided; R.Decided |]
    ; ops = [| 1; 1 |]
    ; backoffs = [| 0; 0 |]
    ; elapsed = 0.
    ; histories = [||]
    ; finals = [| None; None |]
    ; mem = [||]
    }
  in
  match R.check ~inputs:[| 0; 1 |] bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted disagreement"

let test_outcome_accounting () =
  let inputs = [| 0; 1; 1; 0 |] in
  let o = Multicore.Swap_ksa_mc.run ~n:4 ~k:1 ~m:2 ~inputs () in
  Alcotest.(check bool) "everyone took at least one pass" true
    (Array.for_all (fun p -> p >= 1) o.Multicore.Swap_ksa_mc.passes);
  Alcotest.(check bool) "swaps >= (n-k) per process" true
    (Array.for_all (fun s -> s >= 3) o.Multicore.Swap_ksa_mc.swaps)

let test_input_validation () =
  (try
     ignore (Multicore.Swap_ksa_mc.run ~n:2 ~k:2 ~m:2 ~inputs:[| 0; 1 |] ());
     Alcotest.fail "accepted n = k"
   with Invalid_argument _ -> ());
  try
    ignore (Multicore.Swap_ksa_mc.run ~n:2 ~k:1 ~m:2 ~inputs:[| 0; 5 |] ());
    Alcotest.fail "accepted out-of-range input"
  with Invalid_argument _ -> ()

let test_check_rejects_bad_outcomes () =
  let bad =
    { Multicore.Swap_ksa_mc.decisions = [| 0; 1 |]
    ; passes = [| 1; 1 |]
    ; swaps = [| 1; 1 |]
    ; elapsed = 0.
    }
  in
  (match Multicore.Swap_ksa_mc.check ~inputs:[| 0; 1 |] ~k:1 bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted 2 values for k=1");
  let invalid =
    { bad with Multicore.Swap_ksa_mc.decisions = [| 1; 1 |] }
  in
  match Multicore.Swap_ksa_mc.check ~inputs:[| 0; 0 |] ~k:1 invalid with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted invalid value"

let () =
  Alcotest.run "multicore"
    [ ( "atomic-swap",
        [ Alcotest.test_case "two-process consensus" `Quick test_two_proc
        ; Alcotest.test_case "n=2 consensus" `Quick test_consensus_small
        ; Alcotest.test_case "n=6 contended consensus" `Quick
            test_consensus_contended
        ; Alcotest.test_case "n=8 k=3 set agreement" `Quick test_set_agreement
        ; Alcotest.test_case "readable-swap consensus" `Quick
            test_readable_swap_mc
        ; Alcotest.test_case "readable-swap validation" `Quick
            test_readable_swap_mc_validation
        ; Alcotest.test_case "outcome accounting" `Quick
            test_outcome_accounting
        ; Alcotest.test_case "input validation" `Quick test_input_validation
        ; Alcotest.test_case "check rejects bad outcomes" `Quick
            test_check_rejects_bad_outcomes
        ] )
    ]
