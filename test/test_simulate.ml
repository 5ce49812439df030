(* Tests for the object simulations of [6]: any historyless object can be
   simulated by a readable swap object with the same domain, and nontrivial
   operations by Swap.  We transform protocols and re-verify them. *)

let test_register_protocol_over_readable_swap () =
  (* the register baseline still passes the checker when every register is
     replaced by a readable swap object *)
  let (module P) = Baselines.Register_ksa.make ~n:2 ~k:1 ~m:2 in
  let module T = Shmem.Simulate.To_readable_swap (P) in
  Alcotest.(check bool) "all objects readable swap" true
    (Array.for_all
       (function Shmem.Obj_kind.Readable_swap _ -> true | _ -> false)
       T.objects);
  let module C = Checker.Make (T) in
  let prune (c : C.E.config) = Baselines.Registry.lap_prune 3 c.C.E.mem in
  Util.check_ok "register-ksa over readable swap"
    (C.explore_all_inputs ~prune ~max_configs:400_000 ())

let test_swap_protocol_over_swap_only_is_identity () =
  (* Algorithm 1 is already swap-only; the transformation must not change
     its behaviour *)
  let (module P) = Core.Swap_ksa.make ~n:2 ~k:1 ~m:2 in
  let module T = Shmem.Simulate.To_swap_only (P) in
  let module E = Shmem.Exec.Make (P) in
  let module ET = Shmem.Exec.Make (T) in
  let c = E.initial ~inputs:[| 0; 1 |] in
  let ct = ET.initial ~inputs:[| 0; 1 |] in
  let _, trace = E.run_script c [ 0; 1; 0; 1; 0; 0 ] in
  let _, trace_t = ET.run_script ct [ 0; 1; 0; 1; 0; 0 ] in
  Alcotest.(check bool) "identical traces" true
    (List.equal
       (fun a b ->
         Shmem.Op.equal a.Shmem.Trace.op b.Shmem.Trace.op
         && Shmem.Value.equal a.Shmem.Trace.resp b.Shmem.Trace.resp)
       trace trace_t)

let test_register_to_swap_only_loses_reads () =
  (* the register baseline reads, so running it over swap-only objects must
     raise Illegal_operation at the first read *)
  let (module P) = Baselines.Register_ksa.make ~n:2 ~k:1 ~m:2 in
  let module T = Shmem.Simulate.To_swap_only (P) in
  let module ET = Shmem.Exec.Make (T) in
  let c = ET.initial ~inputs:[| 0; 1 |] in
  try
    ignore (ET.run ~sched:ET.round_robin ~max_steps:100 c);
    Alcotest.fail "reads survived a swap-only transformation"
  with Shmem.Obj_kind.Illegal_operation _ -> ()

let test_cas_protocol_rejected () =
  let (module P) = Baselines.Cas_consensus.make ~n:2 ~m:2 in
  try
    let module T = Shmem.Simulate.To_readable_swap (P) in
    ignore T.objects;
    Alcotest.fail "CAS accepted by historyless simulation"
  with Invalid_argument _ -> ()

let test_tas_over_readable_swap () =
  (* a one-shot test-and-set "leader election" protocol behaves identically
     over readable swap objects *)
  let module Tas = struct
    let name = "tas-election"
    let n = 3
    let k = 1
    let num_inputs = 2
    let objects = [| Shmem.Obj_kind.Test_and_set |]
    let init_object _ = Shmem.Value.zero

    type state = { decided : int option }

    let init ~pid:_ ~input:_ = { decided = None }
    let poised _ = Shmem.Op.swap 0 Shmem.Value.one

    let on_response _ resp =
      (* winner (got 0 back) decides 1; losers decide 0 — not a consensus
         protocol, only exercises TAS semantics *)
      match resp with
      | Shmem.Value.Int 0 -> { decided = Some 1 }
      | _ -> { decided = Some 0 }

    let decision s = s.decided
    let equal_state = ( = )
    let hash_state = Hashtbl.hash
    let pp_state ppf _ = Fmt.pf ppf "{}"
    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry = Shmem.Protocol.Asymmetric
    let recovery = Shmem.Protocol.Restart
  end in
  let module T = Shmem.Simulate.To_readable_swap (Tas) in
  let module E = Shmem.Exec.Make (Tas) in
  let module ET = Shmem.Exec.Make (T) in
  let c = E.initial ~inputs:[| 0; 0; 0 |] in
  let ct = ET.initial ~inputs:[| 0; 0; 0 |] in
  let c', _ = E.run_script c [ 2; 0; 1 ] in
  let ct', _ = ET.run_script ct [ 2; 0; 1 ] in
  Alcotest.(check (option int)) "same winner" (E.decision c' 2)
    (ET.decision ct' 2);
  Alcotest.(check (list int)) "one winner" (E.decided_values c')
    (ET.decided_values ct')

let () =
  Alcotest.run "simulate"
    [ ( "historyless simulations",
        [ Alcotest.test_case "register protocol over readable swap" `Slow
            test_register_protocol_over_readable_swap
        ; Alcotest.test_case "swap-only transformation is identity" `Quick
            test_swap_protocol_over_swap_only_is_identity
        ; Alcotest.test_case "reads rejected by swap-only" `Quick
            test_register_to_swap_only_loses_reads
        ; Alcotest.test_case "CAS rejected" `Quick test_cas_protocol_rejected
        ; Alcotest.test_case "TAS over readable swap" `Quick
            test_tas_over_readable_swap
        ] )
    ]
