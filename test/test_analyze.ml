(* lib/analyze contract: the static lints accept every real protocol in the
   registry (with derived flags agreeing with the declared predicates and
   measured solo executions within the proved bounds), accept randomly
   generated well-formed protocols, and reject each planted mutant — a CAS
   smuggled into a declared-historyless protocol, an incoherent
   [hash_state], a nondeterministic [poised], an out-of-range decision.
   The happens-before checker passes clean swap chains and catches
   synthetic torn/stale/lost manifestations. *)

module Sh = Shmem

let find_check (r : Analyze.report) id =
  match List.find_opt (fun (c : Analyze.check) -> c.id = id) r.checks with
  | Some c -> c
  | None -> Alcotest.failf "report has no %S check" id

let check_failed r id =
  match (find_check r id).status with
  | Analyze.Fail _ -> true
  | Analyze.Pass | Analyze.Skipped _ -> false

let assert_rejected ~by r =
  if Analyze.ok r then
    Alcotest.failf "mutant %s accepted by the analyzer" r.Analyze.protocol;
  if not (check_failed r by) then
    Alcotest.failf "mutant %s: expected the %s check to fail, got:@.%a"
      r.Analyze.protocol by Analyze.pp_report r

(* ------------------------------------------------ registry conformance *)

let test_registry_all_pass () =
  List.iter
    (fun (e : Baselines.Registry.entry) ->
      let r =
        Analyze.run_protocol ~max_configs:2_000 ?solo_bound:e.solo_bound
          ~prune:e.prune e.protocol
      in
      if not (Analyze.ok r) then
        Alcotest.failf "%s: %a" e.name Analyze.pp_report r;
      (* flag-derivation agreement in the sound direction, explicitly *)
      let declared_historyless =
        Sh.Protocol.uses_only_historyless e.protocol
      in
      if declared_historyless && not r.Analyze.derived_historyless then
        Alcotest.failf "%s: derived historyless disagrees" e.name)
    (Baselines.Registry.standard ())

let test_solo_bound_swap_ksa () =
  (* Lemma 8: no reachable configuration needs more than 8(n-k) solo steps *)
  List.iter
    (fun n ->
      let bound = Core.Swap_ksa.solo_step_bound ~n ~k:1 in
      let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
      let r =
        Analyze.run_protocol ~max_configs:3_000 ~solo_bound:bound
          ~prune:(Baselines.Registry.lap_prune 3)
          (module P)
      in
      if not (Analyze.ok r) then
        Alcotest.failf "swap-ksa n=%d: %a" n Analyze.pp_report r;
      if r.Analyze.solo_measured_max > bound then
        Alcotest.failf "swap-ksa n=%d: measured %d > bound %d" n
          r.Analyze.solo_measured_max bound)
    [ 3; 4; 5; 6 ]

(* ------------------------------------------------ space certification *)

let sfind_check (r : Analyze.Space.report) id =
  match List.find_opt (fun (c : Analyze.check) -> c.id = id) r.checks with
  | Some c -> c
  | None -> Alcotest.failf "space report has no %S check" id

(* every registry protocol certifies measured <= declared on the grid the
   CLI gate runs at *)
let test_space_registry_grid () =
  List.iter
    (fun n ->
      List.iter
        (fun (e : Baselines.Registry.entry) ->
          let r =
            Analyze.Space.run_protocol ~max_configs:6_000 ~prune:e.prune
              ~certificate:false e.protocol
          in
          if not (Analyze.Space.ok r) then
            Alcotest.failf "%s n=%d: %a" e.name n Analyze.Space.pp_report
              r)
        (Baselines.Registry.standard ~n ()))
    [ 3; 4; 5; 6 ]

(* Algorithm 1 is tight: the measured usage equals the declared n-k, and
   the Theorem 10 bracket closes around it at k=1 (declared = measured =
   theorem bound = n-1) *)
let test_space_swap_ksa_exact () =
  List.iter
    (fun n ->
      let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
      let r =
        Analyze.Space.run_protocol ~max_configs:20_000
          ~prune:(Baselines.Registry.lap_prune 3)
          (module P)
      in
      if not (Analyze.Space.ok r) then
        Alcotest.failf "swap-ksa n=%d: %a" n Analyze.Space.pp_report r;
      Alcotest.(check int) (Fmt.str "measured = n-k at n=%d" n) (n - 1)
        r.Analyze.Space.measured;
      match r.Analyze.Space.bracket with
      | None -> Alcotest.failf "swap-ksa n=%d: no Theorem 10 bracket" n
      | Some b ->
        Alcotest.(check int)
          (Fmt.str "theorem bound at n=%d" n)
          (n - 1) b.Analyze.Space.theorem_bound;
        if b.Analyze.Space.forced > r.Analyze.Space.measured then
          Alcotest.failf "swap-ksa n=%d: forced %d > measured %d" n
            b.Analyze.Space.forced r.Analyze.Space.measured)
    [ 3; 4; 5 ]

(* the planted space mutant: Algorithm 1 claiming one object fewer than it
   uses must be rejected by the under-claim check specifically *)
let test_mutant_space_underclaim () =
  let (module P) = Core.Swap_ksa.make ~n:4 ~k:1 ~m:2 in
  let module Bad = struct
    include P

    let name = "swap-ksa/space-under-claim"
    let space_bound ~n ~k = n - k - 1
  end in
  let r =
    Analyze.Space.run_protocol ~max_configs:20_000
      ~prune:(Baselines.Registry.lap_prune 3) ~certificate:false
      (module Bad)
  in
  if Analyze.Space.ok r then
    Alcotest.fail "space under-claim accepted by the certifier";
  match (sfind_check r "space-under-claim").status with
  | Analyze.Fail _ -> ()
  | Analyze.Pass | Analyze.Skipped _ ->
    Alcotest.failf "expected space-under-claim to fail:@.%a"
      Analyze.Space.pp_report r

(* -------------------------------------- random well-formed protocols *)

(* a straight-line protocol: every process executes the same random list of
   (object, operation) instructions, ignores the responses, then decides
   its input.  Well-formed by construction: operations are drawn from the
   kind's legal set, stored values from the object's domain. *)
let mk_straightline ~kinds ~(prog : (int * Sh.Op.action) list) ~n ~m :
    Sh.Protocol.t =
  let prog = Array.of_list prog in
  let module P = struct
    let name = "straightline"
    let n = n
    let k = 1
    let num_inputs = m
    let objects = kinds

    let init_object _ = Sh.Value.Int 0

    type state = { input : int; step : int; decided : int option }

    let init ~pid:_ ~input = { input; step = 0; decided = None }

    let poised s =
      let obj, action = prog.(s.step) in
      { Sh.Op.obj; action }

    let on_response s _ =
      let step = s.step + 1 in
      if step >= Array.length prog then
        { s with step; decided = Some s.input }
      else { s with step }

    let decision s = s.decided

    let equal_state s1 s2 =
      s1.input = s2.input && s1.step = s2.step
      && Option.equal Int.equal s1.decided s2.decided

    let hash_state s =
      Sh.Hashx.(opt int (int (int seed s.input) s.step) s.decided)

    let pp_state ppf s = Fmt.pf ppf "{step=%d}" s.step
    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry = Sh.Protocol.Asymmetric
    let recovery = Sh.Protocol.Restart
  end in
  (module P)

(* instructions legal for a kind, over a bounded domain of size [d] *)
let legal_actions ~d kind =
  let vals = List.init d (fun v -> Sh.Value.Int v) in
  match (kind : Sh.Obj_kind.t) with
  | Sh.Obj_kind.Register _ ->
    (Sh.Op.Read :: List.map (fun v -> Sh.Op.Write v) vals)
  | Sh.Obj_kind.Swap_only _ -> List.map (fun v -> Sh.Op.Swap v) vals
  | Sh.Obj_kind.Readable_swap _ ->
    (Sh.Op.Read :: List.map (fun v -> Sh.Op.Swap v) vals)
  | Sh.Obj_kind.Test_and_set ->
    [ Sh.Op.Read; Sh.Op.Swap (Sh.Value.Int 1) ]
  | Sh.Obj_kind.Test_and_set_reset ->
    [ Sh.Op.Read; Sh.Op.Swap (Sh.Value.Int 1); Sh.Op.Write (Sh.Value.Int 0) ]
  | Sh.Obj_kind.Compare_and_swap _ -> [ Sh.Op.Read ]

let gen_protocol =
  let open QCheck2.Gen in
  let d = 2 in
  let kind =
    oneofl
      [ Sh.Obj_kind.Register (Sh.Obj_kind.Bounded d)
      ; Sh.Obj_kind.Swap_only (Sh.Obj_kind.Bounded d)
      ; Sh.Obj_kind.Readable_swap (Sh.Obj_kind.Bounded d)
      ; Sh.Obj_kind.Test_and_set
      ]
  in
  let* num_objs = int_range 1 2 in
  let* kinds = array_repeat num_objs kind in
  let instr =
    let* obj = int_range 0 (num_objs - 1) in
    let actions = legal_actions ~d kinds.(obj) in
    let* i = int_range 0 (List.length actions - 1) in
    return (obj, List.nth actions i)
  in
  let* len = int_range 1 4 in
  let* prog = list_repeat len instr in
  (* keep the declared flags honest: the analyzer fails an exhaustive
     exploration whose reachable ops are all swaps while some object kind
     claims more — so if any object is not Swap_only, actually read it *)
  let prog =
    let non_swap =
      Array.to_seq kinds |> Seq.mapi (fun i k -> i, k)
      |> Seq.filter (fun (_, k) ->
             match (k : Sh.Obj_kind.t) with
             | Sh.Obj_kind.Swap_only _ -> false
             | _ -> true)
      |> Seq.uncons
    in
    match non_swap with
    | Some ((i, _), _) -> (i, Sh.Op.Read) :: prog
    | None -> prog
  in
  let* n = int_range 2 3 in
  return (mk_straightline ~kinds ~prog ~n ~m:2)

let test_random_wellformed =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random well-formed protocols pass every lint"
       ~count:60 ~print:Sh.Protocol.name gen_protocol (fun p ->
         let r = Analyze.run_protocol ~max_configs:5_000 p in
         if not (Analyze.ok r) then
           QCheck2.Test.fail_reportf "%a" Analyze.pp_report r;
         (* straight-line programs draw only historyless ops, so derivation
            must agree with the kind-based predicate *)
         r.Analyze.derived_historyless))

(* ----------------------------------------------------------- mutants *)

(* CAS smuggled into a protocol whose objects all claim historyless *)
let cas_smuggler : Sh.Protocol.t =
  let module P = struct
    let name = "mutant-cas-smuggler"
    let n = 2
    let k = 1
    let num_inputs = 2
    let objects = [| Sh.Obj_kind.Readable_swap Sh.Obj_kind.Unbounded |]
    let init_object _ = Sh.Value.Bot

    type state = { input : int; tried : bool; decided : int option }

    let init ~pid:_ ~input = { input; tried = false; decided = None }

    let poised s =
      if s.tried then Sh.Op.read 0
      else Sh.Op.cas 0 ~expected:Sh.Value.Bot ~desired:(Sh.Value.Int s.input)

    let on_response s _ =
      if s.tried then { s with decided = Some s.input }
      else { s with tried = true }

    let decision s = s.decided

    let equal_state s1 s2 =
      s1.input = s2.input && s1.tried = s2.tried
      && Option.equal Int.equal s1.decided s2.decided

    let hash_state s =
      Sh.Hashx.(opt int (bool (int seed s.input) s.tried) s.decided)

    let pp_state ppf s = Fmt.pf ppf "{tried=%b}" s.tried
    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry = Sh.Protocol.Asymmetric
    let recovery = Sh.Protocol.Restart
  end in
  (module P)

let test_mutant_cas_smuggler () =
  let r = Analyze.run_protocol cas_smuggler in
  assert_rejected ~by:"op-conformance" r;
  (* the derived flag must disagree with the declared one *)
  if r.Analyze.derived_historyless then
    Alcotest.fail "derived_historyless should be false: a Cas is reachable";
  assert_rejected ~by:"flag-derivation" r

(* equal_state ignores the step counter that hash_state mixes in: equal
   reachable states hash apart *)
let bad_hasher : Sh.Protocol.t =
  let module P = struct
    let name = "mutant-bad-hasher"
    let n = 2
    let k = 1
    let num_inputs = 2
    let objects = [| Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded |]
    let init_object _ = Sh.Value.Bot

    type state = { input : int; step : int; decided : int option }

    let init ~pid:_ ~input = { input; step = 0; decided = None }
    let poised s = Sh.Op.swap 0 (Sh.Value.Int s.input)

    let on_response s _ =
      if s.step >= 2 then { s with decided = Some s.input }
      else { s with step = s.step + 1 }

    let decision s = s.decided

    let equal_state s1 s2 =
      (* step deliberately ignored *)
      s1.input = s2.input && Option.equal Int.equal s1.decided s2.decided

    let hash_state s =
      Sh.Hashx.(opt int (int (int seed s.input) s.step) s.decided)

    let pp_state ppf s = Fmt.pf ppf "{step=%d}" s.step
    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry = Sh.Protocol.Asymmetric
    let recovery = Sh.Protocol.Restart
  end in
  (module P)

let test_mutant_bad_hasher () =
  assert_rejected ~by:"hash-coherence" (Analyze.run_protocol bad_hasher)

(* a hidden mutable toggle: poised alternates between two legal operations *)
let flipper : Sh.Protocol.t =
  let flip = ref false in
  let module P = struct
    let name = "mutant-flipper"
    let n = 2
    let k = 1
    let num_inputs = 2
    let objects = [| Sh.Obj_kind.Readable_swap Sh.Obj_kind.Unbounded |]
    let init_object _ = Sh.Value.Bot

    type state = { input : int; step : int; decided : int option }

    let init ~pid:_ ~input = { input; step = 0; decided = None }

    let poised s =
      flip := not !flip;
      if !flip then Sh.Op.swap 0 (Sh.Value.Int s.input) else Sh.Op.read 0

    let on_response s _ =
      if s.step >= 1 then { s with decided = Some s.input }
      else { s with step = s.step + 1 }

    let decision s = s.decided

    let equal_state s1 s2 =
      s1.input = s2.input && s1.step = s2.step
      && Option.equal Int.equal s1.decided s2.decided

    let hash_state s =
      Sh.Hashx.(opt int (int (int seed s.input) s.step) s.decided)

    let pp_state ppf s = Fmt.pf ppf "{step=%d}" s.step
    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry = Sh.Protocol.Asymmetric
    let recovery = Sh.Protocol.Restart
  end in
  (module P)

let test_mutant_flipper () =
  assert_rejected ~by:"determinism" (Analyze.run_protocol flipper)

(* decides m, outside 0..m-1 *)
let out_of_range : Sh.Protocol.t =
  let module P = struct
    let name = "mutant-out-of-range"
    let n = 2
    let k = 1
    let num_inputs = 2
    let objects = [| Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded |]
    let init_object _ = Sh.Value.Bot

    type state = { input : int; decided : int option }

    let init ~pid:_ ~input = { input; decided = None }
    let poised s = Sh.Op.swap 0 (Sh.Value.Int s.input)
    let on_response s _ = { s with decided = Some num_inputs }
    let decision s = s.decided

    let equal_state s1 s2 =
      s1.input = s2.input && Option.equal Int.equal s1.decided s2.decided

    let hash_state s =
      Sh.Hashx.(opt int (int seed s.input) s.decided)

    let pp_state ppf s = Fmt.pf ppf "{input=%d}" s.input
    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry = Sh.Protocol.Asymmetric
    let recovery = Sh.Protocol.Restart
  end in
  (module P)

let test_mutant_out_of_range () =
  let r = Analyze.run_protocol out_of_range in
  assert_rejected ~by:"decision-range" r;
  assert_rejected ~by:"decision-coverage" r

(* claims [Anonymous] but [canon_key] peeks at the pid once the process has
   taken a step — invariant on initial states, so [Protocol.validate]
   passes; only the reachable-state probe can catch it *)
let pid_key : Sh.Protocol.t =
  (module struct
    let name = "mutant-pid-key"
    let n = 3
    let k = 1
    let num_inputs = 2
    let objects = [| Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded |]
    let init_object _ = Sh.Value.Bot

    type state = { pid : int; input : int; step : int; decided : int option }

    let init ~pid ~input = { pid; input; step = 0; decided = None }
    let poised s = Sh.Op.swap 0 (Sh.Value.Int s.input)

    let on_response s _ =
      if s.step >= 1 then { s with decided = Some s.input }
      else { s with step = s.step + 1 }

    let decision s = s.decided

    let equal_state s1 s2 =
      s1.pid = s2.pid && s1.input = s2.input && s1.step = s2.step
      && Option.equal Int.equal s1.decided s2.decided

    let hash_state s =
      Sh.Hashx.(opt int (int (int seed s.input) s.step) s.decided)

    let pp_state ppf s = Fmt.pf ppf "{p%d step=%d}" s.pid s.step

    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry =
      Sh.Protocol.Anonymous
        { canon_key = (fun s -> if s.step > 0 then s.pid else 0)
        ; rename = (fun f s -> { s with pid = f s.pid })
        }
    let recovery = Sh.Protocol.Restart
  end)

let test_mutant_pid_key () =
  let r = Analyze.run_protocol pid_key in
  (* the hooks are coherent on initial states, so well-formedness passes —
     this is exactly the gap the reachable-state lint exists to cover *)
  if check_failed r "well-formedness" then
    Alcotest.fail "mutant-pid-key: well-formedness should pass";
  assert_rejected ~by:"canon-coherence" r

(* [on_response] plants a pid-dependent mark; initial states are clean, so
   [Protocol.validate] (which never steps) passes, but renaming no longer
   commutes with stepping on reachable states *)
let marker : Sh.Protocol.t =
  (module struct
    let name = "mutant-noncommuting-response"
    let n = 3
    let k = 1
    let num_inputs = 2
    let objects = [| Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded |]
    let init_object _ = Sh.Value.Bot

    type state = { pid : int; input : int; mark : int; decided : int option }

    let init ~pid ~input = { pid; input; mark = 0; decided = None }
    let poised s = Sh.Op.swap 0 (Sh.Value.Int s.input)

    let on_response s _ =
      { s with decided = Some s.input; mark = s.pid mod 2 }

    let decision s = s.decided

    let equal_state s1 s2 =
      s1.pid = s2.pid && s1.input = s2.input && s1.mark = s2.mark
      && Option.equal Int.equal s1.decided s2.decided

    let hash_state s =
      Sh.Hashx.(opt int (int (int seed s.input) s.mark) s.decided)

    let pp_state ppf s = Fmt.pf ppf "{p%d mark=%d}" s.pid s.mark

    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry =
      Sh.Protocol.Anonymous
        { canon_key = hash_state
        ; rename = (fun f s -> { s with pid = f s.pid })
        }
    let recovery = Sh.Protocol.Restart
  end)

let test_mutant_marker () =
  let r = Analyze.run_protocol marker in
  if check_failed r "well-formedness" then
    Alcotest.fail "mutant-noncommuting-response: well-formedness should pass";
  assert_rejected ~by:"canon-coherence" r

(* [rename] is the identity on a state that embeds its pid — incoherent from
   the very first configuration, so the cheap init-only validation already
   rejects it *)
let frozen_rename : Sh.Protocol.t =
  (module struct
    let name = "mutant-identity-rename"
    let n = 3
    let k = 1
    let num_inputs = 2
    let objects = [| Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded |]
    let init_object _ = Sh.Value.Bot

    type state = { pid : int; input : int; decided : int option }

    let init ~pid ~input = { pid; input; decided = None }
    let poised s = Sh.Op.swap 0 (Sh.Value.Int s.input)
    let on_response s _ = { s with decided = Some s.input }
    let decision s = s.decided

    let equal_state s1 s2 =
      s1.pid = s2.pid && s1.input = s2.input
      && Option.equal Int.equal s1.decided s2.decided

    let hash_state s = Sh.Hashx.(opt int (int seed s.input) s.decided)
    let pp_state ppf s = Fmt.pf ppf "{p%d}" s.pid

    let space_bound ~n:_ ~k:_ = Array.length objects
    let symmetry =
      Sh.Protocol.Anonymous
        { canon_key = (fun s -> Sh.Hashx.(int seed s.input))
        ; rename = (fun _ s -> s)
        }
    let recovery = Sh.Protocol.Restart
  end)

let test_mutant_frozen_rename () =
  assert_rejected ~by:"well-formedness" (Analyze.run_protocol frozen_rename)

(* ------------------------------------------------- happens-before *)

let ev ~thread ~action ~response ~start ~finish =
  { Linearize.Obj_history.thread; action; response; start; finish }

let swap v = Sh.Op.Swap (Sh.Value.Int v)
let iv v = Sh.Value.Int v

let hb_check evs =
  Analyze.Hb.check ~kind:(Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded)
    ~init:Sh.Value.Bot evs

let test_hb_clean_chain () =
  (* Bot -> 0 -> 1: a legal sequential exchange chain *)
  match
    hb_check
      [ ev ~thread:0 ~action:(swap 0) ~response:Sh.Value.Bot ~start:0
          ~finish:1
      ; ev ~thread:1 ~action:(swap 1) ~response:(iv 0) ~start:2 ~finish:3
      ; ev ~thread:0 ~action:(swap 2) ~response:(iv 1) ~start:4 ~finish:5
      ]
  with
  | Ok stats ->
    Alcotest.(check int) "events" 3 stats.Analyze.Hb.events;
    Alcotest.(check int) "threads" 2 stats.Analyze.Hb.threads
  | Error v ->
    Alcotest.failf "clean chain flagged: %s (%s)" v.Analyze.Hb.rule
      v.Analyze.Hb.detail

let test_hb_concurrent_ok () =
  (* two overlapping swaps: either order linearizes, no violation *)
  match
    hb_check
      [ ev ~thread:0 ~action:(swap 0) ~response:Sh.Value.Bot ~start:0
          ~finish:5
      ; ev ~thread:1 ~action:(swap 1) ~response:(iv 0) ~start:1 ~finish:4
      ]
  with
  | Ok _ -> ()
  | Error v -> Alcotest.failf "concurrent swaps flagged: %s" v.Analyze.Hb.rule

let test_hb_torn_exchange () =
  (* both swaps claim to have consumed the initial value: a torn exchange *)
  match
    hb_check
      [ ev ~thread:0 ~action:(swap 0) ~response:Sh.Value.Bot ~start:0
          ~finish:1
      ; ev ~thread:1 ~action:(swap 1) ~response:Sh.Value.Bot ~start:2
          ~finish:3
      ]
  with
  | Ok _ -> Alcotest.fail "torn exchange not detected"
  | Error v ->
    (* the second Bot response trips lost-seniority (an install definitely
       preceded it); had the swaps overlapped, duplicate-consumption still
       catches the double witness *)
    Alcotest.(check bool)
      "rule"
      true
      (List.mem v.Analyze.Hb.rule [ "lost-seniority"; "duplicate-consumption" ])

let test_hb_torn_overlapping () =
  (* overlapping torn exchange: real-time order alone cannot rule either
     Bot response out, only the consumption count can *)
  match
    hb_check
      [ ev ~thread:0 ~action:(swap 0) ~response:Sh.Value.Bot ~start:0
          ~finish:3
      ; ev ~thread:1 ~action:(swap 1) ~response:Sh.Value.Bot ~start:1
          ~finish:2
      ]
  with
  | Ok _ -> Alcotest.fail "overlapping torn exchange not detected"
  | Error v ->
    Alcotest.(check string) "rule" "duplicate-consumption" v.Analyze.Hb.rule

let test_hb_stale_response () =
  (* a swap returns a value nobody ever installed *)
  match
    hb_check
      [ ev ~thread:0 ~action:(swap 0) ~response:(iv 7) ~start:0 ~finish:1 ]
  with
  | Ok _ -> Alcotest.fail "stale response not detected"
  | Error v ->
    Alcotest.(check string) "rule" "stale-response" v.Analyze.Hb.rule

let test_hb_check_histories () =
  let histories =
    [| [ ev ~thread:0 ~action:(swap 0) ~response:Sh.Value.Bot ~start:0
           ~finish:1
       ]
     ; []
    |]
  in
  match
    Analyze.Hb.check_histories
      ~kinds:
        [| Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded
         ; Sh.Obj_kind.Swap_only Sh.Obj_kind.Unbounded
        |]
      ~init:(fun _ -> Sh.Value.Bot)
      histories
  with
  | Ok (checked, skipped) ->
    Alcotest.(check int) "checked" 2 checked;
    Alcotest.(check int) "skipped" 0 skipped
  | Error e -> Alcotest.failf "clean histories flagged: %s" e

(* the runtime end of the pipe: a recorded multicore run checks clean *)
let test_hb_runtime_clean () =
  let (module P) = Core.Swap_ksa.make ~n:3 ~k:1 ~m:2 in
  let module R = Runtime.Make (P) in
  let outcome = R.run ~inputs:[| 0; 1; 0 |] ~seed:11 ~record:true () in
  (match R.check ~inputs:[| 0; 1; 0 |] outcome with
  | Ok () -> ()
  | Error e -> Alcotest.failf "runtime check: %s" e);
  match R.check_hb outcome with
  | Ok (checked, _) ->
    if checked = 0 then Alcotest.fail "hb checked no histories"
  | Error e -> Alcotest.failf "hb flagged a real run: %s" e

(* --------------------------------------------------- registry errors *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_registry_errors () =
  (match Baselines.Registry.find "nope" ~n:4 with
  | Ok _ -> Alcotest.fail "unknown name resolved"
  | Error msg ->
    if not (contains ~sub:"available" msg) then
      Alcotest.failf "unknown-name error lists nothing: %s" msg);
  (match Baselines.Registry.find "swap-ksa" ~n:4 with
  | Ok _ -> Alcotest.fail "ambiguous prefix resolved"
  | Error msg ->
    if not (contains ~sub:"ambiguous" msg) then
      Alcotest.failf "ambiguous-prefix error unhelpful: %s" msg);
  match Baselines.Registry.find "swap-ksa k=1" ~n:4 with
  | Ok e -> Alcotest.(check string) "exact" "swap-ksa k=1" e.name
  | Error msg -> Alcotest.failf "exact name failed: %s" msg

let () =
  Alcotest.run "analyze"
    [ ( "registry",
        [ Alcotest.test_case "every registered protocol passes" `Slow
            test_registry_all_pass
        ; Alcotest.test_case "solo max within 8(n-k), n=3..6" `Slow
            test_solo_bound_swap_ksa
        ; Alcotest.test_case "find errors are descriptive" `Quick
            test_registry_errors
        ] )
    ; ( "space",
        [ Alcotest.test_case "registry certifies on n=3..6" `Slow
            test_space_registry_grid
        ; Alcotest.test_case "Algorithm 1 measured = n-k, bracketed" `Slow
            test_space_swap_ksa_exact
        ; Alcotest.test_case "under-claim by one rejected" `Quick
            test_mutant_space_underclaim
        ] )
    ; ( "fuzz",
        [ test_random_wellformed ] )
    ; ( "mutants",
        [ Alcotest.test_case "cas smuggled into historyless" `Quick
            test_mutant_cas_smuggler
        ; Alcotest.test_case "incoherent hash_state" `Quick
            test_mutant_bad_hasher
        ; Alcotest.test_case "nondeterministic poised" `Quick
            test_mutant_flipper
        ; Alcotest.test_case "decision out of range" `Quick
            test_mutant_out_of_range
        ; Alcotest.test_case "pid-reading canon_key" `Quick
            test_mutant_pid_key
        ; Alcotest.test_case "non-commuting on_response" `Quick
            test_mutant_marker
        ; Alcotest.test_case "identity rename with embedded pid" `Quick
            test_mutant_frozen_rename
        ] )
    ; ( "happens-before",
        [ Alcotest.test_case "clean exchange chain" `Quick
            test_hb_clean_chain
        ; Alcotest.test_case "overlapping swaps allowed" `Quick
            test_hb_concurrent_ok
        ; Alcotest.test_case "sequential torn exchange" `Quick
            test_hb_torn_exchange
        ; Alcotest.test_case "overlapping torn exchange" `Quick
            test_hb_torn_overlapping
        ; Alcotest.test_case "stale response" `Quick test_hb_stale_response
        ; Alcotest.test_case "multi-object histories" `Quick
            test_hb_check_histories
        ; Alcotest.test_case "recorded multicore run is clean" `Slow
            test_hb_runtime_clean
        ] )
    ]
