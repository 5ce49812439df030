(* The multicore runtime's own costs, reported beside serve-saturated's
   layers: short [Runtime.Make(swap-ksa, k=1).run] instances, one per
   fresh seed, with n = nproc processes (at least 2) each on its own
   domain — the only path where [Domain.spawn], contended
   [Atomic.exchange] and backoff run.  Every outcome is checked with
   [R.check].  Throughput of this path varies by a third between runs on
   a shared 2-core host (the spawn tail), too much for an end-to-end
   bound, so it is measured here, untraced, as per-layer numbers. *)

let instances = 200

let instance_seed ~seed i = (seed * 1_000_003) + i

let inputs_of ~n ~seed i =
  let rng = Random.State.make [| instance_seed ~seed i; 0xB0B |] in
  Array.init n (fun _ -> Random.State.int rng 2)

type t = {
  checks : Report.check list;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let measure ~seed =
  let n = max 2 (Domain.recommended_domain_count ()) in
  let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
  let module R = Runtime.Make (P) in
  let failed = ref 0 and problems = ref [] in
  let note e =
    incr failed;
    if List.length !problems < 8 then problems := e :: !problems
  in
  let generic =
    List.init instances (fun i ->
        let inputs = inputs_of ~n ~seed i in
        let o, s =
          Stat.time (fun () -> R.run ~inputs ~seed:(instance_seed ~seed i) ())
        in
        (match R.check ~inputs o with
         | Ok () -> ()
         | Error e -> note (Fmt.str "instance %d: %s" i e));
        o, s)
  in
  let fv = float_of_int in
  let per_instance f =
    Stat.sum (List.map (fun (o, _) -> fv (f o)) generic) /. fv instances
  in
  (* the hand-written Algorithm 1 on the same inputs and seeds, timed here:
     its own [elapsed] reads the wall clock *)
  let hand =
    List.init instances (fun i ->
        let inputs = inputs_of ~n ~seed i in
        let o, s =
          Stat.time (fun () ->
              Multicore.Swap_ksa_mc.run ~n ~k:1 ~m:2 ~inputs
                ~seed:(instance_seed ~seed i) ())
        in
        (match Multicore.Swap_ksa_mc.check ~inputs ~k:1 o with
         | Ok () -> ()
         | Error e -> note (Fmt.str "hand-written instance %d: %s" i e));
        s)
  in
  let spawn_join =
    List.init instances (fun _ ->
        snd
          (Stat.time (fun () ->
               List.iter Domain.join (List.init n (fun _ -> Domain.spawn ignore)))))
  in
  { checks =
      [ Report.check "Runtime.run instances" (!failed = 0)
          (if !failed = 0 then
             Fmt.str "R.check passed on %d instances (n=%d), and the hand-written \
                      run on the same inputs" instances n
           else String.concat "; " (List.rev !problems))
      ]
  ; attempted = 2 * instances
  ; failed = !failed
  ; metrics =
      [ "runtime.spawn_join_us", 1e6 *. Stat.median spawn_join
      ; "runtime.run_us", 1e6 *. Stat.median (List.map snd generic)
      ; "runtime.ops_per_instance", per_instance (fun o -> Array.fold_left ( + ) 0 o.R.ops)
      ; ( "runtime.backoffs_per_instance",
          per_instance (fun o -> Array.fold_left ( + ) 0 o.R.backoffs) )
      ; "multicore.hand_run_us", 1e6 *. Stat.median hand
      ]
  }
