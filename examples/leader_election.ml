(* Leader election on real cores: each domain proposes its own id through
   Algorithm 1 with m = n possible values (k = 1, i.e. consensus), so all
   domains agree on a single leader — using only n-1 hardware swap objects,
   one fewer than any register-based solution can achieve (the paper's
   Theorem 10 shows n-1 is optimal for swap).

     dune exec examples/leader_election.exe *)

let () =
  let n = 8 in
  Fmt.pr "=== Leader election among %d domains via swap-based consensus ===@.@."
    n;
  (* each process proposes its own pid *)
  let inputs = Array.init n Fun.id in
  let o = Multicore.Swap_ksa_mc.run ~n ~k:1 ~m:n ~inputs () in
  (match Multicore.Swap_ksa_mc.check ~inputs ~k:1 o with
  | Ok () -> ()
  | Error e -> failwith e);
  let leader = o.Multicore.Swap_ksa_mc.decisions.(0) in
  Array.iteri
    (fun pid d ->
      assert (d = leader);
      Fmt.pr "domain %d: leader is %d (%d passes, %d swaps)@." pid d
        o.Multicore.Swap_ksa_mc.passes.(pid)
        o.Multicore.Swap_ksa_mc.swaps.(pid))
    o.Multicore.Swap_ksa_mc.decisions;
  Fmt.pr "@.elected domain %d in %.4fs using %d swap objects@." leader
    o.Multicore.Swap_ksa_mc.elapsed (n - 1);

  (* the 2-process special case needs a single swap object and one
     operation per process *)
  let (module P) = Core.Two_proc_swap.make ~m:2 in
  let module R = Runtime.Make (P) in
  let o = R.run ~inputs:[| 0; 1 |] () in
  let d0 = o.R.decisions.(0) in
  assert (o.R.decisions.(1) = d0);
  Fmt.pr "2-process election from ONE swap object: both chose %d@." d0
