(* Linearizability checker tests on hand-built histories of a readable swap
   object over Int values.  Real-hardware histories (Atomic.exchange
   linearizes, a torn exchange is caught) are checked in test_runtime
   through Runtime.record_cell. *)

module H = Linearize.Obj_history
module V = Shmem.Value

let kind = Shmem.Obj_kind.Readable_swap Shmem.Obj_kind.Unbounded

let ev thread action response start finish =
  { H.thread; action; response = V.Int response; start; finish }

let swap v = Shmem.Op.Swap (V.Int v)
let read = Shmem.Op.Read
let linearizable h = H.linearizable ~kind ~init:(V.Int 0) h

let test_sequential_history () =
  (* a hand-built sequential history: Swap(5)->0, Read->5, Swap(7)->5 *)
  let h =
    [ ev 0 (swap 5) 0 0 1; ev 0 read 5 2 3; ev 1 (swap 7) 5 4 5 ]
  in
  Alcotest.(check bool) "legal sequential history" true (linearizable h)

let test_illegal_sequential_history () =
  (* the read of a value nobody wrote cannot linearize *)
  let h = [ ev 0 (swap 5) 0 0 1; ev 0 read 9 2 3 ] in
  Alcotest.(check bool) "illegal history rejected" false (linearizable h)

let test_concurrent_overlap_allowed () =
  (* two overlapping swaps: either order works as long as results chain *)
  let h = [ ev 0 (swap 1) 0 0 5; ev 1 (swap 2) 1 1 4 ] in
  Alcotest.(check bool) "chained results linearize" true (linearizable h)

let test_lost_update_rejected () =
  (* two overlapping swaps both returning the initial value: in any order
     the second must return the first's value — not linearizable *)
  let h = [ ev 0 (swap 1) 0 0 5; ev 1 (swap 2) 0 1 4 ] in
  Alcotest.(check bool) "lost update rejected" false (linearizable h)

let () =
  Alcotest.run "linearize"
    [ ( "spec",
        [ Alcotest.test_case "sequential history" `Quick
            test_sequential_history
        ; Alcotest.test_case "illegal history rejected" `Quick
            test_illegal_sequential_history
        ; Alcotest.test_case "overlap allowed" `Quick
            test_concurrent_overlap_allowed
        ; Alcotest.test_case "lost update rejected" `Quick
            test_lost_update_rejected
        ] )
    ]
