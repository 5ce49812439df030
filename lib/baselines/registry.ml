type entry = {
  name : string;
  protocol : Shmem.Protocol.t;
  prune : Shmem.Value.t array -> bool;
  burst : int;
  stated_objects : string;
  multicore_runnable : bool;
  solo_bound : int option;
  props : Prop.pack;
}

let lap_prune bound mem =
  Array.exists
    (fun v ->
      match v with
      | Shmem.Value.Pair (Shmem.Value.Ints u, _) ->
        Array.exists (fun x -> x > bound) u
      | _ -> false)
    mem

let total_lap_prune budget mem =
  Array.fold_left
    (fun acc v ->
      match v with
      | Shmem.Value.Pair (Shmem.Value.Ints u, _) -> Array.fold_left ( + ) acc u
      | _ -> acc)
    0 mem
  > budget

let no_prune _ = false

(* Per-family constructors: the one place a protocol meets its property
   pack, keyed by the names [-a] accepts.  Algorithm 1 carries its §4
   invariants as declared properties over the very module the pack's [P]
   is, so unpacking the pack and instantiating a checker from its [P] makes
   the types line up; every other family carries the generic set.  Only
   the cheap online properties go in: the solo-bound property needs a
   memoized oracle the checker supplies itself (as "solo-termination"). *)
let families :
    (string * (n:int -> k:int -> m:int -> cap:int -> Prop.pack)) list =
  let generic = Prop.generic_pack in
  [ ( "swap-ksa",
      fun ~n ~k ~m ~cap:_ ->
        (module struct
          module P = (val Core.Swap_ksa.make ~n ~k ~m)

          let props =
            let module M = Core.Swap_ksa_monitor.Make (P) in
            M.online_props
        end) )
  ; ( "register-ksa",
      fun ~n ~k ~m ~cap:_ -> generic (Register_ksa.make ~n ~k ~m) )
  ; ( "readable-swap",
      fun ~n ~k:_ ~m ~cap:_ -> generic (Readable_swap_consensus.make ~n ~m) )
  ; ( "binary-track",
      fun ~n ~k:_ ~m:_ ~cap ->
        let (module B) = Binary_track_consensus.make ~n ~cap in
        generic (module B) )
  ; ( "bitwise",
      fun ~n ~k:_ ~m ~cap -> generic (Bitwise_consensus.make ~n ~m ~cap) )
  ; ("grouped", fun ~n ~k ~m ~cap:_ -> generic (Grouped_ksa.make ~n ~k ~m))
  ; ("cas", fun ~n ~k:_ ~m ~cap:_ -> generic (Cas_consensus.make ~n ~m))
  ; ( "two-proc",
      fun ~n:_ ~k:_ ~m ~cap:_ -> generic (Core.Two_proc_swap.make ~m) )
  ; ("pair-ksa", fun ~n ~k:_ ~m ~cap:_ -> generic (Core.Pair_ksa.make ~n ~m))
  ]

let resolve name ~n ~k ~m ~cap =
  match List.assoc_opt name families with
  | None ->
    Error
      (Fmt.str "unknown algorithm %s (try %s)" name
         (String.concat ", " (List.map fst families)))
  | Some make -> (
    match make ~n ~k ~m ~cap with
    | pack -> Ok pack
    | exception Invalid_argument msg -> Error msg)

(* an entry's protocol is its pack's [P] *)
let entry ~name ~prune ~burst ~stated ?(multicore = true) ?solo_bound
    (props : Prop.pack) =
  let (module Pk) = props in
  { name
  ; protocol = (module Pk.P)
  ; prune
  ; burst
  ; stated_objects = stated
  ; multicore_runnable = multicore
  ; solo_bound
  ; props
  }

let standard ?(n = 4) () =
  let k2 = min 2 (n - 1) in
  let cap = 48 in
  let family name ~k ~m = (List.assoc name families) ~n ~k ~m ~cap in
  let swap k ~stated =
    let solo = Core.Swap_ksa.solo_step_bound ~n ~k in
    entry ~name:(Fmt.str "swap-ksa k=%d" k) ~prune:(lap_prune 3)
      ~burst:(2 * solo) ~stated ~solo_bound:solo
      (family "swap-ksa" ~k ~m:(k + 1))
  in
  (* the cap-bounded unary-track algorithms are obstruction-free only while
     positions stay below [cap], so a real-concurrency run may livelock at
     the cap; they stay on the simulator backend *)
  let track make name stated =
    let (module B : Binary_track_consensus.S) = make ~n ~cap in
    entry ~name ~prune:(B.near_cap ~margin:3) ~burst:(8 * cap) ~stated
      ~multicore:false
      (Prop.generic_pack (module B))
  in
  [ swap 1 ~stated:"n-1 (optimal)"
  ; swap k2 ~stated:"n-k"
  ; entry ~name:"register-ksa k=1" ~prune:(lap_prune 3)
      ~burst:(8 * (n + 1) * (n + 1))
      ~stated:"n-k+1"
      (family "register-ksa" ~k:1 ~m:2)
  ; entry ~name:"readable-swap" ~prune:(lap_prune 3) ~burst:(32 * n)
      ~stated:"n-1"
      (family "readable-swap" ~k:1 ~m:2)
  ; track Binary_track_consensus.make "binary-track" "2n-1 binary [17]"
  ; track Binary_track_consensus.make_eager "binary-track eager"
      "2n-1 binary [17]"
  ; track Binary_track_consensus.make_tas "tas-track" "unbounded TAS [16]"
  ; entry ~name:"bitwise"
      ~prune:(Bitwise_consensus.near_cap ~n ~m:3 ~cap ~margin:3)
      ~burst:(16 * cap) ~stated:"O(n log m) binary" ~multicore:false
      (family "bitwise" ~k:1 ~m:3)
  ; entry ~name:"grouped-ksa" ~prune:no_prune ~burst:4 ~stated:"k (n <= 2k)"
      (family "grouped" ~k:(max 1 ((n + 1) / 2)) ~m:2)
  ; entry ~name:"cas" ~prune:no_prune ~burst:4 ~stated:"1 (not historyless)"
      (family "cas" ~k:1 ~m:2)
  ; entry ~name:"pair-ksa" ~prune:no_prune ~burst:4 ~stated:"1"
      (family "pair-ksa" ~k:1 ~m:2)
  ]

let find name ~n =
  let entries = standard ~n () in
  let is_prefix e =
    String.length e.name >= String.length name
    && String.sub e.name 0 (String.length name) = name
  in
  match List.find_opt (fun e -> e.name = name) entries with
  | Some e -> Ok e
  | None -> (
    match List.filter is_prefix entries with
    | [ e ] -> Ok e
    | [] ->
      Error
        (Fmt.str "unknown algorithm %S (available: %s)" name
           (String.concat ", " (List.map (fun e -> e.name) entries)))
    | ambiguous ->
      Error
        (Fmt.str "ambiguous algorithm prefix %S (matches: %s)" name
           (String.concat ", " (List.map (fun e -> e.name) ambiguous))))
