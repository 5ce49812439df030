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

(* Algorithm 1 carries its §4 invariants as declared properties; the pack
   is built from the same module the protocol field packs, so unpacking the
   pack and instantiating a checker from its [P] makes the types line up.
   Only the cheap online properties go in: the solo-bound property needs a
   memoized oracle the checker supplies itself (as "solo-termination"). *)
let swap_ksa_props (module P : Core.Swap_ksa.S) : Prop.pack =
  (module struct
    module P = P

    let props =
      let module M = Core.Swap_ksa_monitor.Make (P) in
      M.online_props
  end)

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

let standard ?(n = 4) () =
  let k2 = min 2 (n - 1) in
  let cap = 48 in
  (* the cap-bounded unary-track algorithms are obstruction-free only while
     positions stay below [cap], so a real-concurrency run may livelock at
     the cap; they stay on the simulator backend *)
  let track make name stated =
    let (module B : Binary_track_consensus.S) = make ~n ~cap in
    let protocol = (module B : Shmem.Protocol.S) in
    { name
    ; protocol
    ; prune = B.near_cap ~margin:3
    ; burst = 8 * cap
    ; stated_objects = stated
    ; multicore_runnable = false
    ; solo_bound = None
    ; props = Prop.generic_pack protocol
    }
  in
  [ (let (module P) = Core.Swap_ksa.make ~n ~k:1 ~m:2 in
     { name = "swap-ksa k=1"
     ; protocol = (module P)
     ; prune = lap_prune 3
     ; burst = 2 * Core.Swap_ksa.solo_step_bound ~n ~k:1
     ; stated_objects = "n-1 (optimal)"
     ; multicore_runnable = true
     ; solo_bound = Some (Core.Swap_ksa.solo_step_bound ~n ~k:1)
     ; props = swap_ksa_props (module P)
     })
  ; (let (module P) = Core.Swap_ksa.make ~n ~k:k2 ~m:(k2 + 1) in
     { name = Fmt.str "swap-ksa k=%d" k2
     ; protocol = (module P)
     ; prune = lap_prune 3
     ; burst = 2 * Core.Swap_ksa.solo_step_bound ~n ~k:k2
     ; stated_objects = "n-k"
     ; multicore_runnable = true
     ; solo_bound = Some (Core.Swap_ksa.solo_step_bound ~n ~k:k2)
     ; props = swap_ksa_props (module P)
     })
  ; (let protocol = Register_ksa.make ~n ~k:1 ~m:2 in
     { name = "register-ksa k=1"
     ; protocol
     ; prune = lap_prune 3
     ; burst = 8 * (n + 1) * (n + 1)
     ; stated_objects = "n-k+1"
     ; multicore_runnable = true
     ; solo_bound = None
     ; props = Prop.generic_pack protocol
     })
  ; (let protocol = Readable_swap_consensus.make ~n ~m:2 in
     { name = "readable-swap"
     ; protocol
     ; prune = lap_prune 3
     ; burst = 32 * n
     ; stated_objects = "n-1"
     ; multicore_runnable = true
     ; solo_bound = None
     ; props = Prop.generic_pack protocol
     })
  ; track Binary_track_consensus.make "binary-track" "2n-1 binary [17]"
  ; track Binary_track_consensus.make_eager "binary-track eager"
      "2n-1 binary [17]"
  ; track Binary_track_consensus.make_tas "tas-track" "unbounded TAS [16]"
  ; (let protocol = Bitwise_consensus.make ~n ~m:3 ~cap in
     { name = "bitwise"
     ; protocol
     ; prune = Bitwise_consensus.near_cap ~n ~m:3 ~cap ~margin:3
     ; burst = 16 * cap
     ; stated_objects = "O(n log m) binary"
     ; multicore_runnable = false
     ; solo_bound = None
     ; props = Prop.generic_pack protocol
     })
  ; (let k = max 1 ((n + 1) / 2) in
     let protocol = Grouped_ksa.make ~n ~k ~m:2 in
     { name = "grouped-ksa"
     ; protocol
     ; prune = no_prune
     ; burst = 4
     ; stated_objects = "k (n <= 2k)"
     ; multicore_runnable = true
     ; solo_bound = None
     ; props = Prop.generic_pack protocol
     })
  ; (let protocol = Cas_consensus.make ~n ~m:2 in
     { name = "cas"
     ; protocol
     ; prune = no_prune
     ; burst = 4
     ; stated_objects = "1 (not historyless)"
     ; multicore_runnable = true
     ; solo_bound = None
     ; props = Prop.generic_pack protocol
     })
  ; (let protocol = Core.Pair_ksa.make ~n ~m:2 in
     { name = "pair-ksa"
     ; protocol
     ; prune = no_prune
     ; burst = 4
     ; stated_objects = "1"
     ; multicore_runnable = true
     ; solo_bound = None
     ; props = Prop.generic_pack protocol
     })
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
