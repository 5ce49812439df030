type outcome = {
  decisions : int array;
  passes : int array;
  swaps : int array;
  elapsed : float;
}

(* object contents: an immutable lap-counter array and the pid of the last
   swapper (-1 encodes the initial ⊥) *)
type cell = { laps : int array; owner : int }

let run ~n ~k ~m ~inputs ?(seed = 0x5EED) ?(max_passes = 1_000_000) () =
  if not (n > k && k >= 1) then
    invalid_arg (Fmt.str "Swap_ksa_mc.run: need n > k >= 1, got n=%d k=%d" n k);
  if m < 2 then invalid_arg "Swap_ksa_mc.run: need m >= 2";
  if Array.length inputs <> n then
    invalid_arg "Swap_ksa_mc.run: wrong number of inputs";
  Array.iter
    (fun v ->
      if v < 0 || v >= m then invalid_arg "Swap_ksa_mc.run: input out of range")
    inputs;
  let nk = n - k in
  let objects =
    Array.init nk (fun _ ->
        Atomic.make { laps = Array.make m 0; owner = -1 })
  in
  let decisions = Array.make n (-1) in
  let passes = Array.make n 0 in
  let swaps = Array.make n 0 in
  let process pid =
    let input = inputs.(pid) in
    let rng = Random.State.make [| seed; pid |] in
    let u = Array.make m 0 in
    u.(input) <- 1;
    let my_swaps = ref 0 in
    let backoff = ref 1 in
    let rec go pass =
      if pass > max_passes then
        failwith (Fmt.str "p%d exceeded %d passes" pid max_passes);
      (* one iteration of the loop on lines 4-20 *)
      let conflict = ref false in
      for i = 0 to nk - 1 do
        incr my_swaps;
        let prev =
          Atomic.exchange objects.(i) { laps = Array.copy u; owner = pid }
        in
        let same_u = Array.for_all2 Int.equal prev.laps u in
        if not (same_u && prev.owner = pid) then conflict := true;
        if not same_u then
          for j = 0 to m - 1 do
            u.(j) <- max u.(j) prev.laps.(j)
          done
      done;
      if !conflict then begin
        (* randomized exponential backoff before retrying (see .mli) *)
        let spins = Random.State.int rng !backoff in
        for _ = 1 to spins do
          Domain.cpu_relax ()
        done;
        if !backoff < 1 lsl 16 then backoff := !backoff * 2;
        go (pass + 1)
      end
      else begin
        backoff := 1;
        let v = ref 0 in
        for j = 1 to m - 1 do
          if u.(j) > u.(!v) then v := j
        done;
        let lead2 = ref true in
        for j = 0 to m - 1 do
          if j <> !v && u.(!v) < u.(j) + 2 then lead2 := false
        done;
        if !lead2 then begin
          decisions.(pid) <- !v;
          passes.(pid) <- pass;
          swaps.(pid) <- !my_swaps
        end
        else begin
          u.(!v) <- u.(!v) + 1;
          go (pass + 1)
        end
      end
    in
    go 1
  in
  let t0 = Resil.Clock.now_ns () in
  let domains = Array.init n (fun pid -> Domain.spawn (fun () -> process pid)) in
  Array.iter Domain.join domains;
  let elapsed = Resil.Clock.elapsed_s ~since:t0 in
  { decisions; passes; swaps; elapsed }

let check ~inputs ~k outcome =
  let distinct =
    Array.to_list outcome.decisions |> List.sort_uniq Stdlib.compare
  in
  if List.exists (fun v -> v < 0) distinct then Error "some process is undecided"
  else if List.length distinct > k then
    Error
      (Fmt.str "%d distinct values decided, k=%d" (List.length distinct) k)
  else if
    List.exists (fun v -> not (Array.exists (Int.equal v) inputs)) distinct
  then Error "a decided value is no process's input"
  else Ok ()
