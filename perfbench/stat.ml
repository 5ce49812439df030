(* Timing and summary helpers.  Every reading goes through [Resil.Clock]
   (CLOCK_MONOTONIC); nothing here reads the wall clock. *)

let now () = Resil.Clock.now_ns ()
let secs_since t0 = Resil.Clock.elapsed_s ~since:t0

(* [time f] runs [f] and returns its result with the seconds it took *)
let time f =
  let t0 = now () in
  let r = f () in
  r, secs_since t0

(* nearest-rank quantile of a sorted array; 0 on an empty one *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = quantile_sorted (sorted_floats l) 0.5
let minimum l = List.fold_left Float.min infinity l
let sum l = List.fold_left ( +. ) 0. l

(* readings from an [Obs] snapshot: a counter, and a span's total ns *)
let counter (snap : Obs.snapshot) name =
  Option.value (List.assoc_opt name snap.Obs.counters) ~default:0

let span_ns (snap : Obs.snapshot) name =
  match List.assoc_opt name snap.Obs.spans with Some d -> d.Obs.sum | None -> 0

(* [repeat_for ~seconds ~min_jobs job] runs [job] until at least
   [min_jobs] have run and [seconds] have elapsed; the results in order *)
let repeat_for ~seconds ~min_jobs job =
  let t0 = now () in
  let rec go i acc =
    if i >= min_jobs && secs_since t0 >= seconds then List.rev acc
    else go (i + 1) (job i :: acc)
  in
  go 0 []

(* A growable int buffer, for latency samples at full resolution. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  (* the samples of every buffer, sorted ascending *)
  let sorted ts =
    let total = List.fold_left (fun s t -> s + t.n) 0 ts in
    let out = Array.make total 0 in
    ignore
      (List.fold_left
         (fun off t ->
           Array.blit t.a 0 out off t.n;
           off + t.n)
         0 ts);
    Array.sort Int.compare out;
    out

  let quantile sorted q =
    let n = Array.length sorted in
    if n = 0 then 0
    else
      let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) i))
end

(* One sample buffer per domain, registered under a lock when a domain
   first records, so callbacks running on service workers never contend. *)
module Per_domain = struct
  type t = {
    key : Samples.t Domain.DLS.key;
    lock : Mutex.t;
    mutable all : Samples.t list;
  }

  let create () =
    let rec t =
      lazy
        { key =
            Domain.DLS.new_key (fun () ->
                let s = Samples.create () in
                let t = Lazy.force t in
                Mutex.lock t.lock;
                t.all <- s :: t.all;
                Mutex.unlock t.lock;
                s)
        ; lock = Mutex.create ()
        ; all = []
        }
    in
    Lazy.force t

  let add t x = Samples.add (Domain.DLS.get t.key) x

  (* every buffer's samples, sorted; the buffers are emptied *)
  let drain t =
    Mutex.lock t.lock;
    let all = t.all in
    let s = Samples.sorted all in
    List.iter (fun (b : Samples.t) -> b.n <- 0) all;
    Mutex.unlock t.lock;
    s
end
