(* GC time per domain and scheduler time per thread, read from outside
   the program.  A reader domain polls every few milliseconds:

   - the process's own [Runtime_events] ring (which ships with the
     compiler), adding up, per ring (one per domain slot), the time spent
     inside outermost runtime phases — minor and major collection work,
     stop-the-world handling.  Condition waits are idle time, not GC, and
     are left out;
   - the kernel's per-thread accounting, [/proc/self/task/TID/schedstat]:
     nanoseconds on a CPU and nanoseconds runnable but waiting for one. *)

type sched = { cpu_ns : int; wait_ns : int }

type totals = {
  gc_ns : (int * int) list;  (** [(domain slot, ns inside GC phases)] *)
  lost : int;  (** events the ring dropped before they were read *)
  reader_slot : int;  (** the polling domain's own slot, left out *)
  spawned : (string * sched) list;
      (** [(tid, accounting)] of the threads started while watching
          (domains and their helper threads), the reader's own left out *)
}

let read_sched tid =
  match open_in (Printf.sprintf "/proc/self/task/%s/schedstat" tid) with
  | ic ->
    let v =
      try Scanf.sscanf (input_line ic) "%d %d" (fun c w -> Some { cpu_ns = c; wait_ns = w })
      with _ -> None
    in
    close_in ic;
    v
  | exception Sys_error _ -> None

let sample_threads tbl =
  let tids = try Sys.readdir "/proc/self/task" with Sys_error _ -> [||] in
  Array.iter
    (fun tid ->
      match read_sched tid with Some v -> Hashtbl.replace tbl tid v | None -> ())
    tids

(* the calling thread's kernel id *)
let own_tid () =
  match Unix.readlink "/proc/thread-self" with
  | link -> Filename.basename link
  | exception Unix.Unix_error _ -> ""

type t = { stop : bool Atomic.t; reader : totals Domain.t }

let started = ref false

let read_loop ~before stop =
  let me = own_tid () in
  let latest = Hashtbl.create 16 in
  let cursor = Runtime_events.create_cursor None in
  let depth = Hashtbl.create 8 in
  let opened = Hashtbl.create 8 in
  let busy = Hashtbl.create 8 in
  let lost = ref 0 in
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
  let counts = function
    | Runtime_events.EV_DOMAIN_CONDITION_WAIT -> false
    | _ -> true
  in
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  let runtime_begin slot t phase =
    if counts phase then begin
      let d = get depth slot in
      if d = 0 then Hashtbl.replace opened slot (ts t);
      Hashtbl.replace depth slot (d + 1)
    end
  in
  let runtime_end slot t phase =
    if counts phase then begin
      let d = get depth slot in
      if d = 1 then
        Hashtbl.replace busy slot (get busy slot + ts t - get opened slot);
      Hashtbl.replace depth slot (max 0 (d - 1))
    end
  in
  let lost_events _ n = lost := !lost + n in
  let cb =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events
      ()
  in
  let rec poll () =
    ignore (Runtime_events.read_poll cursor cb None);
    sample_threads latest;
    if not (Atomic.get stop) then begin
      Unix.sleepf 0.002;
      poll ()
    end
  in
  poll ();
  Runtime_events.free_cursor cursor;
  let spawned =
    Hashtbl.fold
      (fun tid v acc ->
        if tid = me || Hashtbl.mem before tid then acc else (tid, v) :: acc)
      latest []
  in
  { gc_ns = Hashtbl.fold (fun k v acc -> (k, v) :: acc) busy [];
    lost = !lost;
    reader_slot = (Domain.self () :> int);
    spawned
  }

let start () =
  if not !started then begin
    Runtime_events.start ();
    started := true
  end;
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let before = Hashtbl.create 16 in
  sample_threads before;
  let reader =
    Domain.spawn (fun () ->
        Atomic.set ready true;
        read_loop ~before stop)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  { stop; reader }

let finish t =
  Atomic.set t.stop true;
  Domain.join t.reader

(* the summed accounting of the given spawned threads *)
let sched_of totals ~tids =
  List.fold_left
    (fun acc (tid, v) ->
      if List.mem tid tids then
        { cpu_ns = acc.cpu_ns + v.cpu_ns; wait_ns = acc.wait_ns + v.wait_ns }
      else acc)
    { cpu_ns = 0; wait_ns = 0 } totals.spawned

(* GC share of [wall_s] on the main domain (slot 0), and the mean share
   over the other slots that recorded any GC time (the reader's own slot
   left out). *)
let shares totals ~wall_s =
  let wall_ns = wall_s *. 1e9 in
  let main =
    float_of_int (Option.value (List.assoc_opt 0 totals.gc_ns) ~default:0)
    /. wall_ns
  in
  let others =
    List.filter (fun (s, _) -> s <> 0 && s <> totals.reader_slot) totals.gc_ns
  in
  let others_share =
    match others with
    | [] -> 0.
    | l ->
      float_of_int (List.fold_left (fun a (_, v) -> a + v) 0 l)
      /. (wall_ns *. float_of_int (List.length l))
  in
  main, others_share
