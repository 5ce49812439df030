(* Outside-in layer timing for the exploration workloads.  A traced run
   keeps the exploration store it produced (or captures every expanded
   edge) and then re-issues the same calls into each layer's public
   functions with a timer around them:

   - [Exec.step] on every expanded (configuration, pid) pair;
   - [Explore.intern] of every successor into a fresh store, once with
     symmetry reduction off and once with the workload's own setting — the
     difference is canonicalization;
   - a bare [Explore.bfs] with the workload's prune and no properties,
     whose wall minus step and intern is the traversal's own bookkeeping
     (frontier, back-edges, visitor dispatch). *)

module Make (P : Shmem.Protocol.S) (X : module type of Explore.Make (P)) =
struct
  type edges = {
    mutable src : X.E.config array;
    mutable pid : int array;
    mutable n : int;
  }

  let edges () = { src = [||]; pid = [||]; n = 0 }

  let push e c pid =
    if e.n = Array.length e.pid then begin
      let cap = max 1024 (2 * e.n) in
      let src = Array.make cap c and pids = Array.make cap 0 in
      Array.blit e.src 0 src 0 e.n;
      Array.blit e.pid 0 pids 0 e.n;
      e.src <- src;
      e.pid <- pids
    end;
    e.src.(e.n) <- c;
    e.pid.(e.n) <- pid;
    e.n <- e.n + 1

  (* every edge the serial BFS expands in an unreduced store: all
     undecided pids of every stored configuration the visitor did not
     prune, in discovery order *)
  let edges_of_store t ~expand =
    let e = edges () in
    for id = 0 to X.size t - 1 do
      let c = X.config t id in
      if expand c then List.iter (push e c) (X.E.undecided c)
    done;
    e

  (* the edges a traversal reports to its [on_step] observer *)
  let recorder () =
    let e = edges () in
    e, fun (s : X.step_obs) -> push e s.X.before s.X.step.Shmem.Trace.pid

  type replayed = {
    step_s : float;  (** time inside [Exec.step] *)
    intern_s : float;  (** time inside [Explore.intern] *)
    calls : int;  (** intern calls, one per edge *)
    fresh : int;  (** of which inserted a new configuration *)
  }

  (* step every edge and intern the successor into a fresh store built
     like [sym]/[por], in edge order, timing the two calls separately.
     Successors are dropped as the traversal drops them, so the replay
     keeps no more alive than the store does. *)
  let replay ~sym ~por ~inputs e =
    let t = X.create ~sym ~por ~inputs () in
    let root = X.root t in
    let step_ns = ref 0 and intern_ns = ref 0 and fresh = ref 0 in
    for i = 0 to e.n - 1 do
      let t0 = Stat.now () in
      let c, s = X.E.step e.src.(i) e.pid.(i) in
      let t1 = Stat.now () in
      let _, f = X.intern t ~parent:(root, s) c in
      let t2 = Stat.now () in
      if f then incr fresh;
      step_ns := !step_ns + Int64.to_int (Int64.sub t1 t0);
      intern_ns := !intern_ns + Int64.to_int (Int64.sub t2 t1)
    done;
    { step_s = float_of_int !step_ns *. 1e-9;
      intern_s = float_of_int !intern_ns *. 1e-9;
      calls = e.n;
      fresh = !fresh
    }

  (* the traversal alone: the workload's store settings and prune, no
     properties; returns its wall and the store *)
  let bare_bfs ~sym ~por ~inputs ~max_configs ?on_step ~prune () =
    let t = X.create ~sym ~por ~inputs () in
    let visit (v : X.visit) = if prune v.X.config then X.Prune else X.Continue in
    let stats, s = Stat.time (fun () -> X.bfs t ~max_configs ?on_step ~visit ()) in
    t, stats, s
end
