module Make (P : Shmem.Protocol.S) = struct
  module E = Shmem.Exec.Make (P)

  type id = int

  (* Metric handles are find-or-create by name, so every Make instantiation
     feeds the same series; each site is one branch when Obs is disabled. *)
  let m_interned = Obs.counter "explore.configs.interned"
  let m_dedup = Obs.counter "explore.configs.dedup_hits"
  let m_visited = Obs.counter "explore.visited"
  let m_solo_hits = Obs.counter "explore.solo.cache_hits"
  let m_solo_misses = Obs.counter "explore.solo.cache_misses"
  let m_canon = Obs.counter "explore.canon.renamed"
  let m_por = Obs.counter "explore.por.pruned"
  let h_orbit = Obs.histogram "explore.canon.orbit_size"
  let h_frontier = Obs.histogram "explore.frontier_level"
  let sp_bfs = Obs.span "explore.bfs"
  let sp_walk = Obs.span "explore.walk"

  let default_solo_cap = 64 * (Array.length P.objects + 1)

  (* Configurations enter the index paired with their hash, computed once
     per [intern] call: shard selection, bucket lookup and insertion all
     reuse it instead of re-walking the configuration. *)
  module Cfg_key = struct
    type t = { h : int; c : E.config }

    let equal a b = a.h = b.h && E.equal_config a.c b.c
    let hash k = k.h
  end

  module Cfg_tbl = Hashtbl.Make (Cfg_key)

  (* Under symmetry reduction the stored [config] is the canonical orbit
     representative ĉ; [witness] is the permutation σ (as an array,
     [None] = identity) with ĉ = σ·c for the configuration [c] that was
     first reached along the recorded [parent] edge, whose step is spelled
     in the {e parent's} canonical frame.  [trace_to] composes the inverse
     witnesses along the back-edge chain to recover a concrete schedule. *)
  type entry = {
    config : E.config;
    parent : (id * Shmem.Trace.step) option;
    witness : int array option;
  }

  (* One lockable partition of the store.  Ids interleave across shards
     ([slot * nshards + shard]), so id allocation needs no global lock. *)
  type shard = {
    index : int Cfg_tbl.t;  (* configuration -> slot within this shard *)
    mutable entries : entry array;
    mutable len : int;
    lock : Mutex.t;
  }

  (* The unreduced solo oracle is a two-level memo, memory first: only
     [pid]'s state and the memory can influence a solo execution of [pid],
     and every undecided pid of one visited configuration is asked about
     the same memory.  [Mem_tbl] maps a memory, hashed and compared once per
     visit, to that memory's own small table of (pid, state) verdicts, so
     the equivalence classes are exactly the (pid, state, memory)
     restrictions while each further pid costs one state hash and one state
     comparison. *)
  module Mem_key = struct
    type t = { h : int; mem : Shmem.Value.t array }

    let equal a b = a.h = b.h && Array.for_all2 Shmem.Value.equal a.mem b.mem
    let hash k = k.h
  end

  module Mem_tbl = Hashtbl.Make (Mem_key)

  module Pid_key = struct
    type t = { h : int; pid : int; st : P.state }

    let equal a b =
      a.h = b.h && Int.equal a.pid b.pid && P.equal_state a.st b.st

    let hash k = k.h
  end

  module Pid_tbl = Hashtbl.Make (Pid_key)

  (* one memory's verdicts, guarded by the lock of the shard holding it *)
  type mem_node = { verdicts : int option Pid_tbl.t; node_lock : Mutex.t }

  (* The canonical solo key used under symmetry reduction: the restriction
     is renamed by the injective map (own pid ↦ 0, memory first-mentions
     ↦ 1, 2, …, remaining pids ascending), so one verdict serves the whole
     orbit of the restriction, not just one configuration. *)
  module Solo_ckey = struct
    type t = { h : int; st : P.state; mem : Shmem.Value.t array }

    let equal a b =
      a.h = b.h && P.equal_state a.st b.st
      && Array.length a.mem = Array.length b.mem
      && Array.for_all2 Shmem.Value.equal a.mem b.mem

    let hash k = k.h
  end

  module Solo_ctbl = Hashtbl.Make (Solo_ckey)

  let mem_hash mem =
    let h = ref 19 in
    Array.iter (fun v -> h := (!h * 31) + Shmem.Value.hash v) mem;
    !h land max_int

  type solo_shard = {
    memories : mem_node Mem_tbl.t;
    cverdicts : int option Solo_ctbl.t;
    solo_lock : Mutex.t;
  }

  (* The memory memo: the last memory this domain looked up, by physical
     identity, with its node.  Stored configurations are immutable and the
     solo properties of one visit share the snapshot's arrays, so the n
     queries of a visit find the node here after the first.  Domain-local
     (parallel workers never share it) and stamped with the owning
     exploration's [uid] (two explorations on one domain never share a
     node).  Holding [mem] keeps the array alive, so its address cannot be
     reused by another memory while it is remembered. *)
  type memo = {
    mutable owner : int;
    mutable mem : Shmem.Value.t array;
    mutable node : mem_node;
  }

  let memo_key =
    Domain.DLS.new_key (fun () ->
        { owner = -1
        ; mem = [||]
        ; node = { verdicts = Pid_tbl.create 1; node_lock = Mutex.create () }
        })

  let next_uid = Atomic.make 0

  type t = {
    uid : int;  (* identifies this exploration to the memory memo *)
    shards : shard array;
    nshards : int;
    total : int Atomic.t;  (* interned configurations across all shards *)
    solo : solo_shard array;
    cap : int;
    ins : int array;
    root : id;
    symfns : ((P.state -> int) * ((int -> int) -> P.state -> P.state)) option;
    por : bool;
  }

  let locked lock f =
    Mutex.lock lock;
    match f () with
    | v ->
      Mutex.unlock lock;
      v
    | exception e ->
      Mutex.unlock lock;
      raise e

  (* ------------------------------------------------------ permutations *)

  let inv sigma =
    let r = Array.make (Array.length sigma) 0 in
    Array.iteri (fun p j -> r.(j) <- p) sigma;
    r

  let inv_opt = function None -> None | Some s -> Some (inv s)

  (* [compose a b] is a ∘ b with [None] as the identity *)
  let compose a b =
    match a, b with
    | None, x | x, None -> x
    | Some a, Some b -> Some (Array.init P.n (fun p -> a.(b.(p))))

  (* First-mention rank of each pid in a structural left-to-right scan of
     the memory.  Renaming the whole configuration by π moves π p to the
     scan position p held, so rank is orbit-invariant and sound as a
     canonical sort key. *)
  let mem_ranks (c : E.config) =
    let rank = Array.make P.n max_int in
    let next = ref 0 in
    Array.iter
      (fun v ->
        Shmem.Value.fold_pids
          (fun () p ->
            if p >= 0 && p < P.n && rank.(p) = max_int then begin
              rank.(p) <- !next;
              incr next
            end)
          () v)
      c.E.mem;
    rank

  let factorial k =
    let r = ref 1 in
    for i = 2 to k do
      r := !r * i
    done;
    !r

  (* n! / ∏ (size of each equal-(key, rank) class)! — a lower bound on the
     orbit size of the configuration (classes that are genuinely
     interchangeable shrink the orbit; hash collisions only overcount the
     classes, never the bound's soundness as a bound) *)
  let orbit_lower_bound keys rank order =
    let n = Array.length order in
    let denom = ref 1 and run = ref 1 in
    for j = 1 to n - 1 do
      let p = order.(j) and q = order.(j - 1) in
      if keys.(p) = keys.(q) && rank.(p) = rank.(q) then begin
        incr run;
        denom := !denom * !run
      end
      else run := 1
    done;
    factorial n / !denom

  (* The canonical orbit representative: sort process slots by
     (renaming-invariant state key, memory first-mention rank, pid) and
     apply the resulting permutation to the whole configuration.  Both sort
     keys are invariant across the orbit, so every member maps to the same
     representative up to [canon_key] collisions — and a collision only
     loses collapse, never soundness (the representative is still a genuine
     orbit member, reached via the returned witness). *)
  let canonicalize t (c : E.config) : E.config * int array option =
    match t.symfns with
    | None -> c, None
    | Some (canon_key, rename_state) ->
      let n = P.n in
      let rank = mem_ranks c in
      let keys = Array.map canon_key c.E.states in
      let order = Array.init n Fun.id in
      Array.sort
        (fun p q ->
          let cmp = compare keys.(p) keys.(q) in
          if cmp <> 0 then cmp
          else
            let cmp = compare rank.(p) rank.(q) in
            if cmp <> 0 then cmp else compare p q)
        order;
      if Obs.enabled () then
        Obs.Histogram.observe h_orbit (orbit_lower_bound keys rank order);
      let identity = ref true in
      Array.iteri (fun j p -> if j <> p then identity := false) order;
      if !identity then c, None
      else begin
        let sigma = Array.make n 0 in
        Array.iteri (fun j p -> sigma.(p) <- j) order;
        Obs.Counter.incr m_canon;
        E.rename ~perm:sigma ~rename_state c, Some sigma
      end

  (* Hash-cons [c].  [frame] is the permutation mapping the caller's
     concrete parent configuration to the parent's stored representative
     (identity except under [walk] with reduction on): the parent step is
     renamed into that frame and the stored witness adjusted so the
     [trace_to] invariant holds.  The returned permutation maps THIS call's
     [c] to the stored representative — also on dedup hits, which is what
     [walk] needs to keep tracking its own frame. *)
  let intern_entry t ~parent ~frame c =
    let canon, w = canonicalize t c in
    let parent =
      match parent, frame with
      | None, _ | _, None -> parent
      | Some (id, step), Some f ->
        Some (id, Shmem.Trace.rename_step (fun p -> f.(p)) step)
    in
    let witness = compose w (inv_opt frame) in
    let h = E.hash_config canon in
    let sh = h mod t.nshards in
    let s = t.shards.(sh) in
    let key = { Cfg_key.h; c = canon } in
    let id, fresh =
      locked s.lock (fun () ->
          match Cfg_tbl.find_opt s.index key with
          | Some slot -> (slot * t.nshards) + sh, false
          | None ->
            let slot = s.len in
            if slot >= Array.length s.entries then begin
              let grown =
                Array.make
                  (max 16 (2 * Array.length s.entries))
                  { config = canon; parent; witness }
              in
              Array.blit s.entries 0 grown 0 s.len;
              s.entries <- grown
            end;
            s.entries.(slot) <- { config = canon; parent; witness };
            s.len <- slot + 1;
            Cfg_tbl.replace s.index key slot;
            Atomic.incr t.total;
            (slot * t.nshards) + sh, true)
    in
    if fresh then Obs.Counter.incr m_interned else Obs.Counter.incr m_dedup;
    id, fresh, w

  let intern t ?parent c =
    let id, fresh, _ = intern_entry t ~parent ~frame:None c in
    id, fresh

  let create ?(shards = 1) ?(solo_cap = default_solo_cap) ?(sym = false)
      ?(por = false) ~inputs () =
    let nshards = max 1 shards in
    let c0 = E.initial ~inputs in
    let dummy = { config = c0; parent = None; witness = None } in
    let symfns =
      if not sym then None
      else
        match P.symmetry with
        | Shmem.Protocol.Asymmetric -> None
        | Shmem.Protocol.Anonymous { canon_key; rename } ->
          Some (canon_key, rename)
    in
    let t =
      { uid = Atomic.fetch_and_add next_uid 1
      ; shards =
          Array.init nshards (fun _ ->
              { index = Cfg_tbl.create 1024
              ; entries = Array.make 64 dummy
              ; len = 0
              ; lock = Mutex.create ()
              })
      ; nshards
      ; total = Atomic.make 0
      ; solo =
          Array.init nshards (fun _ ->
              { memories = Mem_tbl.create 1024
              ; cverdicts = Solo_ctbl.create 1024
              ; solo_lock = Mutex.create ()
              })
      ; cap = solo_cap
      ; ins = Array.copy inputs
      ; root = 0 (* patched below *)
      ; symfns
      ; por
      }
    in
    let root, _ = intern t c0 in
    { t with root }

  let root t = t.root
  let inputs t = Array.copy t.ins
  let size t = Atomic.get t.total
  let solo_cap t = t.cap
  let sym_enabled t = Option.is_some t.symfns
  let por_enabled t = t.por

  let entry t id =
    let s = t.shards.(id mod t.nshards) in
    locked s.lock (fun () -> s.entries.(id / t.nshards))

  let config t id = (entry t id).config

  (* [trace_to_frame t id] is the concrete schedule reaching [id]'s orbit,
     paired with the final frame F (as a permutation array, [None] =
     identity) satisfying F·(stored config of [id]) = the concrete
     configuration the schedule reaches from [E.initial] — so a further
     step spelled in [id]'s canonical frame extends the schedule once
     renamed by F (that is [trace_via]). *)
  let trace_to_frame t id =
    let rec collect id acc =
      let e = entry t id in
      match e.parent with
      | None -> e.witness, acc
      | Some (parent, step) -> collect parent ((step, e.witness) :: acc)
    in
    let w0, edges = collect id [] in
    if Option.is_none w0 && List.for_all (fun (_, w) -> Option.is_none w) edges
    then List.map fst edges, None
    else begin
      (* Maintain F with F·(stored config) = the concrete configuration the
         emitted prefix reaches from [E.initial]: start at inv σ_root and
         compose F ∘ σ⁻¹ across each edge, renaming the stored step (spelled
         in the parent's canonical frame) by the parent's F. *)
      let f = ref (match w0 with None -> Array.init P.n Fun.id | Some s -> inv s)
      in
      let steps =
        List.map
          (fun (step, w) ->
            let cur = !f in
            let step' =
              Shmem.Trace.rename_step
                (fun p -> if p >= 0 && p < P.n then cur.(p) else p)
                step
            in
            (match w with
            | None -> ()
            | Some s ->
              let is = inv s in
              f := Array.init P.n (fun j -> cur.(is.(j))));
            step')
          edges
      in
      steps, Some !f
    end

  let trace_to t id = fst (trace_to_frame t id)

  let trace_via t id step =
    let steps, frame = trace_to_frame t id in
    let step' =
      match frame with
      | None -> step
      | Some cur ->
        Shmem.Trace.rename_step
          (fun p -> if p >= 0 && p < P.n then cur.(p) else p)
          step
    in
    steps @ [ step' ]

  (* [mem]'s node in [t]'s oracle, found or created: through the memory
     memo when [mem] is the array this domain looked up last, otherwise
     hashed and compared once in its shard's table *)
  let mem_node t mem =
    let m = Domain.DLS.get memo_key in
    if m.owner = t.uid && m.mem == mem then m.node
    else begin
      let h = mem_hash mem in
      let s = t.solo.(h mod t.nshards) in
      let key = { Mem_key.h; mem } in
      let node =
        locked s.solo_lock (fun () ->
            match Mem_tbl.find_opt s.memories key with
            | Some node -> node
            | None ->
              let node =
                { verdicts = Pid_tbl.create 8; node_lock = s.solo_lock }
              in
              Mem_tbl.replace s.memories key node;
              node)
      in
      m.owner <- t.uid;
      m.mem <- mem;
      m.node <- node;
      node
    end

  let solo_steps t ~pid c =
    let run_verdict () =
      (* computed outside the lock: a racing duplicate computation is
         harmless (the verdict is deterministic) *)
      match E.run_solo ~pid ~max_steps:t.cap c with
      | None -> None
      | Some (_, trace) -> Some (Shmem.Trace.length trace)
    in
    match t.symfns with
    | None ->
      let node = mem_node t c.E.mem in
      let st = c.E.states.(pid) in
      let key =
        { Pid_key.h = ((P.hash_state st * 31) + pid) land max_int; pid; st }
      in
      (match
         locked node.node_lock (fun () -> Pid_tbl.find_opt node.verdicts key)
       with
      | Some verdict ->
        Obs.Counter.incr m_solo_hits;
        verdict
      | None ->
        Obs.Counter.incr m_solo_misses;
        let verdict = run_verdict () in
        locked node.node_lock (fun () ->
            Pid_tbl.replace node.verdicts key verdict);
        verdict)
    | Some (_, rename_state) ->
      (* a solo execution reads only ([pid]'s state, memory); for an
         anonymous protocol its verdict is invariant under renaming that
         restriction, so key it canonically: own pid ↦ 0, memory
         first-mentions ↦ 1, 2, …, remaining pids ascending *)
      let g = Array.make P.n (-1) in
      g.(pid) <- 0;
      let next = ref 1 in
      Array.iter
        (fun v ->
          Shmem.Value.fold_pids
            (fun () p ->
              if p >= 0 && p < P.n && g.(p) < 0 then begin
                g.(p) <- !next;
                incr next
              end)
            () v)
        c.E.mem;
      for p = 0 to P.n - 1 do
        if g.(p) < 0 then begin
          g.(p) <- !next;
          incr next
        end
      done;
      let f p = if p >= 0 && p < P.n then g.(p) else p in
      let st = rename_state f c.E.states.(pid) in
      let mem = Array.map (Shmem.Value.rename f) c.E.mem in
      let h = ref (P.hash_state st) in
      Array.iter (fun v -> h := (!h * 31) + Shmem.Value.hash v) mem;
      let key = { Solo_ckey.h = !h land max_int; st; mem } in
      let s = t.solo.(key.Solo_ckey.h mod t.nshards) in
      (match
         locked s.solo_lock (fun () -> Solo_ctbl.find_opt s.cverdicts key)
       with
      | Some verdict ->
        Obs.Counter.incr m_solo_hits;
        verdict
      | None ->
        Obs.Counter.incr m_solo_misses;
        let verdict = run_verdict () in
        locked s.solo_lock (fun () ->
            Solo_ctbl.replace s.cverdicts key verdict);
        verdict)

  let solo_ok t ~pid c = solo_steps t ~pid c <> None

  (* ---------------------------------------------- partial-order reduction *)

  (* Two poised operations commute when they cannot influence each other's
     response: distinct objects, or both reads of the same object. *)
  let commuting_front c en =
    let ops = List.map (fun p -> E.poised c p) en in
    let commute (o : Shmem.Op.t) (o' : Shmem.Op.t) =
      o.Shmem.Op.obj <> o'.Shmem.Op.obj
      ||
      match o.Shmem.Op.action, o'.Shmem.Op.action with
      | Shmem.Op.Read, Shmem.Op.Read -> true
      | _, _ -> false
    in
    let rec pairwise = function
      | [] -> true
      | o :: rest -> List.for_all (commute o) rest && pairwise rest
    in
    pairwise ops

  let all_deciding c en =
    List.for_all
      (fun p ->
        let c', _ = E.step c p in
        Option.is_some (E.decision c' p))
      en

  (* The one reduction rule: when every enabled process's next step decides
     it and the poised operations pairwise commute, every interleaving of
     the front yields the same responses — hence the same decisions and
     final memory — and no intermediate configuration can exhibit a
     violation that the fully-stepped one (which IS visited) does not.
     Expanding only the least pid is therefore sound for agreement,
     validity and solo termination; see DESIGN.md for the argument. *)
  let expansion t c en =
    match en with
    | [] | [ _ ] -> en
    | p :: _ when t.por && commuting_front c en && all_deciding c en ->
      Obs.Counter.add m_por (List.length en - 1);
      [ p ]
    | _ -> en

  type verdict = Continue | Prune | Stop

  type visit = {
    id : id;
    config : E.config;
    depth : int;
    path : Shmem.Trace.t Lazy.t;
  }

  type stats = { visited : int; truncated : bool; stopped : bool }

  (* Every expanded edge, reported to [?on_step] observers as it is taken.
     During graph traversals [before]/[after] are spelled in [src]'s
     canonical frame (they are concrete when reduction is off); during
     [walk] they are the walk's own concrete configurations.  [dst] names
     [after]'s orbit representative; [fresh] is false on dedup hits. *)
  type step_obs = {
    src : id;
    before : E.config;
    step : Shmem.Trace.step;
    after : E.config;
    dst : id;
    fresh : bool;
  }

  (* One BFS level: configuration ids in discovery order, in a growable
     array reused from level to level. *)
  type level = { mutable ids : int array; mutable len : int }

  let new_level () = { ids = Array.make 64 0; len = 0 }

  let push l id =
    if l.len = Array.length l.ids then begin
      let ids = Array.make (2 * l.len) 0 in
      Array.blit l.ids 0 ids 0 l.len;
      l.ids <- ids
    end;
    l.ids.(l.len) <- id;
    l.len <- l.len + 1

  let append l l' =
    for i = 0 to l'.len - 1 do
      push l l'.ids.(i)
    done

  (* The one traversal.  Level by level, each configuration is visited,
     then pruned or budget-checked, then expanded over its enabled
     processes in ascending pid order; fresh successors join the next
     level in discovery order.  On one domain this is exactly the seed
     checker's FIFO loop: same visit order, same ids, same [on_step]
     sequence.  On more, large levels are cut into contiguous slices
     expanded by a pool of [domains - 1] workers plus the caller, and the
     slices' successors are concatenated in slice order. *)
  let bfs t ?(domains = 1) ?(max_configs = max_int) ?on_step ~visit () =
    let visited = Atomic.make 0 in
    let truncated = Atomic.make false and stopped = Atomic.make false in
    (* expand [frontier.ids.(lo .. hi - 1)] into [next] *)
    let expand depth frontier lo hi next =
      let i = ref lo in
      while !i < hi && not (Atomic.get stopped) do
        let id = frontier.ids.(!i) in
        let c = config t id in
        incr i;
        Atomic.incr visited;
        Obs.Counter.incr m_visited;
        match visit { id; config = c; depth; path = lazy (trace_to t id) } with
        | Stop -> Atomic.set stopped true
        | Prune -> Atomic.set truncated true
        | Continue ->
          if size t >= max_configs then Atomic.set truncated true
          else
            List.iter
              (fun pid ->
                let c', step = E.step c pid in
                let id', fresh = intern t ~parent:(id, step) c' in
                (match on_step with
                | None -> ()
                | Some f ->
                  f { src = id; before = c; step; after = c'; dst = id'; fresh });
                if fresh then push next id')
              (expansion t c (E.undecided c))
      done
    in
    (* Persistent worker pool: [domains - 1] spawned domains plus the
       caller, synchronised once per level through a generation counter
       (spawning a domain per level costs more than expanding a whole small
       level).  Workers block on the condition variable between levels, so
       idle domains burn no cpu. *)
    let nworkers = max 0 (domains - 1) in
    let pool_lock = Mutex.create () in
    let pool_cond = Condition.create () in
    let slices = Array.make nworkers (0, 0, 0) in
    let results = Array.init nworkers (fun _ -> new_level ()) in
    let frontier = ref (new_level ()) and next = ref (new_level ()) in
    let generation = ref 0 and pending = ref 0 and quit = ref false in
    let worker i =
      let rec serve my_gen =
        Mutex.lock pool_lock;
        while !generation = my_gen && not !quit do
          Condition.wait pool_cond pool_lock
        done;
        if !quit then Mutex.unlock pool_lock
        else begin
          let gen = !generation and depth, lo, hi = slices.(i) in
          Mutex.unlock pool_lock;
          results.(i).len <- 0;
          expand depth !frontier lo hi results.(i);
          Mutex.lock pool_lock;
          decr pending;
          Condition.broadcast pool_cond;
          Mutex.unlock pool_lock;
          serve gen
        end
      in
      serve 0
    in
    let workers =
      Array.init nworkers (fun i -> Domain.spawn (fun () -> worker i))
    in
    (* fan the level out to the pool; the caller expands the first slice
       while the workers run the others *)
    let expand_level depth len =
      let cut j = j * len / (nworkers + 1) in
      Mutex.lock pool_lock;
      for i = 0 to nworkers - 1 do
        slices.(i) <- depth, cut (i + 1), cut (i + 2)
      done;
      pending := nworkers;
      incr generation;
      Condition.broadcast pool_cond;
      Mutex.unlock pool_lock;
      expand depth !frontier 0 (cut 1) !next;
      Mutex.lock pool_lock;
      while !pending > 0 do
        Condition.wait pool_cond pool_lock
      done;
      Mutex.unlock pool_lock;
      Array.iter (append !next) results
    in
    let rec go depth =
      let len = !frontier.len in
      if len > 0 && not (Atomic.get stopped) then begin
        if Obs.enabled () then Obs.Histogram.observe h_frontier len;
        !next.len <- 0;
        (* below this size, level fan-out costs more than it saves *)
        if nworkers = 0 || len < 4 * domains then
          expand depth !frontier 0 len !next
        else expand_level depth len;
        let l = !frontier in
        frontier := !next;
        next := l;
        go (depth + 1)
      end
    in
    push !frontier t.root;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock pool_lock;
        quit := true;
        Condition.broadcast pool_cond;
        Mutex.unlock pool_lock;
        Array.iter Domain.join workers)
      (fun () -> Obs.Span.time sp_bfs (fun () -> go 0));
    { visited = Atomic.get visited
    ; truncated = Atomic.get truncated
    ; stopped = Atomic.get stopped
    }

  type walk_stop = Visit_stop | Visit_prune | Stuck | Max_steps

  type walk_result = { last : id; steps : int; stop : walk_stop }

  let walk t ~sched ?(enabled = E.undecided) ?on_step ~max_steps ~visit () =
    (* The walk runs over concrete configurations — schedulers and visitors
       see genuine states even under symmetry reduction — while each
       position is interned by canonical representative.  [sigma] maps the
       current concrete configuration to its stored representative, so the
       parent edge can be spelled in the parent's canonical frame as
       [trace_to] requires. *)
    let rec go id sigma c rev_steps i =
      Obs.Counter.incr m_visited;
      match
        visit { id; config = c; depth = i; path = lazy (List.rev rev_steps) }
      with
      | Stop -> { last = id; steps = i; stop = Visit_stop }
      | Prune -> { last = id; steps = i; stop = Visit_prune }
      | Continue ->
        if i >= max_steps then { last = id; steps = i; stop = Max_steps }
        else (
          match enabled c with
          | [] -> { last = id; steps = i; stop = Stuck }
          | en -> (
            match sched ~step_index:i c en with
            | None -> { last = id; steps = i; stop = Stuck }
            | Some pid ->
              let c', step = E.step c pid in
              let id', fresh, sigma' =
                intern_entry t ~parent:(Some (id, step)) ~frame:sigma c'
              in
              (match on_step with
              | None -> ()
              | Some f ->
                f { src = id; before = c; step; after = c'; dst = id'; fresh });
              go id' sigma' c' (step :: rev_steps) (i + 1)))
    in
    let c0 = E.initial ~inputs:t.ins in
    let sigma0 = (entry t t.root).witness in
    Obs.Span.time sp_walk (fun () -> go t.root sigma0 c0 [] 0)
end
