(** A registry of every agreement algorithm in the repository, with the
    metadata the generic harnesses need: how to prune unbounded state for
    exhaustive checking, how long a solo window guarantees progress, and
    the algorithm's stated space bound.

    The conformance test suite and the benchmark tables iterate this
    registry, so a new algorithm added here is automatically model-checked,
    property-tested and benchmarked. *)

type entry = {
  name : string;
  protocol : Shmem.Protocol.t;
  prune : Shmem.Value.t array -> bool;
      (** checker pruning predicate over a memory snapshot (constant [false]
          for protocols with finite reachable space) *)
  burst : int;  (** a solo window guaranteeing progress under bursty runs *)
  stated_objects : string;  (** the bound from the paper / related work *)
  multicore_runnable : bool;
      (** whether the protocol can be executed on real domains by
          [Runtime.Make]: true for the algorithms whose obstruction-freedom
          is unconditional, false for the cap-bounded unary-track
          constructions (binary-track, tas-track, bitwise), which may
          livelock at the cap under real concurrency *)
  solo_bound : int option;
      (** a {e proved} bound on the number of steps in any solo execution:
          [8(n-k)] for Algorithm 1 (Lemma 8).  [None] where the source
          gives no closed-form solo bound.  [lib/analyze]'s solo-bound
          verifier checks measured solo executions against this. *)
  props : Prop.pack;
      (** the declared properties attached to this algorithm, over the
          {e same} module the [protocol] field packs (unpack the pack first
          and instantiate checkers from its [P] so the types unify — see
          {!Prop.PACK}); [protocol] is the pack's [P].  Algorithm 1
          entries carry the §4 invariants
          ([Core.Swap_ksa_monitor.Make.online_props]); every other entry
          carries {!Prop.generic_pack}'s protocol-independent set.  The
          checker's own built-ins (k-agreement, validity, solo-termination)
          are always additionally in force. *)
}

val lap_prune : int -> Shmem.Value.t array -> bool
(** [lap_prune bound mem]: some lap counter in a [Pair (Ints laps, _)] cell
    of [mem] exceeds [bound] — the per-cell lap cap that makes the racing
    algorithms' reachable space finite for exhaustive checking *)

val total_lap_prune : int -> Shmem.Value.t array -> bool
(** [total_lap_prune budget mem]: the lap counters of all [Pair (Ints laps,
    _)] cells of [mem] sum to more than [budget] — a tighter bound on total
    progress, for instances whose per-cell-capped space is still too
    large *)

val standard : ?n:int -> unit -> entry list
(** the standard grid at [n] processes (default 4): Algorithm 1 for k=1 and
    k=2, the register / readable-swap / binary-track (plain, eager, TAS) /
    bitwise / grouped / CAS / one-object algorithms. *)

val resolve :
  string -> n:int -> k:int -> m:int -> cap:int -> (Prop.pack, string) result
(** [resolve name ~n ~k ~m ~cap] builds the protocol family the command
    line calls [name] — one of [swap-ksa], [register-ksa], [readable-swap],
    [binary-track], [bitwise], [grouped], [cas], [two-proc], [pair-ksa] —
    at the given parameters (each family reads the ones it takes:
    [two-proc] ignores [n] and [k], [binary-track] reads only [n] and
    [cap], and so on), packed with its declared properties: the §4
    invariants for [swap-ksa], {!Prop.generic_pack}'s set for the rest.
    The protocol is the pack's [P].  {!standard}'s entries are built from
    the same per-family constructors.  [Error] names an unknown family
    (listing the known ones) or carries the constructor's rejection of the
    parameters (e.g. [swap-ksa] with [k >= n]). *)

val find : string -> n:int -> (entry, string) result
(** look up a registry entry at a given [n]: an exact name match wins;
    otherwise the name is treated as a prefix, which must select a single
    entry.  [Error] describes unknown names (listing the available entries)
    and ambiguous prefixes (listing the matches) *)
