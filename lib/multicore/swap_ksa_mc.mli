(** Algorithm 1 on real shared memory: [n] domains racing on [n-k] hardware
    swap objects.  OCaml 5's [Atomic.exchange] compiles to an atomic
    exchange instruction, which is exactly the paper's [Swap(B, v)]: it
    sets the value and returns the previous one in one atomic step.  The
    objects are only ever swapped, never read, and the lap-counter arrays
    stored in them are never mutated after the swap.

    Obstruction freedom alone does not guarantee termination under real
    contention, so each process performs randomized exponential backoff
    after a conflicted pass; by Giakkoupis, Helmi, Higham and Woelfel [23]
    (cited in §2), obstruction-free algorithms can be transformed into
    randomized wait-free ones against an oblivious adversary using the same
    objects, and backoff is the practical version of that transformation.

    This module is the {e hand-optimized} implementation of Algorithm 1:
    it hard-codes the pass structure instead of interpreting the protocol
    state machine.  The generic backend ([Runtime.Make] over
    [Core.Swap_ksa]) executes the same algorithm from its [Protocol.S]
    definition; the two are differentially tested against each other and
    compared in bench T7. *)

type outcome = {
  decisions : int array;  (** decision of each process, index = pid *)
  passes : int array;  (** full passes over the objects, per process *)
  swaps : int array;  (** Swap operations executed, per process *)
  elapsed : float;
      (** monotonic seconds ([Resil.Clock]) for all processes to decide *)
}

val run :
  n:int ->
  k:int ->
  m:int ->
  inputs:int array ->
  ?seed:int ->
  ?max_passes:int ->
  unit ->
  outcome
(** run one instance: spawns [n] domains (oversubscription beyond the
    machine's cores is allowed and scheduled by the OS).  [max_passes]
    (default 1_000_000) bounds each process's passes; exceeding it raises
    [Failure], which with backoff in place indicates a bug rather than
    contention.
    @raise Invalid_argument unless [n > k >= 1], [m >= 2] and inputs are in
    range *)

val check : inputs:int array -> k:int -> outcome -> (unit, string) result
(** verify k-agreement and validity of an outcome *)
