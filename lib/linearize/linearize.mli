(** Linearizability checking for the shared objects of the model.

    The multicore backend claims that OCaml's [Atomic] primitives implement
    the paper's objects.  This module substantiates that claim: given a
    concurrent history of operations applied to one shared object, it
    decides — with the Wing & Gong algorithm — whether the history is
    linearizable with respect to the object's sequential specification.

    Events carry a model action ([Shmem.Op.action]) and a model response
    ([Shmem.Value.t]), and legality is delegated to [Shmem.Obj_kind.apply],
    so one checker covers registers, swap objects, TAS and CAS alike.
    [lib/runtime] records histories in exactly this format, from protocol
    runs ([Runtime.Make]'s [~record:true]) and from single-cell stress runs
    ([Runtime.record_cell]).

    A deliberately non-atomic exchange (read, pause, write) produces
    non-linearizable histories under contention, which the checker
    detects — see test_runtime's mutation tests. *)

(** Histories over any object kind of the model. *)
module Obj_history : sig
  type event = {
    thread : int;
    action : Shmem.Op.action;
    response : Shmem.Value.t;  (** the value the operation returned *)
    start : int;  (** global timestamp at invocation *)
    finish : int;  (** global timestamp at response *)
  }

  val pp_event : Format.formatter -> event -> unit

  val linearizable :
    kind:Shmem.Obj_kind.t -> init:Shmem.Value.t -> event list -> bool
  (** Wing & Gong search for a legal sequential ordering: an operation may
      be linearized next only if no other pending operation finished before
      it started, and its response must match [Obj_kind.apply] from the
      value the prefix produced.  Memoized on the (linearized-set, value)
      pair; exponential in the worst case, so keep histories small
      (≲ 24 events).
      @raise Invalid_argument on histories longer than 62 events *)

  val explain :
    kind:Shmem.Obj_kind.t ->
    init:Shmem.Value.t ->
    event list ->
    (event list, string) result
  (** like {!linearizable} but returns the witness order, or a message
      describing why none exists *)
end
