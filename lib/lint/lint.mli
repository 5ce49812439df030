(** A multi-pass static-analysis framework over OCaml sources.

    The repository's claims rest on protocols being deterministic pure
    transition functions and on the multicore layers following a strict
    shared-state discipline.  The dynamic lints in [lib/analyze] catch
    violations when they manifest; this library rejects the offending
    constructs at the source level.  Each {e pass} inspects the parsetree
    (compiler-libs) of an [.ml] file; the driver parses every file exactly
    once and hands the same tree to each pass scheduled for it, so adding a
    pass never adds a parse.

    Built-in passes:

    - {!purity}: any use of [Random.*], [Unix.*], [Obj.*] or [Marshal.*] —
      protocol code must not read clocks, draw randomness, or defeat the
      type system;
    - {!poly_hash}: [Hashtbl.hash] / [seeded_hash] / [hash_param] and
      qualified [Stdlib.compare] — polymorphic hashing stops after a small
      fixed number of nodes (lap arrays collide) and polymorphic compare
      diverges from the protocol's own [equal_state];
    - {!state_equality}: whole-state polymorphic [=] / [<>] / [compare] on
      the parameters of [equal_state] / [hash_state] / [compare_state]
      bindings — state equality must be structural and explicit;
    - {!monotonic}: wall-clock reads ([Unix.gettimeofday] / [Unix.time] /
      [Sys.time]) in deadline and watchdog code, which jump under NTP slew;
      monotonic time comes from [Resil.Clock];
    - {!domain_escape}: a mutable non-[Atomic] binding ([ref],
      [Hashtbl.create], [Buffer.create], [Queue.create]) syntactically
      reachable from more than one [Domain.spawn] closure — unsynchronized
      cross-domain sharing.  Arrays are deliberately exempt: disjoint
      per-slot writes with a post-join read are the accepted idiom in the
      runtime;
    - {!atomics_discipline}: an [Atomic.set] whose new value is derived
      from an [Atomic.get] of the same cell (the lost-update shape — a
      [compare_and_set] / [exchange] retry loop is required), and blocking
      calls ([Unix.sleep*], [Thread.delay], [Domain.join], [Mutex.lock],
      [Condition.wait]) inside [Policy.retry] bodies, which stall the
      retry budget.

    Used by [bin/srclint] (the @srclint alias) and [swapspace lint]. *)

(** {1 Findings} *)

type finding = {
  file : string;
  line : int;
  col : int;
  pass : string;  (** name of the pass that raised it *)
  message : string;
}

val pp_finding : Format.formatter -> finding -> unit
(** [file:line:col: message [pass]] — one line, compiler style *)

val compare_finding : finding -> finding -> int
(** position first, then pass name, then message — the stable order
    {!run_plan} sorts by so CI diffs are clean *)

(** {1 Passes} *)

type pass

val pass_name : pass -> string
val pass_doc : pass -> string

val purity : pass
val poly_hash : pass
val state_equality : pass
val monotonic : pass
val domain_escape : pass
val atomics_discipline : pass

val registry : pass list
(** every built-in pass, in reporting order *)

val find_pass : string -> (pass, string) result
(** look a pass up by name; [Error] lists the known names *)

val repo_plan : root:string -> (string * pass list) list
(** the repository's lint plan, rooted at [root]: purity, poly-hash and
    state-equality over [lib/core] and [lib/baselines]; the wall-clock
    ban over [lib/resil], [lib/runtime], [lib/arena], [lib/prop],
    [lib/obs], [lib/fault], [lib/multicore] and [bench]; the concurrency
    passes over [lib/runtime], [lib/arena] and [lib/resil].  Directories
    missing under [root] are left out.  The @srclint alias in [bin/dune]
    lists the same directories. *)

(** {1 Running} *)

val ml_files : string -> string list
(** the [.ml] files under a directory (recursively, sorted); a path that
    is itself an [.ml] file is returned as-is *)

val run_plan : (string * pass list) list -> finding list
(** Run a lint plan: each element schedules the passes on a directory (or
    single file).  Every file is parsed exactly once even when several
    plan elements cover it, and each pass runs at most once per file, so a
    file reached through two overlapping targets reports each violation
    once.  The result is deduplicated and sorted by {!compare_finding}.
    A file that fails to parse contributes a single [parse] finding.
    Counters: [lint.files], [lint.findings], [lint.parse_errors]. *)
