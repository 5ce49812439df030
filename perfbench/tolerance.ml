(* How far the traced layer self times may fall short of (or exceed) the
   traced end-to-end wall before a traced run fails.  The residual is the
   work no layer timer covers: the checker's and certifier's glue between
   layer calls, span overhead, and — on the parallel workload — waiting
   and contention.
   Each bound sits above the residual measured on a 2-core machine with
   room for run-to-run spread. *)

let check_full = 0.25
let space_cert = 0.30
let serve_saturated = 0.20

let residual_check ~tolerance ~residual ~sum ~wall =
  Report.check
    (Fmt.str "layer self times sum to the traced wall within %.0f%%"
       (100. *. tolerance))
    (Float.abs residual <= tolerance)
    (Fmt.str "layers %.4fs of %.4fs traced wall, residual %+.1f%%" sum wall
       (100. *. residual))
