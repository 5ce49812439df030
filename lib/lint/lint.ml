(* A pass registry over one shared compiler-libs parse per file.  See
   lint.mli for the catalogue; bin/srclint and [swapspace lint] are the
   drivers. *)

(* ------------------------------------------------------------- findings *)

type finding = {
  file : string;
  line : int;
  col : int;
  pass : string;
  message : string;
}

let pp_finding ppf f =
  Fmt.pf ppf "%s:%d:%d: %s [%s]" f.file f.line f.col f.message f.pass

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.pass b.pass in
        if c <> 0 then c else String.compare a.message b.message

(* --------------------------------------------------------------- passes *)

type pass = {
  name : string;
  doc : string;
  check : file:string -> Parsetree.structure -> finding list;
}

let pass_name p = p.name
let pass_doc p = p.doc

(* a collector the pass implementations report into *)
let collector ~file ~pass =
  let acc = ref [] in
  let report loc message =
    let p = loc.Location.loc_start in
    acc :=
      { file
      ; line = p.Lexing.pos_lnum
      ; col = p.Lexing.pos_cnum - p.Lexing.pos_bol
      ; pass
      ; message
      }
      :: !acc
  in
  acc, report

let rec flatten_lid = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_lid l @ [ s ]
  | Longident.Lapply (l, _) -> flatten_lid l

(* every [Pexp_ident]/[Pexp_new] in the structure, through one default
   traversal — the shape the three ident-ban passes share *)
let iter_idents structure f =
  let open Ast_iterator in
  let expr this e =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } -> f loc txt
    | Parsetree.Pexp_new { txt; loc } -> f loc txt
    | _ -> ());
    default_iterator.expr this e
  in
  let it = { default_iterator with expr } in
  it.structure it structure

(* ---- purity: banned modules wholesale ---- *)

let banned_modules = [ "Random"; "Unix"; "Obj"; "Marshal" ]

let purity =
  { name = "purity"
  ; doc =
      "ban Random/Unix/Obj/Marshal in protocol code (hidden nondeterminism \
       or unsafe casts invalidate exploration)"
  ; check =
      (fun ~file structure ->
        let acc, report = collector ~file ~pass:"purity" in
        iter_idents structure (fun loc lid ->
            match flatten_lid lid with
            | head :: _ as path when List.mem head banned_modules ->
              report loc
                (Fmt.str "use of banned module in %s"
                   (String.concat "." path))
            | _ -> ());
        !acc)
  }

(* ---- poly-hash: polymorphic hash/compare idents ---- *)

let banned_idents =
  [ [ "Hashtbl"; "hash" ]; [ "Hashtbl"; "seeded_hash" ]
  ; [ "Hashtbl"; "hash_param" ]; [ "Stdlib"; "compare" ]
  ; [ "Stdlib"; "Hashtbl"; "hash" ]
  ]

let poly_hash =
  { name = "poly-hash"
  ; doc =
      "ban Hashtbl.hash/seeded_hash/hash_param and qualified \
       Stdlib.compare (use Shmem.Hashx field by field)"
  ; check =
      (fun ~file structure ->
        let acc, report = collector ~file ~pass:"poly-hash" in
        iter_idents structure (fun loc lid ->
            let path = flatten_lid lid in
            if List.exists (fun b -> b = path) banned_idents then
              report loc
                (Fmt.str "polymorphic hash/compare: %s (use Shmem.Hashx)"
                   (String.concat "." path)));
        !acc)
  }

(* ---- state-equality: whole-state polymorphic =/<>/compare ---- *)

let state_fns = [ "equal_state"; "hash_state"; "compare_state" ]

let rec fun_params acc e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (_, _, pat, body) ->
    let acc =
      match pat.Parsetree.ppat_desc with
      | Parsetree.Ppat_var { txt; _ } -> txt :: acc
      | _ -> acc
    in
    fun_params acc body
  | _ -> acc

let is_param params e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt = Longident.Lident x; _ } -> List.mem x params
  | _ -> false

let state_equality =
  { name = "state-equality"
  ; doc =
      "ban whole-state polymorphic =/<>/compare inside \
       equal_state/hash_state bindings (write structural equality)"
  ; check =
      (fun ~file structure ->
        let acc, report = collector ~file ~pass:"state-equality" in
        let check_body fn_name params body =
          let open Ast_iterator in
          let expr this e =
            (match e.Parsetree.pexp_desc with
            | Parsetree.Pexp_apply
                ( { pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }
                  ; _
                  }
                , [ (_, a); (_, b) ] )
              when List.mem op [ "="; "<>"; "compare" ]
                   && is_param params a && is_param params b ->
              report e.Parsetree.pexp_loc
                (Fmt.str
                   "whole-state polymorphic %s in %s (write structural \
                    equality)"
                   op fn_name)
            | Parsetree.Pexp_ident { txt = Longident.Lident "compare"; loc }
              ->
              report loc
                (Fmt.str "bare polymorphic compare in %s" fn_name)
            | _ -> ());
            default_iterator.expr this e
          in
          let it = { default_iterator with expr } in
          it.expr it body
        in
        let open Ast_iterator in
        let value_binding this vb =
          (match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } when List.mem txt state_fns ->
            check_body txt (fun_params [] vb.Parsetree.pvb_expr)
              vb.Parsetree.pvb_expr
          | _ -> ());
          default_iterator.value_binding this vb
        in
        let it = { default_iterator with value_binding } in
        it.structure it structure;
        !acc)
  }

(* ---- monotonic: wall-clock reads in deadline code ---- *)

let banned_wallclock =
  [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ]; [ "Sys"; "time" ]
  ; [ "Stdlib"; "Sys"; "time" ]
  ]

let monotonic =
  { name = "monotonic"
  ; doc =
      "ban wall-clock reads (Unix.gettimeofday/Unix.time/Sys.time) in \
       deadline code (use Resil.Clock)"
  ; check =
      (fun ~file structure ->
        let acc, report = collector ~file ~pass:"monotonic" in
        iter_idents structure (fun loc lid ->
            let path = flatten_lid lid in
            if List.exists (fun b -> b = path) banned_wallclock then
              report loc
                (Fmt.str
                   "wall-clock read %s in deadline code (use Resil.Clock)"
                   (String.concat "." path)));
        !acc)
  }

(* ---- domain-escape: mutable non-Atomic state shared across spawns ---- *)

(* expression heads whose [let]-binding creates mutable non-Atomic state.
   Arrays are deliberately exempt: disjoint per-slot writes joined before
   the read are the accepted idiom in lib/runtime. *)
let mutable_makers =
  [ [ "ref" ]; [ "Stdlib"; "ref" ]; [ "Hashtbl"; "create" ]
  ; [ "Buffer"; "create" ]; [ "Queue"; "create" ]
  ; [ "Stdlib"; "Hashtbl"; "create" ]
  ]

(* the names of all (Lident) identifiers mentioned under [e] *)
let idents_under e =
  let names = Hashtbl.create 16 in
  let open Ast_iterator in
  let expr this x =
    (match x.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt = Longident.Lident n; _ } ->
      Hashtbl.replace names n ()
    | _ -> ());
    default_iterator.expr this x
  in
  let it = { default_iterator with expr } in
  it.expr it e;
  names

let head_path e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> flatten_lid txt
  | _ -> []

let ends_with suffix path =
  let lp = List.length path and ls = List.length suffix in
  lp >= ls && List.filteri (fun i _ -> i >= lp - ls) path = suffix

let domain_escape =
  { name = "domain-escape"
  ; doc =
      "mutable non-Atomic state (ref/Hashtbl/Buffer/Queue) captured by \
       more than one Domain.spawn closure"
  ; check =
      (fun ~file structure ->
        let acc, report = collector ~file ~pass:"domain-escape" in
        (* phase 1: mutable bindings and spawn-closure ident sets *)
        let mutables = ref [] in
        let spawns = ref [] in
        let open Ast_iterator in
        let value_binding this vb =
          (match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt = name; loc } ->
            let head =
              match vb.Parsetree.pvb_expr.Parsetree.pexp_desc with
              | Parsetree.Pexp_apply (f, _) -> head_path f
              | _ -> []
            in
            if List.exists (fun m -> m = head) mutable_makers then
              mutables := (name, loc, String.concat "." head) :: !mutables
          | _ -> ());
          default_iterator.value_binding this vb
        in
        let expr this e =
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_apply (f, (_, closure) :: _)
            when ends_with [ "Domain"; "spawn" ] (head_path f) ->
            spawns := idents_under closure :: !spawns
          | _ -> ());
          default_iterator.expr this e
        in
        let it = { default_iterator with expr; value_binding } in
        it.structure it structure;
        (* phase 2: correlate — two spawn closures seeing the same mutable
           binding is unsynchronized cross-domain sharing *)
        List.iter
          (fun (name, loc, maker) ->
            let captures =
              List.length
                (List.filter (fun s -> Hashtbl.mem s name) !spawns)
            in
            if captures > 1 then
              report loc
                (Fmt.str
                   "mutable binding %s (%s) is captured by %d Domain.spawn \
                    closures (share through Atomic or per-domain state)"
                   name maker captures))
          (List.rev !mutables);
        !acc)
  }

(* ---- atomics-discipline: lost-update shapes and blocking retries ---- *)

let blocking_calls =
  [ [ "Unix"; "sleep" ]; [ "Unix"; "sleepf" ]; [ "Thread"; "delay" ]
  ; [ "Domain"; "join" ]; [ "Mutex"; "lock" ]; [ "Condition"; "wait" ]
  ]

(* syntactic cell identity: the rendered source of the cell expression *)
let cell_key e = Pprintast.string_of_expression e

let atomics_discipline =
  { name = "atomics-discipline"
  ; doc =
      "Atomic.set derived from Atomic.get of the same cell (needs a \
       compare_and_set/exchange retry loop); blocking calls inside \
       Policy.retry bodies"
  ; check =
      (fun ~file structure ->
        let acc, report = collector ~file ~pass:"atomics-discipline" in
        (* [let v = Atomic.get cell] bindings seen so far: v -> cell key.
           File-scoped, not scope-exact — a heuristic lint errs on the
           side of reporting. *)
        let got = Hashtbl.create 8 in
        let derived_from key e =
          let hit = ref false in
          let open Ast_iterator in
          let expr this x =
            (match x.Parsetree.pexp_desc with
            | Parsetree.Pexp_apply (f, [ (_, cell) ])
              when ends_with [ "Atomic"; "get" ] (head_path f)
                   && String.equal (cell_key cell) key ->
              hit := true
            | Parsetree.Pexp_ident { txt = Longident.Lident v; _ }
              when Hashtbl.mem got v
                   && String.equal (Hashtbl.find got v) key ->
              hit := true
            | _ -> ());
            default_iterator.expr this x
          in
          let it = { default_iterator with expr } in
          it.expr it e;
          !hit
        in
        let contains_blocking e k =
          let open Ast_iterator in
          let expr this x =
            (match x.Parsetree.pexp_desc with
            | Parsetree.Pexp_ident { txt; loc } ->
              let path = flatten_lid txt in
              if List.exists (fun b -> b = path) blocking_calls then
                k loc (String.concat "." path)
            | _ -> ());
            default_iterator.expr this x
          in
          let it = { default_iterator with expr } in
          it.expr it e
        in
        let open Ast_iterator in
        let value_binding this vb =
          (match
             vb.Parsetree.pvb_pat.Parsetree.ppat_desc,
             vb.Parsetree.pvb_expr.Parsetree.pexp_desc
           with
          | ( Parsetree.Ppat_var { txt = v; _ },
              Parsetree.Pexp_apply (f, [ (_, cell) ]) )
            when ends_with [ "Atomic"; "get" ] (head_path f) ->
            Hashtbl.replace got v (cell_key cell)
          | _ -> ());
          default_iterator.value_binding this vb
        in
        let expr this e =
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_apply (f, [ (_, cell); (_, value) ])
            when ends_with [ "Atomic"; "set" ] (head_path f) ->
            let key = cell_key cell in
            if derived_from key value then
              report e.Parsetree.pexp_loc
                (Fmt.str
                   "Atomic.set of %s derived from its own Atomic.get (use \
                    a compare_and_set/exchange retry loop)"
                   key)
          | Parsetree.Pexp_apply (f, args)
            when ends_with [ "retry" ] (head_path f) ->
            List.iter
              (fun (_, arg) ->
                contains_blocking arg (fun loc what ->
                    report loc
                      (Fmt.str
                         "blocking %s inside a Policy.retry body (stalls \
                          the retry budget)"
                         what)))
              args
          | _ -> ());
          default_iterator.expr this e
        in
        let it = { default_iterator with expr; value_binding } in
        it.structure it structure;
        !acc)
  }

(* ------------------------------------------------------------- registry *)

let registry =
  [ purity; poly_hash; state_equality; monotonic; domain_escape
  ; atomics_discipline
  ]

let find_pass name =
  match List.find_opt (fun p -> String.equal p.name name) registry with
  | Some p -> Ok p
  | None ->
    Error
      (Fmt.str "unknown pass %s (known: %s)" name
         (String.concat ", " (List.map (fun p -> p.name) registry)))

(* the repository's plan: protocol purity over the proof-bearing
   libraries, the wall-clock ban over every deadline/metrics/timing layer,
   and the concurrency discipline over the layers that spawn domains *)
let repo_plan ~root =
  let targets =
    List.map
      (fun d -> d, [ purity; poly_hash; state_equality ])
      [ "lib/core"; "lib/baselines" ]
    @ List.map
        (fun d -> d, [ monotonic ])
        [ "lib/resil"; "lib/runtime"; "lib/arena"; "lib/prop"; "lib/obs"
        ; "lib/fault"; "lib/multicore"; "bench"
        ]
    @ List.map
        (fun d -> d, [ domain_escape; atomics_discipline ])
        [ "lib/runtime"; "lib/arena"; "lib/resil" ]
  in
  List.filter_map
    (fun (d, passes) ->
      let d = Filename.concat root d in
      if Sys.file_exists d then Some (d, passes) else None)
    targets

(* -------------------------------------------------------------- driving *)

let m_files = Obs.counter "lint.files"
let m_findings = Obs.counter "lint.findings"
let m_parse_errors = Obs.counter "lint.parse_errors"
let sp_run = Obs.span "lint.run"

let rec ml_files path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.concat_map (fun f -> ml_files (Filename.concat path f))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      match Parse.implementation lexbuf with
      | ast -> Ok ast
      | exception exn -> Error (Printexc.to_string exn))

let run_plan plan =
  Obs.Span.time sp_run @@ fun () ->
  (* schedule: file -> passes, each pass at most once per file, files in
     first-seen order *)
  let scheduled : (string, pass list ref) Hashtbl.t = Hashtbl.create 64 in
  let files = ref [] in
  List.iter
    (fun (target, passes) ->
      List.iter
        (fun file ->
          let slot =
            match Hashtbl.find_opt scheduled file with
            | Some s -> s
            | None ->
              let s = ref [] in
              Hashtbl.add scheduled file s;
              files := file :: !files;
              s
          in
          List.iter
            (fun p ->
              if not (List.memq p !slot) then slot := p :: !slot)
            passes)
        (ml_files target))
    plan;
  let findings =
    List.concat_map
      (fun file ->
        Obs.Counter.incr m_files;
        match parse_file file with
        | Error msg ->
          Obs.Counter.incr m_parse_errors;
          [ { file
            ; line = 1
            ; col = 0
            ; pass = "parse"
            ; message = Fmt.str "parse error (%s)" msg
            }
          ]
        | Ok structure ->
          let passes = List.rev !(Hashtbl.find scheduled file) in
          List.concat_map (fun p -> p.check ~file structure) passes)
      (List.rev !files)
  in
  let findings = List.sort_uniq compare_finding findings in
  List.iter (fun _ -> Obs.Counter.incr m_findings) findings;
  findings
