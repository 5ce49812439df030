(* Linearizability checking: the Wing & Gong engine over any shared-object
   kind of the model. *)

module Obj_history = struct
  type event = {
    thread : int;
    action : Shmem.Op.action;
    response : Shmem.Value.t;
    start : int;
    finish : int;
  }

  let pp_action ppf (a : Shmem.Op.action) =
    match a with
    | Shmem.Op.Read -> Fmt.string ppf "Read"
    | Shmem.Op.Write v -> Fmt.pf ppf "Write(%a)" Shmem.Value.pp v
    | Shmem.Op.Swap v -> Fmt.pf ppf "Swap(%a)" Shmem.Value.pp v
    | Shmem.Op.Cas (e, d) ->
      Fmt.pf ppf "Cas(%a,%a)" Shmem.Value.pp e Shmem.Value.pp d

  let pp_event ppf e =
    Fmt.pf ppf "t%d %a -> %a @@ [%d,%d]" e.thread pp_action e.action
      Shmem.Value.pp e.response e.start e.finish

  (* Wing & Gong: search for a permutation respecting real-time order in
     which every response matches the kind's sequential specification
     ([Obj_kind.apply]). *)
  let search ~kind ~init history =
    let events = Array.of_list history in
    let total = Array.length events in
    if total > 62 then invalid_arg "Linearize: history too long";
    let full = (1 lsl total) - 1 in
    (* memo on (linearized set, current value): a failed sub-search never
       needs revisiting *)
    let failed = Hashtbl.create 1024 in
    let rec go mask value acc =
      if mask = full then Some (List.rev acc)
      else if Hashtbl.mem failed (mask, value) then None
      else begin
        let result = ref None in
        let i = ref 0 in
        while !result = None && !i < total do
          let e = events.(!i) in
          let pending j = mask land (1 lsl j) = 0 in
          if pending !i then begin
            (* minimality: no pending operation finished before e started *)
            let minimal = ref true in
            for j = 0 to total - 1 do
              if pending j && j <> !i && events.(j).finish < e.start then
                minimal := false
            done;
            if !minimal then begin
              match Shmem.Obj_kind.apply kind ~current:value e.action with
              | value', response when Shmem.Value.equal response e.response ->
                result := go (mask lor (1 lsl !i)) value' (e :: acc)
              | _ -> ()
              | exception Shmem.Obj_kind.Illegal_operation _ -> ()
            end
          end;
          incr i
        done;
        if !result = None then Hashtbl.replace failed (mask, value) ();
        !result
      end
    in
    go 0 init []

  let linearizable ~kind ~init history = search ~kind ~init history <> None

  let explain ~kind ~init history =
    match search ~kind ~init history with
    | Some order -> Ok order
    | None ->
      Error
        (Fmt.str "no linearization of %d events exists (first events: %a)"
           (List.length history)
           Fmt.(list ~sep:(any "; ") pp_event)
           (List.filteri (fun i _ -> i < 4) history))
end
