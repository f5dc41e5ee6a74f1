(* Each operator compiles to an [open_] function producing a cursor
   [unit -> row option]. Blocking operators (join build, group-by, sort)
   materialise at open, as Volcano engines do. *)

let group_key key_fns row = List.map (fun f -> f row) key_fns

(* Cursor draining a materialised row list. *)
let pull_of_list rows =
  let remaining = ref rows in
  fun () ->
    match !remaining with
    | [] -> None
    | row :: rest ->
      remaining := rest;
      Some row

(* Pull adapter over a push producer: materialise its rows, in order. *)
let pull_of_push produce =
  let rows = ref [] in
  produce (fun row -> rows := row :: !rows);
  pull_of_list (List.rev !rows)

let rec drain next f =
  match next () with
  | None -> ()
  | Some row ->
    f row;
    drain next f

(* Join cursor: each left row appended to each of its matches, in order. *)
let join_pull lnext matches =
  let pending = ref [] and current_left = ref [||] in
  let rec pull () =
    match !pending with
    | row :: rest ->
      pending := rest;
      Some (Array.append !current_left row)
    | [] ->
      (match lnext () with
      | None -> None
      | Some l ->
        current_left := l;
        pending := matches l;
        pull ())
  in
  pull

let rec open_cursor plan =
  match plan with
  | Plan.Scan _ | Plan.IndexScan _ | Plan.TextScan _ | Plan.ViewRead _ ->
    (* A scan, an index or text probe (one critical section,
       incarnation-validated hits) or a maintained view result. *)
    pull_of_push (Plan.leaf_rows plan)
  | Plan.Where (pred, input) ->
    let next = open_cursor input in
    let test = Expr.compile_pred ~schema:(Plan.schema input) pred in
    let rec pull () =
      match next () with
      | None -> None
      | Some row -> if test row then Some row else pull ()
    in
    pull
  | Plan.Select (cols, input) ->
    let next = open_cursor input in
    let schema = Plan.schema input in
    let fns = Array.of_list (List.map (fun (_, e) -> Expr.compile ~schema e) cols) in
    fun () ->
      (match next () with
      | None -> None
      | Some row -> Some (Array.map (fun f -> f row) fns))
  | Plan.HashJoin { left; right; on } ->
    let lschema = Plan.schema left and rschema = Plan.schema right in
    let lkeys =
      List.map (fun (lc, _) -> Expr.compile ~schema:lschema (Expr.Col lc)) on
    in
    let rkeys =
      List.map (fun (_, rc) -> Expr.compile ~schema:rschema (Expr.Col rc)) on
    in
    (* Build side: materialise the right input into a hash table. *)
    let table = Hashtbl.create 1024 in
    drain (open_cursor right) (fun row -> Hashtbl.add table (group_key rkeys row) row);
    join_pull (open_cursor left) (fun l -> Hashtbl.find_all table (group_key lkeys l))
  | Plan.IndexJoin { left; src; index; left_col } ->
    (* Index nested-loop join: no build phase — each left row probes the
       attached index, one critical section per probe. *)
    let lkey = Expr.compile ~schema:(Plan.schema left) (Expr.Col left_col) in
    let probe = Source.join_probe src index in
    join_pull (open_cursor left) (fun l ->
        let matches = ref [] in
        probe (lkey l) (fun r -> matches := r :: !matches);
        List.rev !matches)
  | Plan.GroupBy { keys; aggs; input } ->
    let schema = Plan.schema input in
    let key_fns = List.map (fun (_, e) -> Expr.compile ~schema e) keys in
    let compiled = List.map (fun (_, a) -> Aggregate.compile ~schema a) aggs in
    let groups = Hashtbl.create 256 in
    let order = ref [] in
    drain (open_cursor input) (fun row ->
        let key = group_key key_fns row in
        let cells =
          match Hashtbl.find_opt groups key with
          | Some cells -> cells
          | None ->
            let cells = List.map (fun (fresh, _, _) -> fresh ()) compiled in
            Hashtbl.add groups key cells;
            order := key :: !order;
            cells
        in
        List.iter2 (fun (_, update, _) cell -> update cell row) compiled cells);
    let remaining = ref (List.rev !order) in
    fun () ->
      (match !remaining with
      | [] -> None
      | key :: rest ->
        remaining := rest;
        let cells = Hashtbl.find groups key in
        let finished = List.map2 (fun (_, _, finish) cell -> finish cell) compiled cells in
        Some (Array.of_list (key @ finished)))
  | Plan.OrderBy (specs, input) ->
    let schema = Plan.schema input in
    let fns = List.map (fun (e, d) -> (Expr.compile ~schema e, d)) specs in
    let rows = ref [] in
    drain (open_cursor input) (fun row -> rows := row :: !rows);
    let compare_rows a b =
      let rec go = function
        | [] -> 0
        | (f, d) :: rest ->
          let c = Value.compare (f a) (f b) in
          let c = match d with Plan.Asc -> c | Plan.Desc -> -c in
          if c <> 0 then c else go rest
      in
      go fns
    in
    pull_of_list (List.stable_sort compare_rows (List.rev !rows))
  | Plan.Distinct input ->
    let next = open_cursor input in
    let seen = Hashtbl.create 256 in
    let rec pull () =
      match next () with
      | None -> None
      | Some row ->
        let key = Array.to_list row in
        if Hashtbl.mem seen key then pull ()
        else begin
          Hashtbl.add seen key ();
          Some row
        end
    in
    pull
  | Plan.Limit (n, input) ->
    let next = open_cursor input in
    let taken = ref 0 in
    fun () ->
      if !taken >= n then None
      else begin
        match next () with
        | None -> None
        | Some row ->
          incr taken;
          Some row
      end

let run plan ~f = drain (open_cursor plan) f

let collect plan =
  let out = ref [] in
  run plan ~f:(fun row -> out := row :: !out);
  List.rev !out
