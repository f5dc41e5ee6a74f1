open Smc_util

type point = { engine : string; query : int; relative_pct : float; absolute_ms : float }

let queries_for_managed db =
  [|
    (fun () -> Obj.repr (Smc_tpch.Q_managed.q1 db));
    (fun () -> Obj.repr (Smc_tpch.Q_managed.q2 db));
    (fun () -> Obj.repr (Smc_tpch.Q_managed.q3 db));
    (fun () -> Obj.repr (Smc_tpch.Q_managed.q4 db));
    (fun () -> Obj.repr (Smc_tpch.Q_managed.q5 db));
    (fun () -> Obj.repr (Smc_tpch.Q_managed.q6 db));
  |]

let queries_for_smc ~unsafe db =
  [|
    (fun () -> Obj.repr (Smc_tpch.Q_smc.q1 ~unsafe db));
    (fun () -> Obj.repr (Smc_tpch.Q_smc.q2 ~unsafe db));
    (fun () -> Obj.repr (Smc_tpch.Q_smc.q3 ~unsafe db));
    (fun () -> Obj.repr (Smc_tpch.Q_smc.q4 ~unsafe db));
    (fun () -> Obj.repr (Smc_tpch.Q_smc.q5 ~unsafe db));
    (fun () -> Obj.repr (Smc_tpch.Q_smc.q6 ~unsafe db));
  |]

let measure engines =
  (* engines: (name, query array); first engine is the 100% baseline. Every
     engine is measured exactly once so the baseline reads exactly 100. *)
  let timed =
    List.map (fun (name, queries) -> (name, Array.map Parity.best_ms queries)) engines
  in
  match timed with
  | [] -> []
  | (_, baseline) :: _ ->
    List.concat_map
      (fun (name, times) ->
        List.init (Array.length times) (fun q ->
            {
              engine = name;
              query = q + 1;
              relative_pct = 100.0 *. times.(q) /. baseline.(q);
              absolute_ms = times.(q);
            }))
      timed

let run ?(sf = 0.05) () =
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let list_db = Smc_tpch.Db_managed.of_vectors ds in
  let dict_db = Smc_tpch.Db_managed.of_dicts ds in
  let smc_db = Smc_tpch.Db_smc.load ds in
  measure
    [
      ("List", queries_for_managed list_db);
      ("C. Dictionary", queries_for_managed dict_db);
      ("SMC (safe)", queries_for_smc ~unsafe:false smc_db);
      ("SMC (unsafe)", queries_for_smc ~unsafe:true smc_db);
    ]

let table points =
  let t =
    Table.create ~title:"Figure 11: TPC-H Q1-Q6, evaluation time relative to List (%)"
      ~columns:[ "engine"; "query"; "relative to List (%)"; "absolute (ms)" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.engine;
          Printf.sprintf "Q%d" p.query;
          Printf.sprintf "%.1f" p.relative_pct;
          Printf.sprintf "%.2f" p.absolute_ms;
        ])
    points;
  t
