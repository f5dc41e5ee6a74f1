open Smc_util

type point = { query : string; variant : string; domains : int; ms : float; speedup : float }

let run ?(sf = 0.05) ?(domain_counts = [ 1; 2; 4; 8 ]) () =
  let ds = Smc_tpch.Dbgen.generate ~sf () in
  let db = Smc_tpch.Db_smc.load ds in
  (* One pool sized for the widest configuration, shared by every run — the
     whole point of the pool is that queries reuse its domains, so the
     measurements exclude [Domain.spawn]. *)
  let max_domains = List.fold_left max 1 domain_counts in
  let pool = Smc_parallel.Pool.create ~size:(max_domains - 1) () in
  Fun.protect
    ~finally:(fun () -> Smc_parallel.Pool.shutdown pool)
    (fun () ->
      let queries =
        [
          ( "Q1",
            (fun () -> ignore (Smc_tpch.Q_smc.q1 ~unsafe:true db : Smc_tpch.Results.q1)),
            fun domains ->
              ignore (Smc_tpch.Q_smc.q1_par ~pool ~domains db : Smc_tpch.Results.q1) );
          ( "Q6",
            (fun () -> ignore (Smc_tpch.Q_smc.q6 ~unsafe:true db : Smc_tpch.Results.q6)),
            fun domains ->
              ignore (Smc_tpch.Q_smc.q6_par ~pool ~domains db : Smc_tpch.Results.q6) );
        ]
      in
      List.concat_map
        (fun (query, seq, par) ->
          let seq_ms = Parity.best_ms seq in
          { query; variant = "SMC (unsafe, seq)"; domains = 1; ms = seq_ms; speedup = 1.0 }
          :: List.map
               (fun domains ->
                 let ms = Parity.best_ms (fun () -> par domains) in
                 { query; variant = "SMC (parallel)"; domains; ms; speedup = seq_ms /. ms })
               domain_counts)
        queries)

let table points =
  let t =
    Table.create ~title:"Query scaling: parallel Q1/Q6 vs the sequential unsafe kernels"
      ~columns:[ "query"; "variant"; "domains"; "ms"; "speedup" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.query;
          p.variant;
          string_of_int p.domains;
          Printf.sprintf "%.2f" p.ms;
          Printf.sprintf "%.2f" p.speedup;
        ])
    points;
  t
