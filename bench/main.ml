(* Bechamel microbenchmarks: one Test.make per core operation and per
   evaluation table/figure (the fast-loop kernel each figure stresses).
   The figures themselves are regenerated by `smc_bench all`. *)

open Bechamel
open Toolkit
module E = Smc_experiments

(* ---------------- microbenchmark fixtures ---------------- *)

let small_ds = lazy (Smc_tpch.Dbgen.generate ~sf:0.01 ())
let smc_db = lazy (Smc_tpch.Db_smc.load (Lazy.force small_ds))
let list_db = lazy (Smc_tpch.Db_managed.of_vectors (Lazy.force small_ds))
let column_db = lazy (Smc_tpch.Db_column.load (Lazy.force small_ds))
let direct_db = lazy (Smc_tpch.Db_smc.load ~mode:Smc_offheap.Context.Direct (Lazy.force small_ds))
let columnar_db =
  lazy (Smc_tpch.Db_smc.load ~placement:Smc_offheap.Block.Columnar (Lazy.force small_ds))

let alloc_fixture =
  lazy
    (let rt, coll = E.Workload.lineitem_collection () in
     ignore rt;
     (coll, Smc_util.Prng.create ~seed:1L ()))

let tests =
  [
    (* memory manager primitives *)
    Test.make ~name:"smc/add+remove (Fig 6-7 kernel)"
      (Staged.stage (fun () ->
           let coll, g = Lazy.force alloc_fixture in
           let r = E.Workload.add_lineitem coll g in
           ignore (Smc.Collection.remove coll r : bool)));
    Test.make ~name:"smc/deref (incarnation check)"
      (Staged.stage
         (let db = lazy (Lazy.force smc_db) in
          fun () ->
            let db = Lazy.force db in
            ignore
              (Smc.Collection.deref db.Smc_tpch.Db_smc.lineitems
                 db.Smc_tpch.Db_smc.lineitem_refs.(0))));
    Test.make ~name:"epoch/enter+exit critical section"
      (Staged.stage
         (let rt = lazy (Smc_offheap.Runtime.create ()) in
          fun () ->
            let rt = Lazy.force rt in
            Smc_offheap.Epoch.enter_critical rt.Smc_offheap.Runtime.epoch;
            Smc_offheap.Epoch.exit_critical rt.Smc_offheap.Runtime.epoch));
    (* enumeration kernels (Fig 10) *)
    Test.make ~name:"fig10/smc enumeration"
      (Staged.stage (fun () ->
           ignore (E.Workload.scan_sum (Lazy.force smc_db).Smc_tpch.Db_smc.lineitems : int)));
    Test.make ~name:"fig10/list enumeration"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           (Lazy.force list_db).Smc_tpch.Db_managed.iter_lineitems (fun li ->
               acc := !acc + li.Smc_tpch.Row.l_quantity);
           ignore (Sys.opaque_identity !acc)));
    (* query kernels (Fig 11-13) *)
    Test.make ~name:"fig11/Q1 list"
      (Staged.stage (fun () -> ignore (Smc_tpch.Q_managed.q1 (Lazy.force list_db))));
    Test.make ~name:"fig11/Q1 smc unsafe"
      (Staged.stage (fun () -> ignore (Smc_tpch.Q_smc.q1 ~unsafe:true (Lazy.force smc_db))));
    Test.make ~name:"fig11/Q6 list"
      (Staged.stage (fun () -> ignore (Smc_tpch.Q_managed.q6 (Lazy.force list_db) : int)));
    Test.make ~name:"fig11/Q6 smc unsafe"
      (Staged.stage (fun () ->
           ignore (Smc_tpch.Q_smc.q6 ~unsafe:true (Lazy.force smc_db) : int)));
    (* parallel query kernels (query-scaling experiment) *)
    Test.make ~name:"qscale/Q1 smc parallel"
      (Staged.stage (fun () ->
           ignore (Smc_tpch.Q_smc.q1_par (Lazy.force smc_db))));
    Test.make ~name:"qscale/Q6 smc parallel"
      (Staged.stage (fun () ->
           ignore (Smc_tpch.Q_smc.q6_par (Lazy.force smc_db) : int)));
    Test.make ~name:"fig12/Q5 smc direct"
      (Staged.stage (fun () -> ignore (Smc_tpch.Q_smc.q5 ~unsafe:true (Lazy.force direct_db))));
    Test.make ~name:"fig12/Q6 smc columnar"
      (Staged.stage (fun () ->
           ignore (Smc_tpch.Q_smc.q6 ~unsafe:true (Lazy.force columnar_db) : int)));
    Test.make ~name:"fig13/Q6 columnstore"
      (Staged.stage (fun () -> ignore (Smc_tpch.Q_column.q6 (Lazy.force column_db) : int)));
    Test.make ~name:"fig13/Q1 columnstore"
      (Staged.stage (fun () -> ignore (Smc_tpch.Q_column.q1 (Lazy.force column_db))));
  ]

let run_microbenchmarks () =
  print_endline "== Bechamel microbenchmarks (ns/run) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> x
            | _ -> Float.nan
          in
          Printf.printf "%-40s %12.1f ns/run\n%!" name estimate)
        analyzed)
    tests

let () = run_microbenchmarks ()
