(* Layer fixtures of the traced run: every per-layer metric a workload's
   own traffic does not reach is measured here, on small private data, so
   each traced run reports the full list. *)

open Smc_tpch
module C = Smc.Collection
module F = Smc.Field
module Q = Smc_query
module O = Smc_obs

let repeat = Layers.repeat

(* A small TPC-H database with a view and an index: the query, tpch,
   matview and refresh layers. *)
let tpch_fixture seed =
  let ds = Dbgen.generate ~seed:(Int64.of_int seed) ~sf:0.01 () in
  let db = Db_smc.load ds in
  Layers.query_probe ~db ~ds ~reps:3;
  List.iteri
    (fun i q -> repeat 3 (fun () -> Trace.span (Printf.sprintf "tpch.q%d" (i + 1)) (fun () -> ignore (Sys.opaque_identity (q ())))))
    [
      (fun () -> Obj.repr (Q_smc.q1 ~unsafe:true db));
      (fun () -> Obj.repr (Q_smc.q2 ~unsafe:true db));
      (fun () -> Obj.repr (Q_smc.q3 ~unsafe:true db));
      (fun () -> Obj.repr (Q_smc.q4 ~unsafe:true db));
      (fun () -> Obj.repr (Q_smc.q5 ~unsafe:true db));
      (fun () -> Obj.repr (Q_smc.q6 ~unsafe:true db));
    ];
  let li = db.Db_smc.lineitems in
  let mv =
    Smc_matview.Matview.attach ~name:"fixture_view" li ~columns:(Shapes.columns db.Db_smc.lf)
      ~keys:Shapes.view_keys
      ~aggs:(List.map (fun (n, a) -> (n, Q.Plan.view_agg_of_agg a)) Shapes.view_aggs)
      ~where:Shapes.view_where ()
  in
  let src = Q.Source.of_smc li ~columns:(Shapes.columns db.Db_smc.lf) ~matviews:[ Smc_matview.Matview.info mv ] in
  repeat 200 (fun () ->
      let p = Trace.span "query.plan" (fun () -> Q.Planner.choose_access_paths (Shapes.group_plan src)) in
      Trace.span "matview.read" (fun () -> ignore (Q.Vector.collect p)));
  let ops = Refresh.smc_ops db ds in
  let g = Smc_util.Prng.create ~seed:(Int64.of_int seed) () in
  repeat 5 (fun () ->
      Trace.span "tpch.refresh_insert" (fun () -> ops.Refresh.insert_batch ~count:60);
      let keys = Hashtbl.create 16 in
      repeat 15 (fun () -> Hashtbl.replace keys (ops.Refresh.random_orderkey g) ());
      ignore (Trace.span "tpch.refresh_remove" (fun () -> ops.Refresh.remove_batch ~keys) : int));
  Layers.core_read_probe li;
  Smc_matview.Matview.detach mv

(* Bare writes, transactions, lookups, compaction, the WAL and recovery: a
   churn run on 20k rows. *)
let core_fixture seed ~work_dir =
  let rows = 20_000 in
  let p = Churn.payload ~rows seed and s = Churn.stream ~rows seed in
  let st = Churn.setup p ~work_dir () in
  let obs () = O.snapshot st.Churn.rt.Smc_offheap.Runtime.obs in
  let wal_bytes () =
    Smc_persist.Wal.flush st.Churn.wal;
    (Unix.stat st.Churn.wal_path).Unix.st_size
  in
  let before = obs () and wal0 = wal_bytes () in
  let o = Churn.window ~max_ops:rows st s ~seconds:60. ~first:0 in
  let after = obs () and wal1 = wal_bytes () in
  let moved = ref 0 in
  repeat 3 (fun () ->
      let rep = Trace.span "core.compact" (fun () -> C.compact st.Churn.coll ()) in
      moved := !moved + rep.Smc_offheap.Compaction.objects_moved);
  Layers.core_read_probe st.Churn.coll;
  Layers.index_probe st.Churn.ix (fun g -> Smc_index.Hash_index.K_int (Smc_util.Prng.int g rows));
  ignore (Churn.checkpoint st s ~work_dir : string list);
  Churn.recover_traced st;
  Churn.dispose st;
  Layers.obs_metrics ~before ~after ~ops:o.Churn.ops
  @ [
      Meter.metric "persist.wal_bytes_per_op" "B" (Layers.ratio (wal1 - wal0) o.Churn.ops);
      Meter.metric "offheap.objects_moved" "count" (float_of_int !moved /. 3.);
    ]

(* Wire coding, in-process shard execution and a cross-shard transaction on
   a small two-shard key/value collection. *)
let shard_fixture seed =
  let sh = Smc_shard.Server.kv_shard ~shards:2 () in
  let lay = Smc_shard.Shard.layout sh in
  let fk = F.int lay "k" and fv = F.int lay "v" in
  let refs =
    Array.init 10_000 (fun k ->
        Smc_shard.Shard.add sh ~key:k ~init:(fun b s -> F.set_int fk b s k; F.set_int fv b s (k + seed)))
  in
  Array.iter
    (fun r ->
      let req = Smc_shard.Wire.Get { shard = r.Smc_shard.Shard.sr_shard; packed = Smc.Ref.to_packed r.Smc_shard.Shard.sr_ref } in
      let b = Trace.span "shard.wire_encode" (fun () -> Smc_shard.Wire.encode_request req) in
      ignore (Trace.span "shard.wire_decode" (fun () -> Smc_shard.Wire.decode_request b) : Smc_shard.Wire.request);
      ignore (Trace.span "shard.exec_get" (fun () -> Smc_shard.Shard.deref_opt sh r) : _ option))
    refs;
  let next = ref 10_000 in
  repeat 500 (fun () ->
      ignore
        (Trace.span "shard.txn" (fun () ->
             Smc_shard.Shard.transact sh (fun tx ->
                 repeat 4 (fun () ->
                     let k = !next in
                     incr next;
                     Smc_shard.Shard.stage_add tx ~key:k ~init:(fun b s -> F.set_int fk b s k; F.set_int fv b s 0))))
          : Smc_shard.Shard.txn_result))

(* Completes a traced run's per-layer metrics. Span metrics the workload
   recorded come first; then the spans are cleared and every layer still
   missing is measured on a fixture. Metrics no probe produces (the open-loop
   figures of a closed-loop workload) read 0. Returns the metrics, the names
   measured on a fixture, and the names reported as 0. *)
let complete ~seed ~work_dir (have : Meter.metric list) =
  let add acc (m : Meter.metric) =
    if List.exists (fun (x : Meter.metric) -> x.Meter.name = m.Meter.name) acc then acc else acc @ [ m ]
  in
  let have = List.fold_left add have (Layers.from_spans ()) in
  let missing name = not (List.exists (fun (m : Meter.metric) -> m.Meter.name = name) have) in
  let spans_missing prefixes =
    List.exists
      (fun (_, m, _, _) -> missing m && List.exists (fun p -> String.starts_with ~prefix:p m) prefixes)
      Layers.span_metrics
  in
  Trace.clear ();
  let was = !Trace.enabled in
  Trace.enabled := true;
  let counters =
    if spans_missing [ "core."; "index."; "persist." ] || missing "offheap.objects_moved" then
      core_fixture seed ~work_dir
    else []
  in
  if spans_missing [ "query."; "tpch."; "matview." ] || missing "tpch.fig11_ratio_q1" then tpch_fixture seed;
  if spans_missing [ "shard." ] then shard_fixture seed;
  Trace.enabled := was;
  let all = List.fold_left add (List.fold_left add have (Layers.from_spans ())) counters in
  let find name = List.find_opt (fun (m : Meter.metric) -> m.Meter.name = name) all in
  ( List.map (fun (name, unit_) -> match find name with Some m -> m | None -> Meter.metric name unit_ 0.) Layers.all,
    List.filter (fun n -> missing n && find n <> None) (List.map fst Layers.all),
    List.filter (fun n -> find n = None) (List.map fst Layers.all) )
