(* Per-layer metrics of the traced run.

   Most values are span means: the benchmark times its own calls into each
   layer's public functions (see [Trace]). A workload reports the layers its
   traffic reaches; [complete] measures every remaining layer on a small
   private fixture, so each traced run reports the full list. *)

open Smc_tpch
module C = Smc.Collection
module F = Smc.Field
module Q = Smc_query
module O = Smc_obs
module LQ = Smc_experiments.Linq_vs_compiled

let layers = [ "bench"; "core"; "index"; "query"; "matview"; "tpch"; "persist"; "shard" ]

(* Span name, metric name, unit, scale from nanoseconds. *)
let span_metrics =
  [
    ("core.add", "core.add_ns", "ns", 1.);
    ("core.remove", "core.remove_ns", "ns", 1.);
    ("core.store", "core.store_ns", "ns", 1.);
    ("core.compact", "core.compact_ms", "ms", 1e-6);
    ("core.with_read", "core.with_read_ns", "ns", 1.);
    ("core.iter_scan", "core.iter_scan_ms", "ms", 1e-6);
    ("core.txn_stage", "core.txn_stage_us", "us", 1e-3);
    ("core.txn_commit", "core.txn_commit_us", "us", 1e-3);
    ("index.probe", "index.probe_ns", "ns", 1.);
    ("query.plan", "query.plan_us", "us", 1e-3);
    ("query.vector.q1", "query.vector.q1_ms", "ms", 1e-6);
    ("query.vector.q6", "query.vector.q6_ms", "ms", 1e-6);
    ("query.volcano.q1", "query.volcano.q1_ms", "ms", 1e-6);
    ("query.volcano.q6", "query.volcano.q6_ms", "ms", 1e-6);
    ("query.fuse.q1", "query.fuse.q1_ms", "ms", 1e-6);
    ("query.fuse.q6", "query.fuse.q6_ms", "ms", 1e-6);
    ("query.compiled.q1", "query.compiled.q1_ms", "ms", 1e-6);
    ("query.compiled.q6", "query.compiled.q6_ms", "ms", 1e-6);
    ("query.codegen.prepare", "query.codegen.prepare_ms", "ms", 1e-6);
    ("matview.read", "matview.read_us", "us", 1e-3);
    ("tpch.q1", "tpch.q1_ms", "ms", 1e-6);
    ("tpch.q2", "tpch.q2_ms", "ms", 1e-6);
    ("tpch.q3", "tpch.q3_ms", "ms", 1e-6);
    ("tpch.q4", "tpch.q4_ms", "ms", 1e-6);
    ("tpch.q5", "tpch.q5_ms", "ms", 1e-6);
    ("tpch.q6", "tpch.q6_ms", "ms", 1e-6);
    ("tpch.refresh_insert", "tpch.refresh_insert_ms", "ms", 1e-6);
    ("tpch.refresh_remove", "tpch.refresh_remove_ms", "ms", 1e-6);
    ("persist.snapshot", "persist.snapshot_ms", "ms", 1e-6);
    ("persist.restore", "persist.restore_ms", "ms", 1e-6);
    ("persist.replay", "persist.replay_ms", "ms", 1e-6);
    ("shard.wire_encode", "shard.wire_encode_ns", "ns", 1.);
    ("shard.wire_decode", "shard.wire_decode_ns", "ns", 1.);
    ("shard.exec_get", "shard.exec_get_ns", "ns", 1.);
    ("shard.txn", "shard.txn_us", "us", 1e-3);
  ]

(* Every per-layer metric a traced run reports, with its unit. *)
let all =
  List.map (fun (_, m, u, _) -> (m, u)) span_metrics
  @ List.init 6 (fun i -> (Printf.sprintf "tpch.fig11_ratio_q%d" (i + 1), "ratio"))
  @ [
      ("offheap.objects_moved", "count");
      ("offheap.epoch_adv_fail_ratio", "ratio");
      ("offheap.entry_recycle_ratio", "ratio");
      ("offheap.slot_recycle_ratio", "ratio");
      ("gc.minor_words_per_op", "words");
      ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MB");
      ("index.stale_ratio", "ratio");
      ("matview.rescan_ratio", "ratio");
      ("matview.applied_per_op", "ratio");
      ("persist.wal_bytes_per_op", "B");
      ("persist.wal_syncs_per_op", "ratio");
      ("shard.shed_ratio", "ratio");
      ("gen.lateness_p99_ms", "ms");
      ("trace.overhead_pct", "%");
    ]
  @ List.map (fun l -> ("self." ^ l ^ "_pct", "%")) layers

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let from_spans () =
  let aggs = Trace.aggregates () in
  let spans =
    List.filter_map
      (fun (span, name, unit_, scale) ->
        match Hashtbl.find_opt aggs span with
        | Some a when a.Trace.calls > 0 ->
          Some
            (Meter.metric ~samples:a.Trace.calls name unit_
               (float_of_int a.Trace.total_ns /. float_of_int a.Trace.calls *. scale))
        | _ -> None)
      span_metrics
  in
  let fig11 =
    List.filter_map
      (fun i ->
        match (Trace.mean_ns (Printf.sprintf "tpch.fig11_q%d" i), Trace.mean_ns (Printf.sprintf "tpch.list_q%d" i)) with
        | Some smc, Some list -> Some (Meter.metric (Printf.sprintf "tpch.fig11_ratio_q%d" i) "ratio" (smc /. list))
        | _ -> None)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  spans @ fig11

(* Self time per layer as a share of all traced self time. *)
let self_shares () =
  let by = Trace.self_by_layer () in
  let total = Hashtbl.fold (fun _ ns acc -> acc + ns) by 0 in
  List.map
    (fun l ->
      Meter.metric ("self." ^ l ^ "_pct") "%"
        (100. *. ratio (Option.value ~default:0 (Hashtbl.find_opt by l)) total))
    layers

(* Counter ratios of one runtime over a traced window. [ops] is the number
   of mutations the window applied. *)
let obs_metrics ~before ~after ~ops =
  let d = O.diff after before in
  let g c = O.get d c in
  [
    Meter.metric "offheap.epoch_adv_fail_ratio" "ratio"
      (ratio (g O.c_epoch_adv_fail) (g O.c_epoch_adv_ok + g O.c_epoch_adv_fail));
    Meter.metric "offheap.entry_recycle_ratio" "ratio"
      (ratio (g O.c_entries_recycled) (g O.c_entries_minted + g O.c_entries_recycled));
    Meter.metric "offheap.slot_recycle_ratio" "ratio" (ratio (g O.c_slot_recycles) (g O.c_allocs));
    Meter.metric "index.stale_ratio" "ratio" (ratio (g O.c_idx_stale) (g O.c_idx_hits + g O.c_idx_stale));
    Meter.metric "matview.rescan_ratio" "ratio" (ratio (g O.c_mv_rescans) (g O.c_mv_reads));
    Meter.metric "matview.applied_per_op" "ratio" (ratio (g O.c_mv_applied) ops);
    Meter.metric "persist.wal_syncs_per_op" "ratio" (ratio (g O.c_persist_wal_syncs) ops);
  ]

let gc_metrics ~(before : Gc.stat) ~(after : Gc.stat) ~minor_words ~ops =
  [
    Meter.metric "gc.minor_words_per_op" "words" (minor_words /. float_of_int (max 1 ops));
    Meter.metric "gc.major_collections" "count"
      (float_of_int (after.Gc.major_collections - before.Gc.major_collections));
    Meter.metric "gc.top_heap_mb" "MB" (float_of_int after.Gc.top_heap_words *. 8. /. 1048576.);
  ]

let overhead_pct ~untraced ~traced = Meter.metric "trace.overhead_pct" "%" (100. *. (traced -. untraced) /. untraced)

(* ---- probes, each recording spans ---- *)

let repeat n f =
  for _ = 1 to n do
    f ()
  done

(* Q1/Q6 on the engine set, the compiled TPC-H queries, and the managed
   [List] baseline of Fig 11, over one loaded database. *)
let query_probe ~(db : Db_smc.t) ~(ds : Row.dataset) ~reps =
  let src = LQ.lineitem_source db in
  let engines =
    [
      ("volcano", fun p -> ignore (Q.Interp.collect p));
      ("fuse", fun p -> ignore (Q.Fuse.collect p));
      ("vector", fun p -> ignore (Q.Vector.collect p));
    ]
  in
  List.iter
    (fun (q, mk) ->
      let plan = mk src in
      List.iter (fun (e, run) -> repeat reps (fun () -> Trace.span (Printf.sprintf "query.%s.%s" e q) (fun () -> run plan))) engines;
      let runner, _ = Trace.span "query.codegen.prepare" (fun () -> Q.Codegen.prepare plan) in
      repeat reps (fun () -> Trace.span ("query.compiled." ^ q) (fun () -> runner (fun _ -> ()))))
    [ ("q1", LQ.q1_plan); ("q6", LQ.q6_plan) ];
  let list_db = Db_managed.of_vectors ds in
  let pair i smc list =
    repeat reps (fun () ->
        Trace.span (Printf.sprintf "tpch.fig11_q%d" i) (fun () -> ignore (Sys.opaque_identity (smc ())));
        Trace.span (Printf.sprintf "tpch.list_q%d" i) (fun () -> ignore (Sys.opaque_identity (list ()))))
  in
  pair 1 (fun () -> Obj.repr (Q_smc.q1 ~unsafe:true db)) (fun () -> Obj.repr (Q_managed.q1 list_db));
  pair 2 (fun () -> Obj.repr (Q_smc.q2 ~unsafe:true db)) (fun () -> Obj.repr (Q_managed.q2 list_db));
  pair 3 (fun () -> Obj.repr (Q_smc.q3 ~unsafe:true db)) (fun () -> Obj.repr (Q_managed.q3 list_db));
  pair 4 (fun () -> Obj.repr (Q_smc.q4 ~unsafe:true db)) (fun () -> Obj.repr (Q_managed.q4 list_db));
  pair 5 (fun () -> Obj.repr (Q_smc.q5 ~unsafe:true db)) (fun () -> Obj.repr (Q_managed.q5 list_db));
  pair 6 (fun () -> Obj.repr (Q_smc.q6 ~unsafe:true db)) (fun () -> Obj.repr (Q_managed.q6 list_db))

(* The enumeration floor and the empty critical section of one collection. *)
let core_read_probe coll =
  repeat 10_000 (fun () -> Trace.span "core.with_read" (fun () -> C.with_read coll ignore));
  repeat 5 (fun () -> Trace.span "core.iter_scan" (fun () -> C.iter_scan coll ~on_block:(fun _ _ -> ())))

(* Point probes straight into a hash index, keys drawn by [key_of]. *)
let index_probe ix key_of =
  let g = Smc_util.Prng.create ~seed:5L () in
  repeat 10_000 (fun () ->
      let k = key_of g in
      Trace.span "index.probe" (fun () -> Smc_index.Hash_index.probe ix k ~f:(fun _ _ _ -> ())))
