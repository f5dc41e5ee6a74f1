(* Workload [churn]: write-dominated traffic (the paper's Fig 6/7 setting plus
   the extension write paths). One closed-loop client applies a seeded mix
   of bare replaces (remove + add), bare stores, 8-op transactions and
   indexed point lookups to 100k rows of the 23-word lineitem shape, with a
   hash index, a maintained group-by view and a write-ahead log attached.
   Recovery (snapshot restore + WAL-tail replay) is timed at the end. *)

open Smc_tpch
module C = Smc.Collection
module F = Smc.Field
module Q = Smc_query
module V = Smc_query.Value
module D = Smc_decimal.Decimal
module Prng = Smc_util.Prng
module W = Smc_persist.Wal
module S = Smc_persist.Snapshot

let default_rows = 100_000
let setup_reps = 5
let stream_len = 1 lsl 20 (* pre-generated ops; a run uses fewer *)
let round_ops = 256
let compact_every = 20_000
let refresh_every = 10_000 (* a bulk replace of [refresh_rows] rows *)
let refresh_rows = 1000
let wal_every = 256
let tail_ops = 20_000 (* ops logged after the recovery checkpoint *)
let recover_reps = 3
let modes = [| "AIR"; "FOB"; "MAIL"; "RAIL"; "REG AIR"; "SHIP"; "TRUCK" |]

(* Kinds in the pre-generated stream. *)
let k_replace = 0
let k_store = 1
let k_txn = 2

(* Per-row payload columns, pre-generated from the seed; a replace re-adds
   the row's own payload under the same key. *)
type payload = { qty : int array; price : int array; disc : int array; ship : int array; mode : int array }

type st = {
  rt : Smc_offheap.Runtime.t;
  coll : C.t;
  ix : Smc_index.Hash_index.t;
  mv : Smc_matview.Matview.t;
  src : Q.Source.t;
  mutable wal : W.t;
  mutable wal_path : string;
  mutable snap_path : string;
  refs : Smc.Ref.t array;  (** row [i] has key [i] *)
  p : payload;
}

let lf = Db_smc.lineitem_fields
let key_field = lf.Db_smc.l_linenumber
let qty_word = lf.Db_smc.l_quantity.Smc_offheap.Layout.word
let columns = ("key", Q.Source.C_int key_field) :: Shapes.columns lf
let view_keys = Q.Expr.[ ("rf", Col "returnflag"); ("ls", Col "linestatus") ]
let view_aggs = [ ("sum_qty", Q.Source.V_sum (Q.Expr.Col "quantity")); ("n", Q.Source.V_count) ]
let lookup_plan src k = Q.Plan.(where Q.Expr.(Eq (Col "key", Const (V.Int k))) (scan src))

let init p i blk slot =
  F.set_int key_field blk slot i;
  F.set_dec lf.Db_smc.l_quantity blk slot p.qty.(i);
  F.set_dec lf.Db_smc.l_extendedprice blk slot p.price.(i);
  F.set_dec lf.Db_smc.l_discount blk slot p.disc.(i);
  F.set_dec lf.Db_smc.l_tax blk slot (D.of_cents (i mod 9));
  F.set_string lf.Db_smc.l_returnflag blk slot (if i land 1 = 0 then "N" else "R");
  F.set_string lf.Db_smc.l_linestatus blk slot (if i land 2 = 0 then "O" else "F");
  F.set_date lf.Db_smc.l_shipdate blk slot p.ship.(i);
  F.set_date lf.Db_smc.l_commitdate blk slot (p.ship.(i) + 30);
  F.set_date lf.Db_smc.l_receiptdate blk slot (p.ship.(i) + 45);
  F.set_string lf.Db_smc.l_shipmode blk slot modes.(p.mode.(i));
  F.set_string lf.Db_smc.l_comment blk slot "churn workload row"

let payload ?(rows = default_rows) seed =
  let g = Prng.create ~seed:(Int64.of_int ((seed * 31) + 7)) () in
  {
    qty = Array.init rows (fun _ -> D.of_int (Prng.int_in g 1 50));
    price = Array.init rows (fun _ -> D.of_cents (Prng.int_in g 100_000 10_000_000));
    disc = Array.init rows (fun _ -> D.of_cents (Prng.int_in g 0 10));
    ship = Array.init rows (fun _ -> Spec.start_date + Prng.int g 2500);
    mode = Array.init rows (fun _ -> Prng.int g (Array.length modes));
  }

(* Load, attach index, view and WAL, and write the snapshot recovery
   starts from. *)
let setup p ~work_dir () =
  let rt = Smc_offheap.Runtime.create () in
  let coll = C.create rt ~name:"churn" ~layout:Schema.lineitem () in
  let rows = Array.length p.qty in
  let refs = Array.init rows (fun i -> C.add coll ~init:(init p i)) in
  let ix =
    Smc_index.Hash_index.attach ~initial_capacity:(2 * rows) ~name:"key"
      ~key:(Smc_index.Hash_index.Int_key (F.get_int key_field)) coll
  in
  let mv = Smc_matview.Matview.attach ~name:"by_flags" coll ~columns ~keys:view_keys ~aggs:view_aggs () in
  let src = Q.Source.of_smc coll ~columns ~indexes:[ ("key", ix) ] ~matviews:[ Smc_matview.Matview.info mv ] in
  let wal_path = Filename.concat work_dir "churn.wal" and snap_path = Filename.concat work_dir "churn.smcsnap" in
  let wal = W.create ~sync:(W.Every wal_every) ~path:wal_path ~name:"churn" () in
  W.attach wal coll;
  ignore
    (Trace.span "persist.snapshot" (fun () -> S.write ~wal ~indexes:[ ("key", "l_linenumber") ] ~path:snap_path coll)
      : S.manifest * int);
  { rt; coll; ix; mv; src; wal; wal_path; snap_path; refs; p }

let dispose st =
  W.detach st.wal st.coll;
  W.close st.wal;
  Smc_matview.Matview.detach st.mv;
  Smc_index.Hash_index.detach st.ix;
  Sys.remove st.wal_path;
  Sys.remove st.snap_path

(* ---- the op stream ---- *)

type stream = { kind : int array; target : int array; value : int array }

(* 30% replace, 25% store, 5% transaction, 40% lookup: 1.35 WAL records per
   op, so about one op in 190 pays the group-commit fsync. *)
let stream ?(rows = default_rows) seed =
  let g = Prng.create ~seed:(Int64.of_int ((seed * 131) + 3)) () in
  let kind =
    Array.init stream_len (fun _ ->
        let x = Prng.int g 100 in
        if x < 30 then k_replace else if x < 55 then k_store else if x < 60 then k_txn else 3)
  in
  let target = Array.init stream_len (fun _ -> Prng.int g rows) in
  let value = Array.init stream_len (fun _ -> D.of_int (Prng.int_in g 1 50)) in
  { kind; target; value }

type out = {
  writes : Meter.samples;  (** ns per bare add, remove or store *)
  commits : Meter.samples;  (** ns per 8-op transaction, stage to commit *)
  lookups : Meter.samples;  (** ns per planned + executed point query *)
  requests : Meter.samples;  (** ns per op of the mix *)
  rounds : Meter.samples;  (** ns per [round_ops] ops, compaction included *)
  refreshes : Meter.samples;  (** ns per bulk replace of [refresh_rows] rows *)
  mutable ops : int;
  mutable moved : int;
  mutable passes : int;
  mutable minor_words : float;
  mutable failures : string list;
  mutable elapsed : float;
}

let window ?(max_ops = max_int) st s ~seconds ~first =
  let o =
    {
      writes = Meter.samples ();
      commits = Meter.samples ();
      lookups = Meter.samples ();
      requests = Meter.samples ();
      rounds = Meter.samples ();
      refreshes = Meter.samples ();
      ops = 0;
      moved = 0;
      passes = 0;
      minor_words = 0.;
      failures = [];
      elapsed = 0.;
    }
  in
  let coll = st.coll in
  let timed_write name f =
    let t0 = Meter.now_ns () in
    let r = Trace.span name f in
    Meter.add o.writes (float_of_int (Meter.now_ns () - t0));
    r
  in
  let replace i =
    if not (timed_write "core.remove" (fun () -> C.remove coll st.refs.(i))) then
      o.failures <- Printf.sprintf "remove of key %d returned false" i :: o.failures;
    st.refs.(i) <- timed_write "core.add" (fun () -> C.add coll ~init:(init st.p i))
  in
  let store i v =
    timed_write "core.store" (fun () -> C.store coll st.refs.(i) ~word:qty_word ~value:v);
    st.p.qty.(i) <- v
  in
  (* Two staged replaces and four staged stores on six distinct rows. *)
  let txn j =
    let rs = Array.init 6 (fun d -> (s.target.(j) + (d * 7919)) mod Array.length st.refs) in
    let t0 = Meter.now_ns () in
    let tx = C.txn coll in
    Trace.span "core.txn_stage" (fun () ->
        for d = 0 to 1 do
          C.stage_remove tx st.refs.(rs.(d));
          C.stage_add tx ~init:(init st.p rs.(d))
        done;
        for d = 2 to 5 do
          C.stage_store tx st.refs.(rs.(d)) ~word:qty_word ~value:s.value.(j)
        done);
    let res = Trace.span "core.txn_commit" (fun () -> C.commit tx) in
    Meter.add o.commits (float_of_int (Meter.now_ns () - t0));
    match res with
    | C.Committed [ a; b ] ->
      st.refs.(rs.(0)) <- a;
      st.refs.(rs.(1)) <- b;
      for d = 2 to 5 do
        st.p.qty.(rs.(d)) <- s.value.(j)
      done
    | C.Committed _ -> o.failures <- "transaction returned the wrong number of refs" :: o.failures
    | C.Conflict -> o.failures <- "transaction conflict with a single writer" :: o.failures
  in
  let lookup i =
    let t0 = Meter.now_ns () in
    let p = Trace.span "query.plan" (fun () -> Q.Planner.choose_access_paths (lookup_plan st.src i)) in
    let res = Trace.span "query.vector.lookup" (fun () -> Q.Vector.collect p) in
    Meter.add o.lookups (float_of_int (Meter.now_ns () - t0));
    match res with
    | [ row ] when row.(0) = V.Int i -> ()
    | _ -> o.failures <- Printf.sprintf "lookup of key %d returned %d rows" i (List.length res) :: o.failures
  in
  let w0 = Gc.minor_words () in
  let start = Meter.now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let k = ref first in
  let round_start = ref start in
  while Meter.now_ns () < deadline && o.ops < max_ops do
    for _ = 1 to round_ops do
      let j = !k land (stream_len - 1) in
      Trace.set_rid !k;
      let t0 = Meter.now_ns () in
      (try
         let kind = s.kind.(j) and i = s.target.(j) in
         if kind = k_replace then replace i
         else if kind = k_store then store i s.value.(j)
         else if kind = k_txn then txn j
         else lookup i
       with e -> o.failures <- Printexc.to_string e :: o.failures);
      Meter.add o.requests (float_of_int (Meter.now_ns () - t0));
      incr k;
      o.ops <- o.ops + 1;
      if !k mod refresh_every = 0 then begin
        let rows = Array.length st.refs and base = s.target.(j) in
        let r0 = Meter.now_ns () in
        Trace.span "bench.refresh" (fun () ->
            for d = 0 to refresh_rows - 1 do
              let i = (base + d) mod rows in
              ignore (C.remove coll st.refs.(i) : bool);
              st.refs.(i) <- C.add coll ~init:(init st.p i)
            done);
        Meter.add o.refreshes (float_of_int (Meter.now_ns () - r0))
      end;
      if !k mod compact_every = 0 then begin
        let rep = Trace.span "core.compact" (fun () -> C.compact coll ()) in
        o.passes <- o.passes + 1;
        o.moved <- o.moved + rep.Smc_offheap.Compaction.objects_moved
      end
    done;
    let now = Meter.now_ns () in
    Meter.add o.rounds (float_of_int (now - !round_start));
    round_start := now
  done;
  o.elapsed <- Meter.ns_to_s (Meter.now_ns () - start);
  o.minor_words <- Gc.minor_words () -. w0;
  o

(* ---- gates ---- *)

(* Non-reference words of a row. *)
let payload_words =
  Array.to_list Schema.lineitem.Smc_offheap.Layout.fields
  |> List.concat_map (fun (f : Smc_offheap.Layout.field) ->
         match f.Smc_offheap.Layout.ftype with
         | Smc_offheap.Layout.Ref _ -> []
         | _ -> List.init f.Smc_offheap.Layout.words (fun w -> f.Smc_offheap.Layout.word + w))

(* Whether [back] holds exactly the live rows: one row per key, each with
   the payload of the live row [st.refs] names for that key. *)
let same_as_live st back =
  let rows = Array.length st.refs in
  let seen = Bytes.make rows '\000' in
  let ok = ref (C.count back = C.count st.coll) in
  C.with_read st.coll (fun () ->
      C.with_read back (fun () ->
          C.iter back ~f:(fun blk slot ->
              let k = F.get_int key_field blk slot in
              if k < 0 || k >= rows || Bytes.get seen k <> '\000' then ok := false
              else begin
                Bytes.set seen k '\001';
                match C.deref_opt st.coll st.refs.(k) with
                | None -> ok := false
                | Some (lb, ls) ->
                  List.iter
                    (fun word ->
                      if Smc_offheap.Block.get_word blk ~slot ~word <> Smc_offheap.Block.get_word lb ~slot:ls ~word then
                        ok := false)
                    payload_words
              end)));
  !ok

let audits st r =
  let contexts = [ st.coll.C.ctx ] in
  Report.check_list r "audit" (Smc_check.Audit.check_once st.rt ~contexts);
  Report.check_list r "obs" (Smc_check.Obs_check.check st.rt ~contexts);
  Report.check_list r "index" (Smc_check.Index_check.check [ st.ix ]);
  Report.check_list r "matview" (Smc_check.Matview_check.check [ st.mv ])

(* Checkpoint at a quiescent point: rotate the log, snapshot, then log a
   fixed tail of [tail_ops] ops, so the replay recovery times does not grow
   with the throughput of the measured window. *)
let checkpoint st s ~work_dir =
  let wal = W.create ~sync:(W.Every wal_every) ~base:(W.lsn st.wal) ~path:(Filename.concat work_dir "churn-tail.wal") ~name:"churn" () in
  W.detach st.wal st.coll;
  W.close st.wal;
  Sys.remove st.wal_path;
  W.attach wal st.coll;
  st.wal <- wal;
  st.wal_path <- W.path wal;
  Sys.remove st.snap_path;
  st.snap_path <- Filename.concat work_dir "churn-checkpoint.smcsnap";
  ignore
    (Trace.span "persist.snapshot" (fun () -> S.write ~wal ~indexes:[ ("key", "l_linenumber") ] ~path:st.snap_path st.coll)
      : S.manifest * int);
  let o = window ~max_ops:tail_ops st s ~seconds:60. ~first:(stream_len / 8) in
  W.flush wal;
  o.failures

(* Restore the checkpoint and replay the WAL tail, until the collection
   answers indexed lookups; then compare it with the live one. The median
   of [recover_reps] recoveries is reported. *)
let recover st r =
  let times = Meter.samples () in
  for _ = 1 to recover_reps do
    Gc.full_major ();
    let t0 = Meter.now_ns () in
    let res = S.restore ~wal:st.wal_path ~path:st.snap_path () in
    Meter.add times (float_of_int (Meter.now_ns () - t0));
    Report.check r (same_as_live st res.S.r_coll) "recover: restored rows differ from the live ones";
    Report.check_list r "recover index" (Smc_check.Index_check.check (List.map snd res.S.r_indexes))
  done;
  Meter.median times *. 1e-9

(* Traced only: restore and replay as separate steps, so each has a span. *)
let recover_traced st =
  let res = Trace.span "persist.restore" (fun () -> S.restore ~path:st.snap_path ()) in
  let cut = (S.read_manifest st.snap_path).S.wal_lsn in
  ignore (Trace.span "persist.replay" (fun () -> S.replay_wal res.S.r_coll ~path:st.wal_path ~cut) : int * int)

let run ~seed ~seconds ~trace ~work_dir =
  let r = Report.create () in
  let p = payload seed in
  let s = stream seed in
  let st, setup_s = Report.setup_median ~reps:setup_reps ~setup:(setup p ~work_dir) ~dispose in
  (* Warm-up: one untimed second of the same traffic. *)
  ignore (window st s ~seconds:1.0 ~first:(stream_len / 2));
  (* Compact now, so no major-GC work left by set-up, checks or warm-up
     lands in the timed window. *)
  Gc.compact ();
  let obs () = Smc_obs.snapshot st.rt.Smc_offheap.Runtime.obs in
  let wal_bytes () =
    W.flush st.wal;
    (Unix.stat st.wal_path).Unix.st_size
  in
  let o = window st s ~seconds:(if trace then seconds /. 2. else seconds) ~first:0 in
  let traced =
    if trace then begin
      let obs_a = obs () and gc_a = Gc.quick_stat () and wal_a = wal_bytes () in
      Trace.enabled := true;
      let t = window st s ~seconds:(seconds /. 2.) ~first:(stream_len / 4) in
      let obs_b = obs () and gc_b = Gc.quick_stat () and wal_b = wal_bytes () in
      List.iter (fun f -> Report.fail r ("churn traced: " ^ f)) t.failures;
      Report.attempt r t.ops;
      let shares = Layers.self_shares () in
      Layers.core_read_probe st.coll;
      Layers.index_probe st.ix (fun g -> Smc_index.Hash_index.K_int (Prng.int g default_rows));
      let spans = Layers.from_spans () @ shares in
      Trace.enabled := false;
      Some
        (spans
        @ Layers.obs_metrics ~before:obs_a ~after:obs_b ~ops:t.ops
        @ Layers.gc_metrics ~before:gc_a ~after:gc_b ~minor_words:t.minor_words ~ops:t.ops
        @ [
            Meter.metric "persist.wal_bytes_per_op" "B" (Layers.ratio (wal_b - wal_a) t.ops);
            Meter.metric "offheap.objects_moved" "count" (Layers.ratio t.moved t.passes);
            Layers.overhead_pct ~untraced:(o.elapsed /. float_of_int o.ops) ~traced:(t.elapsed /. float_of_int t.ops);
          ])
    end
    else None
  in
  List.iter (fun f -> Report.fail r ("churn: " ^ f)) (o.failures);
  Report.attempt r o.ops;
  audits st r;
  Trace.enabled := trace;
  List.iter (fun f -> Report.fail r ("churn tail: " ^ f)) (checkpoint st s ~work_dir);
  Report.attempt r tail_ops;
  if trace then recover_traced st;
  Trace.enabled := false;
  let recover_s = recover st r in
  let words = C.memory_words st.coll + (Smc_index.Hash_index.stats st.ix).Smc_index.Hash_index.memory_words in
  (match traced with
  | Some ms -> Report.add_metrics r ms
  | None ->
    let ms = 1e-6 and us = 1e-3 in
    Report.add_metrics r
      (Meter.latency ~p50:"round_p50_ms" ~tail:"round_p90_ms" ~p:0.90 ~unit_:"ms" ~scale:ms o.rounds
      @ [ Meter.metric ~samples:(Meter.count o.refreshes) "refresh_p50_ms" "ms" (Meter.median o.refreshes *. ms) ]
      @ Meter.latency ~p50:"write_p50_us" ~tail:"write_p90_us" ~p:0.90 ~unit_:"us" ~scale:us o.writes
      @ Meter.latency ~p50:"commit_p50_us" ~tail:"commit_p90_us" ~p:0.90 ~unit_:"us" ~scale:us o.commits
      @ Meter.latency ~p50:"lookup_p50_us" ~tail:"lookup_p90_us" ~p:0.90 ~unit_:"us" ~scale:us o.lookups
      @ Meter.latency ~p50:"request_p50_us" ~tail:"request_p90_us" ~p:0.90 ~unit_:"us" ~scale:us o.requests
      @ [
          Meter.metric "ops_per_s" "1/s" (float_of_int o.ops /. o.elapsed);
          Meter.metric "recover_s" "s" recover_s;
          Meter.metric "setup_s" "s" setup_s;
          Meter.metric "bytes_per_row" "B" (float_of_int (8 * words) /. float_of_int (C.count st.coll));
          Meter.metric "max_rss_mb" "MB" (Meter.max_rss_mb ());
        ]));
  Report.note r (Printf.sprintf "WAL flush policy: group commit, fsync every %d records" wal_every);
  dispose st;
  r
