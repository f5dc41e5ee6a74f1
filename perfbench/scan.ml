(* Workload [scan]: query-dominated traffic over TPC-H (the paper's Fig 8/11
   setting). One domain runs a closed loop of query rounds; a second runs an
   open loop of Fig 8 refresh pairs and compaction passes on a fixed
   schedule, so the queries race mutation, epoch reclamation and compaction.

   Two insert streams are available. [Rows], the gated [scan] workload,
   inserts rows from [Refresh.fresh_lineitem_row] with every reference set.
   [Refresh_ops], the [scan_refresh_ops] workload, runs [Refresh.smc_ops]'s
   and [Refresh.smc_txn_ops]'s own insert halves unchanged. Those leave
   [l_part] and [l_supplier] as zero words, which are not null: Q5 then
   follows them out of the supplier collection and raises, and each such
   failure counts. *)

open Smc_tpch
module C = Smc.Collection
module F = Smc.Field
module Q = Smc_query
module V = Smc_query.Value
module D = Smc_decimal.Decimal
module LQ = Smc_experiments.Linq_vs_compiled
module Prng = Smc_util.Prng

type inserts = Rows | Refresh_ops

let sf = 0.05
let lookups_per_round = 48

(* Vector's chunk capacity for a point lookup, which returns the few
   lineitems of one order. With the default 1024-row chunk each lookup
   allocates ~64 KB of boxed columns outside the minor heap, and its time
   switched between ~20 and ~58 µs for seconds at a time within one run. *)
let lookup_batch_rows = 16
let slot_period_ns = 100_000_000 (* one open-loop op due every 100 ms *)
let compact_every = 8 (* every 8th op is a compaction pass, the rest refresh pairs *)
let setup_reps = 5
let restore_reps = 3

type st = {
  ds : Row.dataset;
  db : Db_smc.t;
  ix : Smc_index.Hash_index.t;
  mv : Smc_matview.Matview.t;
  src : Q.Source.t;  (** advertises the index and the view *)
  plain : Q.Source.t;  (** same columns, no access paths: the reference side *)
  part_refs : Smc.Ref.t array;  (** by partkey - 1 *)
  supp_refs : Smc.Ref.t array;  (** by suppkey - 1 *)
}

open Shapes

let lookup_plan src k = Q.Plan.(where Q.Expr.(Eq (Col "orderkey", Const (V.Int k))) (scan src))

(* The key of a lineitem's order, read through its order reference. The
   lineitems are indexed on it, TPC-H's foreign key: the refresh stream's
   fresh rows share one value in every indexable column of their own
   (ship, commit and receipt date, line number, the strings), and a hash
   index on such a column grows one linear-probe cluster that every add
   walks (~65 µs per add ten seconds into a run). *)
let orderkey_of (db : Db_smc.t) =
  let orders = db.Db_smc.orders and key = db.Db_smc.orf.Db_smc.o_orderkey in
  let l_order = db.Db_smc.lf.Db_smc.l_order in
  fun blk slot ->
    let loc = F.follow_loc l_order ~target:orders blk slot in
    if loc < 0 then -1 else F.get_int key (C.loc_block orders loc) (C.loc_slot loc)

let setup seed () =
  let ds = Dbgen.generate ~seed:(Int64.of_int seed) ~sf () in
  let db = Db_smc.load ds in
  let lf = db.Db_smc.lf in
  let orderkey = orderkey_of db in
  let ix =
    Smc_index.Hash_index.attach ~name:"l_orderkey" ~key:(Smc_index.Hash_index.Int_key orderkey)
      db.Db_smc.lineitems
  in
  let cols = columns lf @ [ ("orderkey", Q.Source.C_fn (fun blk slot -> V.Int (orderkey blk slot))) ] in
  let mv =
    Smc_matview.Matview.attach ~name:"q1_view" db.Db_smc.lineitems ~columns:(columns lf)
      ~keys:view_keys
      ~aggs:(List.map (fun (n, a) -> (n, Q.Plan.view_agg_of_agg a)) view_aggs)
      ~where:view_where ()
  in
  let src =
    Q.Source.of_smc db.Db_smc.lineitems ~columns:cols ~indexes:[ ("orderkey", ix) ]
      ~matviews:[ Smc_matview.Matview.info mv ]
  in
  let plain = Q.Source.of_smc db.Db_smc.lineitems ~columns:cols in
  let refs_by_key coll key_field n =
    let a = Array.make n Smc.Ref.null in
    C.iter coll ~f:(fun blk slot -> a.(F.get_int key_field blk slot - 1) <- C.ref_of_slot coll blk slot);
    a
  in
  let part_refs = refs_by_key db.Db_smc.parts db.Db_smc.pf.Db_smc.p_partkey (Array.length ds.Row.parts) in
  let supp_refs = refs_by_key db.Db_smc.suppliers db.Db_smc.sf_.Db_smc.s_suppkey (Array.length ds.Row.suppliers) in
  { ds; db; ix; mv; src; plain; part_refs; supp_refs }

let dispose st =
  Smc_matview.Matview.detach st.mv;
  Smc_index.Hash_index.detach st.ix

(* ---- the query domain ---- *)

type round_out = {
  rounds : Meter.samples;  (** ns per round *)
  lookups : Meter.samples;  (** ns per planned + executed point query *)
  mutable queries : int;
  mutable q_minor_words : float;
  mutable q_failures : string list;
}

let query_domain st ~keys ~deadline ~first_round =
  let o =
    { rounds = Meter.samples (); lookups = Meter.samples (); queries = 0; q_minor_words = 0.; q_failures = [] }
  in
  let w0 = Gc.minor_words () in
  let db = st.db in
  let q name f = Trace.span name (fun () -> ignore (Sys.opaque_identity (f ()))) in
  let vec ?batch_rows name plan =
    let p = Trace.span "query.plan" (fun () -> Q.Planner.choose_access_paths plan) in
    Trace.span name (fun () -> ignore (Sys.opaque_identity (Q.Vector.collect ?batch_rows p)))
  in
  let k = ref first_round in
  while Meter.now_ns () < deadline do
    Trace.set_rid !k;
    let t0 = Meter.now_ns () in
    (match
       Trace.span "bench.round" (fun () ->
           q "tpch.q1" (fun () -> Q_smc.q1 ~unsafe:true db);
           q "tpch.q2" (fun () -> Q_smc.q2 ~unsafe:true db);
           q "tpch.q3" (fun () -> Q_smc.q3 ~unsafe:true db);
           q "tpch.q4" (fun () -> Q_smc.q4 ~unsafe:true db);
           q "tpch.q5" (fun () -> Q_smc.q5 ~unsafe:true db);
           q "tpch.q6" (fun () -> Q_smc.q6 ~unsafe:true db);
           vec "query.vector.q1" (LQ.q1_plan st.src);
           vec "query.vector.q6" (LQ.q6_plan st.src);
           for i = 0 to lookups_per_round - 1 do
             let key = keys.(((!k * lookups_per_round) + i) mod Array.length keys) in
             let l0 = Meter.now_ns () in
             vec ~batch_rows:lookup_batch_rows "query.vector.lookup" (lookup_plan st.src key);
             Meter.add o.lookups (float_of_int (Meter.now_ns () - l0))
           done;
           vec "matview.read" (group_plan st.src))
     with
    | () -> Meter.add o.rounds (float_of_int (Meter.now_ns () - t0))
    | exception e -> o.q_failures <- Printf.sprintf "round %d: %s" !k (Printexc.to_string e) :: o.q_failures);
    o.queries <- o.queries + 9 + lookups_per_round;
    incr k
  done;
  o.q_minor_words <- Gc.minor_words () -. w0;
  Smc_offheap.Epoch.release_current_domain ();
  o

(* ---- the mutation domain ---- *)

type mut_out = {
  writes : Meter.samples;  (** ns per bare add of a refresh insert half *)
  commits : Meter.samples;  (** ns per insert half staged and committed as one transaction *)
  refreshes : Meter.samples;  (** ns per refresh pair *)
  requests : Meter.samples;  (** ns per open-loop op, from its due time *)
  lateness : Meter.samples;  (** ns the op started after its due time *)
  mutable ops : int;
  mutable rows : int;  (** lineitems added or removed *)
  mutable moved : int;
  mutable passes : int;
  mutable m_minor_words : float;
  mutable m_failures : string list;
}

(* Initialiser for one [Refresh.fresh_lineitem_row]: every field set, the
   order, part and supplier references included. *)
let init_row st (li : Row.lineitem) =
  let db = st.db in
  let lf = db.Db_smc.lf in
  fun blk slot ->
    F.set_ref lf.Db_smc.l_order ~target:db.Db_smc.orders blk slot
      db.Db_smc.order_refs.(li.Row.l_order.Row.o_orderkey - 1);
    F.set_ref lf.Db_smc.l_part ~target:db.Db_smc.parts blk slot st.part_refs.(li.Row.l_part.Row.p_partkey - 1);
    F.set_ref lf.Db_smc.l_supplier ~target:db.Db_smc.suppliers blk slot
      st.supp_refs.(li.Row.l_supplier.Row.s_suppkey - 1);
    F.set_int lf.Db_smc.l_linenumber blk slot li.Row.l_linenumber;
    F.set_dec lf.Db_smc.l_quantity blk slot li.Row.l_quantity;
    F.set_dec lf.Db_smc.l_extendedprice blk slot li.Row.l_extendedprice;
    F.set_dec lf.Db_smc.l_discount blk slot li.Row.l_discount;
    F.set_dec lf.Db_smc.l_tax blk slot li.Row.l_tax;
    F.set_string lf.Db_smc.l_returnflag blk slot (String.make 1 li.Row.l_returnflag);
    F.set_string lf.Db_smc.l_linestatus blk slot (String.make 1 li.Row.l_linestatus);
    F.set_date lf.Db_smc.l_shipdate blk slot li.Row.l_shipdate;
    F.set_date lf.Db_smc.l_commitdate blk slot li.Row.l_commitdate;
    F.set_date lf.Db_smc.l_receiptdate blk slot li.Row.l_receiptdate;
    F.set_string lf.Db_smc.l_shipinstruct blk slot li.Row.l_shipinstruct;
    F.set_string lf.Db_smc.l_shipmode blk slot li.Row.l_shipmode;
    F.set_string lf.Db_smc.l_comment blk slot li.Row.l_comment

(* Open loop: op [k] is due [k] slot periods after [start]. Every
   [compact_every]th op is a compaction pass; the others are Fig 8 refresh
   pairs, alternately bare ([Refresh.smc_ops]) and transactional
   ([Refresh.smc_txn_ops]), as Fig 8 runs both. *)
let mutation_domain st ~inserts ~g ~start ~deadline ~first_op =
  let db = st.db in
  let coll = db.Db_smc.lineitems in
  let bare = Refresh.smc_ops db st.ds and txn = Refresh.smc_txn_ops db st.ds in
  let batch = max 1 (Array.length st.ds.Row.lineitems / 1000) in
  let o =
    {
      writes = Meter.samples ();
      commits = Meter.samples ();
      refreshes = Meter.samples ();
      requests = Meter.samples ();
      lateness = Meter.samples ();
      ops = 0;
      rows = 0;
      moved = 0;
      passes = 0;
      m_minor_words = 0.;
      m_failures = [];
    }
  in
  let w0 = Gc.minor_words () in
  let fail msg = o.m_failures <- msg :: o.m_failures in
  let elapsed t0 = float_of_int (Meter.now_ns () - t0) in
  (* The insert half of one pair, its rows generated before it is timed. *)
  let insert_half ~transact =
    match inserts with
    | Refresh_ops ->
      let ops = if transact then txn else bare in
      fun () ->
        let t0 = Meter.now_ns () in
        ops.Refresh.insert_batch ~count:batch;
        if transact then Meter.add o.commits (elapsed t0)
        else Meter.add o.writes (elapsed t0 /. float_of_int batch)
    | Rows ->
      let rows = Array.init batch (fun _ -> init_row st (Refresh.fresh_lineitem_row g st.ds)) in
      if transact then (fun () ->
        let t0 = Meter.now_ns () in
        let tx = C.txn coll in
        Trace.span "core.txn_stage" (fun () -> Array.iter (fun init -> C.stage_add tx ~init) rows);
        (match Trace.span "core.txn_commit" (fun () -> C.commit tx) with
        | C.Committed _ -> ()
        | C.Conflict -> fail "insert transaction conflict with a single writer");
        Meter.add o.commits (elapsed t0))
      else (fun () ->
        Array.iter
          (fun init ->
            let t0 = Meter.now_ns () in
            ignore (Trace.span "core.add" (fun () -> C.add coll ~init) : Smc.Ref.t);
            Meter.add o.writes (elapsed t0))
          rows)
  in
  let pair ~transact =
    let insert = insert_half ~transact in
    let keys = Hashtbl.create batch in
    for _ = 1 to max 1 (batch / 4) do
      Hashtbl.replace keys (bare.Refresh.random_orderkey g) ()
    done;
    let t0 = Meter.now_ns () in
    Trace.span "tpch.refresh_insert" insert;
    let removed =
      Trace.span "tpch.refresh_remove" (fun () -> (if transact then txn else bare).Refresh.remove_batch ~keys)
    in
    Meter.add o.refreshes (elapsed t0);
    o.rows <- o.rows + batch + removed
  in
  let compact () =
    let rep = Trace.span "core.compact" (fun () -> C.compact coll ()) in
    o.passes <- o.passes + 1;
    o.moved <- o.moved + rep.Smc_offheap.Compaction.objects_moved
  in
  let k = ref first_op in
  let rec loop () =
    let due = start + ((!k - first_op) * slot_period_ns) in
    if due < deadline then begin
      Meter.wait_until due;
      Meter.add o.lateness (float_of_int (Meter.now_ns () - due));
      Trace.set_rid !k;
      (try if !k mod compact_every = compact_every - 1 then compact () else pair ~transact:(!k land 1 = 1)
       with e -> fail (Printexc.to_string e));
      Meter.add o.requests (float_of_int (Meter.now_ns () - due));
      o.ops <- o.ops + 1;
      incr k;
      loop ()
    end
  in
  loop ();
  o.m_minor_words <- Gc.minor_words () -. w0;
  Smc_offheap.Epoch.release_current_domain ();
  o

(* One measured window: both domains start together and stop at the
   deadline. [first] offsets round and op numbers so a second window
   continues the same seeded schedule. *)
let window st ~inserts ~g ~keys ~seconds ~first =
  let start = Meter.now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let qd = Domain.spawn (fun () -> query_domain st ~keys ~deadline ~first_round:first) in
  let md = Domain.spawn (fun () -> mutation_domain st ~inserts ~g ~start ~deadline ~first_op:first) in
  let q = Domain.join qd in
  let m = Domain.join md in
  (q, m, Meter.ns_to_s (Meter.now_ns () - start))

(* ---- correctness gates, run at quiescent points ---- *)


(* The dataset with the live lineitems read back into managed records, so
   [Q_managed] can answer Q1–Q6 over exactly the rows the SMC holds. A
   reference that does not resolve to a row of its target raises. *)
let live_dataset st =
  let db = st.db and ds = st.ds in
  let lf = db.Db_smc.lf in
  let by_key arr key =
    let h = Hashtbl.create (Array.length arr) in
    Array.iter (fun x -> Hashtbl.replace h (key x) x) arr;
    h
  in
  let orders = by_key ds.Row.orders (fun o -> o.Row.o_orderkey) in
  let parts = by_key ds.Row.parts (fun p -> p.Row.p_partkey) in
  let supps = by_key ds.Row.suppliers (fun s -> s.Row.s_suppkey) in
  let follow field ~target ~key_field tbl blk slot =
    match F.follow field ~target blk slot with
    | Some (b, s) -> Hashtbl.find tbl (F.get_int key_field b s)
    | None -> failwith ("lineitem without a " ^ field.Smc_offheap.Layout.name)
  in
  let rows = ref [] in
  C.with_read db.Db_smc.lineitems (fun () ->
      C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
          let str f = F.get_string f blk slot and int f = F.get_int f blk slot in
          rows :=
            {
              Row.l_order = follow lf.Db_smc.l_order ~target:db.Db_smc.orders ~key_field:db.Db_smc.orf.Db_smc.o_orderkey orders blk slot;
              l_part = follow lf.Db_smc.l_part ~target:db.Db_smc.parts ~key_field:db.Db_smc.pf.Db_smc.p_partkey parts blk slot;
              l_supplier =
                follow lf.Db_smc.l_supplier ~target:db.Db_smc.suppliers ~key_field:db.Db_smc.sf_.Db_smc.s_suppkey supps blk slot;
              l_linenumber = int lf.Db_smc.l_linenumber;
              l_quantity = int lf.Db_smc.l_quantity;
              l_extendedprice = int lf.Db_smc.l_extendedprice;
              l_discount = int lf.Db_smc.l_discount;
              l_tax = int lf.Db_smc.l_tax;
              l_returnflag = F.get_char lf.Db_smc.l_returnflag blk slot;
              l_linestatus = F.get_char lf.Db_smc.l_linestatus blk slot;
              l_shipdate = int lf.Db_smc.l_shipdate;
              l_commitdate = int lf.Db_smc.l_commitdate;
              l_receiptdate = int lf.Db_smc.l_receiptdate;
              l_shipinstruct = str lf.Db_smc.l_shipinstruct;
              l_shipmode = str lf.Db_smc.l_shipmode;
              l_comment = str lf.Db_smc.l_comment;
            }
            :: !rows));
  { ds with Row.lineitems = Array.of_list !rows }

(* Quiescent checkpoint: the compiled Q1–Q6 against [Q_managed] over the
   same rows, and every planned plan against Volcano over the plain scan. *)
let checkpoint st r ~keys ~label =
  let db = st.db in
  let chk name ok =
    match ok () with
    | ok -> Report.check r ok (Printf.sprintf "%s: %s differs from its reference" label name)
    | exception e -> Report.check r false (Printf.sprintf "%s: %s raised %s" label name (Printexc.to_string e))
  in
  (match Db_managed.of_vectors (live_dataset st) with
  | exception e -> Report.check r false (Printf.sprintf "%s: reading the lineitems back raised %s" label (Printexc.to_string e))
  | m ->
    chk "Q1" (fun () -> Results.equal_q1 (Q_smc.q1 ~unsafe:true db) (Q_managed.q1 m));
    chk "Q2" (fun () -> Results.equal_q2 (Q_smc.q2 ~unsafe:true db) (Q_managed.q2 m));
    chk "Q3" (fun () -> Results.equal_q3 (Q_smc.q3 ~unsafe:true db) (Q_managed.q3 m));
    chk "Q4" (fun () -> Results.equal_q4 (Q_smc.q4 ~unsafe:true db) (Q_managed.q4 m));
    chk "Q5" (fun () -> Results.equal_q5 (Q_smc.q5 ~unsafe:true db) (Q_managed.q5 m));
    chk "Q6" (fun () -> D.equal (Q_smc.q6 ~unsafe:true db) (Q_managed.q6 m)));
  let planned mk name =
    chk name (fun () ->
        let p = Q.Planner.choose_access_paths (mk st.src) in
        Report.same_rows (Q.Vector.collect p) (Q.Interp.collect (mk st.plain)))
  in
  planned LQ.q1_plan "Vector Q1 plan";
  planned LQ.q6_plan "Vector Q6 plan";
  planned group_plan "ViewRead";
  chk "ViewRead rewrite" (fun () ->
      match Q.Planner.choose_access_paths (group_plan st.src) with Q.Plan.ViewRead _ -> true | _ -> false);
  chk "IndexScan rewrite" (fun () -> Q.Planner.uses_index (Q.Planner.choose_access_paths (lookup_plan st.src keys.(0))));
  Array.iteri (fun i key -> if i < 8 then planned (fun s -> lookup_plan s key) "IndexScan lookup") keys

(* Structural audits over the runtime, the index and the view. *)
let audit st r =
  let db = st.db in
  let contexts =
    List.map (fun c -> c.C.ctx)
      Db_smc.[ db.regions; db.nations; db.suppliers; db.parts; db.partsupps; db.customers; db.orders; db.lineitems ]
  in
  Report.check_list r "audit" (Smc_check.Audit.check_once db.Db_smc.rt ~contexts);
  Report.check_list r "obs" (Smc_check.Obs_check.check db.Db_smc.rt ~contexts);
  Report.check_list r "index" (Smc_check.Index_check.check [ st.ix ]);
  Report.check_list r "matview" (Smc_check.Matview_check.check [ st.mv ])

(* Recovery: a quiescent snapshot of the lineitems, then timed restores
   until the collection answers queries; the median restore is reported. *)
let recover st r ~work_dir =
  let coll = st.db.Db_smc.lineitems in
  let path = Filename.concat work_dir "scan_lineitems.smcsnap" in
  ignore (Trace.span "persist.snapshot" (fun () -> Smc_persist.Snapshot.write ~path coll) : _ * int);
  let times = Meter.samples () in
  let last = ref None in
  for _ = 1 to restore_reps do
    Gc.full_major ();
    let t0 = Meter.now_ns () in
    let res = Trace.span "persist.restore" (fun () -> Smc_persist.Snapshot.restore ~path ()) in
    Meter.add times (float_of_int (Meter.now_ns () - t0));
    last := Some res
  done;
  (match !last with
  | Some res ->
    let rc = res.Smc_persist.Snapshot.r_coll in
    Report.check r (C.count rc = C.count coll) "recover: restored row count differs";
    let lay = rc.C.layout in
    let cols =
      Q.Source.
        [
          ("shipdate", C_date (F.date lay "l_shipdate"));
          ("discount", C_dec (F.dec lay "l_discount"));
          ("quantity", C_dec (F.dec lay "l_quantity"));
          ("price", C_dec (F.dec lay "l_extendedprice"));
          ("tax", C_dec (F.dec lay "l_tax"));
          ("returnflag", C_char (F.str lay "l_returnflag"));
          ("linestatus", C_char (F.str lay "l_linestatus"));
        ]
    in
    Report.check r
      (Report.same_rows
         (Q.Vector.collect (LQ.q1_plan (Q.Source.of_smc rc ~columns:cols)))
         (Q.Vector.collect (LQ.q1_plan st.plain)))
      "recover: Q1 over the restored lineitems differs"
  | None -> ());
  Sys.remove path;
  Meter.median times *. 1e-9

let live_rows (db : Db_smc.t) =
  List.fold_left (fun n c -> n + C.count c) 0
    Db_smc.[ db.regions; db.nations; db.suppliers; db.parts; db.partsupps; db.customers; db.orders; db.lineitems ]

let run ~inserts ~seed ~seconds ~trace ~work_dir =
  let r = Report.create () in
  let st, setup_s = Report.setup_median ~reps:setup_reps ~setup:(setup seed) ~dispose in
  let g = Prng.create ~seed:(Int64.of_int ((seed * 7919) + 1)) () in
  let orders = st.ds.Row.orders in
  let keys = Array.init 4096 (fun _ -> orders.(Prng.int g (Array.length orders)).Row.o_orderkey) in
  checkpoint st r ~keys ~label:"before the run";
  (* Warm-up: one untimed second of the same traffic. *)
  ignore (window st ~inserts ~g ~keys ~seconds:1.0 ~first:1_000_000);
  (* Compact now, so no major-GC work left by set-up, checks or warm-up
     lands in the timed window. *)
  Gc.compact ();
  let measure traced secs first =
    Trace.enabled := traced;
    let out = window st ~inserts ~g ~keys ~seconds:secs ~first in
    Trace.enabled := false;
    out
  in
  let untraced, traced =
    if trace then
      let a = measure false (seconds /. 2.) 0 in
      let obs_a = Smc_obs.snapshot st.db.Db_smc.rt.Smc_offheap.Runtime.obs in
      let gc_a = Gc.quick_stat () in
      let t = measure true (seconds /. 2.) 2_000_000 in
      let tq, tm, _ = t in
      List.iter (fun f -> Report.fail r ("query traced: " ^ f)) tq.q_failures;
      List.iter (fun f -> Report.fail r ("mutation traced: " ^ f)) tm.m_failures;
      let obs_b = Smc_obs.snapshot st.db.Db_smc.rt.Smc_offheap.Runtime.obs in
      (a, Some (t, obs_a, gc_a, obs_b, Gc.quick_stat (), Layers.self_shares ()))
    else (measure false seconds 0, None)
  in
  let q, m, elapsed = untraced in
  List.iter (fun f -> Report.fail r ("query: " ^ f)) q.q_failures;
  List.iter (fun f -> Report.fail r ("mutation: " ^ f)) m.m_failures;
  Report.attempt r (q.queries + m.ops);
  audit st r;
  checkpoint st r ~keys ~label:"after the run";
  Trace.enabled := trace;
  let recover_s = recover st r ~work_dir in
  Trace.enabled := false;
  let words = Db_smc.memory_words st.db + (Smc_index.Hash_index.stats st.ix).Smc_index.Hash_index.memory_words in
  let bytes_per_row = float_of_int (8 * words) /. float_of_int (live_rows st.db) in
  (match traced with
  | None ->
    let ms = 1e-6 and us = 1e-3 in
    Report.add_metrics r
      (Meter.latency ~p50:"round_p50_ms" ~tail:"round_p90_ms" ~p:0.90 ~unit_:"ms" ~scale:ms q.rounds
      @ [ Meter.metric ~samples:(Meter.count m.refreshes) "refresh_p50_ms" "ms" (Meter.median m.refreshes *. ms) ]
      @ Meter.latency ~p50:"write_p50_us" ~tail:"write_p90_us" ~p:0.90 ~unit_:"us" ~scale:us m.writes
      @ Meter.latency ~p50:"commit_p50_us" ~tail:"commit_p90_us" ~p:0.90 ~unit_:"us" ~scale:us m.commits
      @ Meter.latency ~p50:"lookup_p50_us" ~tail:"lookup_p90_us" ~p:0.90 ~unit_:"us" ~scale:us q.lookups
      @ Meter.latency ~p50:"request_p50_us" ~tail:"request_p90_us" ~p:0.90 ~unit_:"us" ~scale:us m.requests
      @ [
          (* Queries only: the mutation rate is set by the schedule. *)
          Meter.metric "ops_per_s" "1/s" (float_of_int q.queries /. elapsed);
          Meter.metric "recover_s" "s" recover_s;
          Meter.metric "setup_s" "s" setup_s;
          Meter.metric "bytes_per_row" "B" bytes_per_row;
          Meter.metric "max_rss_mb" "MB" (Meter.max_rss_mb ());
        ])
  | Some ((tq, tm, _), obs_a, gc_a, obs1, gc1, shares) ->
    let ops = tq.queries + tm.ops in
    let spans = Layers.from_spans () @ shares in
    Trace.enabled := true;
    Layers.query_probe ~db:st.db ~ds:(live_dataset st) ~reps:3;
    Trace.enabled := false;
    Report.add_metrics r
      (spans
      @ Layers.obs_metrics ~before:obs_a ~after:obs1 ~ops:tm.rows
      @ Layers.gc_metrics ~before:gc_a ~after:gc1 ~minor_words:(tq.q_minor_words +. tm.m_minor_words) ~ops
      @ [
          Meter.metric "offheap.objects_moved" "count"
            (float_of_int tm.moved /. float_of_int (max 1 tm.passes));
          Meter.metric "gen.lateness_p99_ms" "ms" (Meter.percentile tm.lateness 0.99 *. 1e-6);
          Layers.overhead_pct ~untraced:(Meter.median q.rounds) ~traced:(Meter.median tq.rounds);
        ]));
  r
