(* TPC-H substrate tests: generator invariants, loader integrity, and the
   cross-engine agreement matrix — every engine must produce identical
   results for Q1..Q6 on the same dataset. *)

open Smc_tpch

let check = Alcotest.check

(* One small dataset shared by the whole suite (generation is pure). *)
let ds = lazy (Dbgen.generate ~sf:0.01 ())

let managed_list = lazy (Db_managed.of_vectors (Lazy.force ds))
let managed_dict = lazy (Db_managed.of_dicts (Lazy.force ds))
let smc_db = lazy (Db_smc.load (Lazy.force ds))
let smc_direct = lazy (Db_smc.load ~mode:Smc_offheap.Context.Direct (Lazy.force ds))
let smc_columnar = lazy (Db_smc.load ~placement:Smc_offheap.Block.Columnar (Lazy.force ds))
let column_db = lazy (Db_column.load (Lazy.force ds))

(* ------------------------------------------------------------------ *)
(* Generator *)

let test_dbgen_deterministic () =
  let a = Dbgen.generate ~sf:0.005 () and b = Dbgen.generate ~sf:0.005 () in
  check Alcotest.int "same lineitem count" (Array.length a.Row.lineitems)
    (Array.length b.Row.lineitems);
  let la = a.Row.lineitems.(0) and lb = b.Row.lineitems.(0) in
  check Alcotest.int "same first shipdate" la.Row.l_shipdate lb.Row.l_shipdate;
  check Alcotest.int "same first price" la.Row.l_extendedprice lb.Row.l_extendedprice

let test_dbgen_cardinalities () =
  let ds = Lazy.force ds in
  check Alcotest.int "regions" 5 (Array.length ds.Row.regions);
  check Alcotest.int "nations" 25 (Array.length ds.Row.nations);
  check Alcotest.int "orders" 15000 (Array.length ds.Row.orders);
  check Alcotest.int "customers" 1500 (Array.length ds.Row.customers);
  check Alcotest.int "parts" 2000 (Array.length ds.Row.parts);
  check Alcotest.int "partsupp = 4x parts" 8000 (Array.length ds.Row.partsupps);
  let per_order = float_of_int (Array.length ds.Row.lineitems) /. 15000.0 in
  if per_order < 3.5 || per_order > 4.5 then
    Alcotest.failf "lineitems per order out of spec: %.2f" per_order

let test_dbgen_value_domains () =
  let ds = Lazy.force ds in
  Array.iter
    (fun (li : Row.lineitem) ->
      let d = Smc_decimal.Decimal.to_float li.Row.l_discount in
      if d < 0.0 || d > 0.10001 then Alcotest.failf "discount out of range: %f" d;
      if li.Row.l_shipdate <= li.Row.l_order.Row.o_orderdate then
        Alcotest.fail "shipdate must follow orderdate";
      if li.Row.l_receiptdate <= li.Row.l_shipdate then
        Alcotest.fail "receiptdate must follow shipdate";
      match li.Row.l_returnflag with
      | 'R' | 'A' | 'N' -> ()
      | c -> Alcotest.failf "bad returnflag %c" c)
    ds.Row.lineitems

let test_dbgen_fk_integrity () =
  let ds = Lazy.force ds in
  Array.iter
    (fun (o : Row.order) ->
      if not (Array.exists (fun c -> c == o.Row.o_customer) ds.Row.customers) then
        Alcotest.fail "order references unknown customer")
    (Array.sub ds.Row.orders 0 100);
  Array.iter
    (fun (n : Row.nation) ->
      if not (Array.exists (fun r -> r == n.Row.n_region) ds.Row.regions) then
        Alcotest.fail "nation references unknown region")
    ds.Row.nations

(* ------------------------------------------------------------------ *)
(* Loader integrity *)

let test_smc_loader_counts () =
  let ds = Lazy.force ds and db = Lazy.force smc_db in
  check Alcotest.int "lineitems" (Array.length ds.Row.lineitems)
    (Smc.Collection.count db.Db_smc.lineitems);
  check Alcotest.int "orders" (Array.length ds.Row.orders)
    (Smc.Collection.count db.Db_smc.orders);
  check Alcotest.int "regions" 5 (Smc.Collection.count db.Db_smc.regions)

let test_smc_loader_roundtrip () =
  let ds = Lazy.force ds and db = Lazy.force smc_db in
  (* Spot-check that stored fields match the source rows via refs. *)
  Array.iteri
    (fun i r ->
      if i mod 997 = 0 then begin
        let li = ds.Row.lineitems.(i) in
        let blk, slot = Smc.Collection.deref db.Db_smc.lineitems r in
        let lf = db.Db_smc.lf in
        check Alcotest.int "price" li.Row.l_extendedprice
          (Smc.Field.get_dec lf.Db_smc.l_extendedprice blk slot);
        check Alcotest.int "shipdate" li.Row.l_shipdate
          (Smc.Field.get_date lf.Db_smc.l_shipdate blk slot);
        check Alcotest.char "returnflag" li.Row.l_returnflag
          (Smc.Field.get_char lf.Db_smc.l_returnflag blk slot);
        (* follow the order reference and compare the key *)
        match Smc.Field.follow lf.Db_smc.l_order ~target:db.Db_smc.orders blk slot with
        | None -> Alcotest.fail "lineitem lost its order"
        | Some (ob, os) ->
          check Alcotest.int "orderkey via ref" li.Row.l_order.Row.o_orderkey
            (Smc.Field.get_int db.Db_smc.orf.Db_smc.o_orderkey ob os)
      end)
    db.Db_smc.lineitem_refs

let test_columnstore_loader () =
  let ds = Lazy.force ds and db = Lazy.force column_db in
  check Alcotest.int "lineitem rows" (Array.length ds.Row.lineitems)
    (Smc_columnstore.Table.nrows db.Db_column.lineitem);
  (* Clustered order: shipdate ascending. *)
  let t = db.Db_column.lineitem in
  let prev = ref min_int in
  for row = 0 to Smc_columnstore.Table.nrows t - 1 do
    let d = Smc_columnstore.Table.get_int t "l_shipdate" row in
    if d < !prev then Alcotest.fail "lineitem not clustered on shipdate";
    prev := d
  done

let test_columnstore_compression_roundtrip () =
  let ds = Lazy.force ds and db = Lazy.force column_db in
  (* Values survive encode/decode: compare a sample against a re-sorted copy
     of the source. *)
  let src = Array.map (fun (l : Row.lineitem) -> l.Row.l_shipdate) ds.Row.lineitems in
  Array.sort compare src;
  let t = db.Db_column.lineitem in
  List.iter
    (fun row ->
      check Alcotest.int "shipdate roundtrip" src.(row)
        (Smc_columnstore.Table.get_int t "l_shipdate" row))
    [ 0; 17; 4099; Array.length src - 1 ]

(* ------------------------------------------------------------------ *)
(* Cross-engine agreement *)

let q1_list = lazy (Q_managed.q1 (Lazy.force managed_list))
let q6_list = lazy (Q_managed.q6 (Lazy.force managed_list))

let check_q1 name actual =
  if not (Results.equal_q1 (Lazy.force q1_list) actual) then
    Alcotest.failf "%s Q1 mismatch:\nlist:\n%s\n%s:\n%s" name
      (Results.pp_q1 (Lazy.force q1_list))
      name (Results.pp_q1 actual)

let test_q1_agreement () =
  check_q1 "dict" (Q_managed.q1 (Lazy.force managed_dict));
  check_q1 "smc-safe" (Q_smc.q1 (Lazy.force smc_db));
  check_q1 "smc-unsafe" (Q_smc.q1 ~unsafe:true (Lazy.force smc_db));
  check_q1 "smc-direct" (Q_smc.q1 ~unsafe:true (Lazy.force smc_direct));
  check_q1 "smc-columnar" (Q_smc.q1 ~unsafe:true (Lazy.force smc_columnar));
  check_q1 "columnstore" (Q_column.q1 (Lazy.force column_db))

let test_q2_agreement () =
  let reference = Q_managed.q2 (Lazy.force managed_list) in
  let engines =
    [
      ("dict", Q_managed.q2 (Lazy.force managed_dict));
      ("smc-safe", Q_smc.q2 (Lazy.force smc_db));
      ("smc-unsafe", Q_smc.q2 ~unsafe:true (Lazy.force smc_db));
      ("smc-direct", Q_smc.q2 ~unsafe:true (Lazy.force smc_direct));
      ("columnstore", Q_column.q2 (Lazy.force column_db));
    ]
  in
  List.iter
    (fun (name, actual) ->
      if not (Results.equal_q2 reference actual) then Alcotest.failf "%s Q2 mismatch" name)
    engines

let test_q3_agreement () =
  let reference = Q_managed.q3 (Lazy.force managed_list) in
  check Alcotest.bool "q3 nonempty" true (reference <> []);
  List.iter
    (fun (name, actual) ->
      if not (Results.equal_q3 reference actual) then
        Alcotest.failf "%s Q3 mismatch:\nref:\n%s\ngot:\n%s" name (Results.pp_q3 reference)
          (Results.pp_q3 actual))
    [
      ("dict", Q_managed.q3 (Lazy.force managed_dict));
      ("smc-safe", Q_smc.q3 (Lazy.force smc_db));
      ("smc-unsafe", Q_smc.q3 ~unsafe:true (Lazy.force smc_db));
      ("smc-direct", Q_smc.q3 ~unsafe:true (Lazy.force smc_direct));
      ("smc-columnar", Q_smc.q3 ~unsafe:true (Lazy.force smc_columnar));
      ("columnstore", Q_column.q3 (Lazy.force column_db));
    ]

let test_q4_agreement () =
  let reference = Q_managed.q4 (Lazy.force managed_list) in
  check Alcotest.bool "q4 nonempty" true (reference <> []);
  List.iter
    (fun (name, actual) ->
      if not (Results.equal_q4 reference actual) then Alcotest.failf "%s Q4 mismatch" name)
    [
      ("dict", Q_managed.q4 (Lazy.force managed_dict));
      ("smc-safe", Q_smc.q4 (Lazy.force smc_db));
      ("smc-unsafe", Q_smc.q4 ~unsafe:true (Lazy.force smc_db));
      ("smc-direct", Q_smc.q4 ~unsafe:true (Lazy.force smc_direct));
      ("columnstore", Q_column.q4 (Lazy.force column_db));
    ]

let test_q5_agreement () =
  let reference = Q_managed.q5 (Lazy.force managed_list) in
  List.iter
    (fun (name, actual) ->
      if not (Results.equal_q5 reference actual) then
        Alcotest.failf "%s Q5 mismatch:\nref:\n%s\ngot:\n%s" name (Results.pp_q5 reference)
          (Results.pp_q5 actual))
    [
      ("dict", Q_managed.q5 (Lazy.force managed_dict));
      ("smc-safe", Q_smc.q5 (Lazy.force smc_db));
      ("smc-unsafe", Q_smc.q5 ~unsafe:true (Lazy.force smc_db));
      ("smc-direct", Q_smc.q5 ~unsafe:true (Lazy.force smc_direct));
      ("smc-columnar", Q_smc.q5 ~unsafe:true (Lazy.force smc_columnar));
      ("columnstore", Q_column.q5 (Lazy.force column_db));
    ]

let test_q6_agreement () =
  let reference = Lazy.force q6_list in
  check Alcotest.bool "q6 nonzero" true (reference > 0);
  List.iter
    (fun (name, actual) ->
      check Alcotest.int (name ^ " Q6 agrees") reference actual)
    [
      ("dict", Q_managed.q6 (Lazy.force managed_dict));
      ("smc-safe", Q_smc.q6 (Lazy.force smc_db));
      ("smc-unsafe", Q_smc.q6 ~unsafe:true (Lazy.force smc_db));
      ("smc-direct", Q_smc.q6 ~unsafe:true (Lazy.force smc_direct));
      ("smc-columnar", Q_smc.q6 ~unsafe:true (Lazy.force smc_columnar));
      ("columnstore", Q_column.q6 (Lazy.force column_db));
    ]

let test_q6_via_generic_engine () =
  (* The plan-based engines over an SMC source must match the compiled
     queries too — validating Source.of_smc and both evaluators on real
     data. *)
  let db = Lazy.force smc_db in
  let lf = db.Db_smc.lf in
  let module V = Smc_query.Value in
  let src =
    Smc_query.Source.of_smc db.Db_smc.lineitems
      ~columns:
        Smc_query.Source.
          [
            ("shipdate", C_date lf.Db_smc.l_shipdate);
            ("discount", C_dec lf.Db_smc.l_discount);
            ("quantity", C_dec lf.Db_smc.l_quantity);
            ("price", C_dec lf.Db_smc.l_extendedprice);
          ]
  in
  let lo = Results.q6_date in
  let hi = Smc_util.Date.add_months lo 12 in
  let plan =
    Smc_query.Plan.(
      group_by ~keys:[]
        ~aggs:[ ("revenue", Sum Smc_query.Expr.(Mul (Col "price", Col "discount"))) ]
        (where
           Smc_query.Expr.(
             And
               ( And
                   ( Ge (Col "shipdate", Const (V.Date lo)),
                     Lt (Col "shipdate", Const (V.Date hi)) ),
                 And
                   ( Between (Col "discount", dec "0.05", dec "0.07"),
                     Lt (Col "quantity", int 24) ) ))
           (scan src)))
  in
  let expect = V.Dec (Lazy.force q6_list) in
  (match Smc_query.Fuse.collect plan with
  | [ [| total |] ] -> check Alcotest.bool "fused matches compiled" true (V.equal total expect)
  | _ -> Alcotest.fail "fused: expected one row");
  match Smc_query.Interp.collect plan with
  | [ [| total |] ] -> check Alcotest.bool "volcano matches compiled" true (V.equal total expect)
  | _ -> Alcotest.fail "volcano: expected one row"

let prop_dsl_matches_compiled_on_random_filters =
  (* The query DSL (fused engine) over an SMC source must agree with a
     directly-written compiled filter-aggregate for random predicates. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"DSL vs compiled on random lineitem filters"
       QCheck.(pair (int_range 0 120) (int_range 1 50))
       (fun (date_offset, qty_max) ->
         let db = Lazy.force smc_db in
         let lf = db.Db_smc.lf in
         let cutoff = Smc_util.Date.add_days Spec.start_date (date_offset * 20) in
         let module V = Smc_query.Value in
         (* compiled *)
         let expected = ref Smc_decimal.Decimal.zero in
         Smc.Collection.iter db.Db_smc.lineitems ~f:(fun blk slot ->
             if
               Smc.Field.get_date lf.Db_smc.l_shipdate blk slot <= cutoff
               && Smc.Field.get_dec lf.Db_smc.l_quantity blk slot
                  < Smc_decimal.Decimal.of_int qty_max
             then
               expected :=
                 Smc_decimal.Decimal.add !expected
                   (Smc.Field.get_dec lf.Db_smc.l_extendedprice blk slot));
         (* DSL *)
         let src =
           Smc_query.Source.of_smc db.Db_smc.lineitems
             ~columns:
               Smc_query.Source.
                 [
                   ("ship", C_date lf.Db_smc.l_shipdate);
                   ("qty", C_dec lf.Db_smc.l_quantity);
                   ("price", C_dec lf.Db_smc.l_extendedprice);
                 ]
         in
         let plan =
           Smc_query.Plan.(
             group_by ~keys:[]
               ~aggs:[ ("total", Sum (Smc_query.Expr.Col "price")) ]
               (where
                  Smc_query.Expr.(
                    And
                      ( Le (Col "ship", Const (V.Date cutoff)),
                        Lt (Col "qty", Const (V.Dec (Smc_decimal.Decimal.of_int qty_max))) ))
                  (scan src)))
         in
         match Smc_query.Fuse.collect plan with
         | [] -> !expected = Smc_decimal.Decimal.zero
         | [ [| V.Dec total |] ] -> total = !expected
         | [ [| V.Null |] ] -> !expected = Smc_decimal.Decimal.zero
         | _ -> false))

(* ------------------------------------------------------------------ *)
(* Refresh streams *)

let test_refresh_ops_agree () =
  let ds = Dbgen.generate ~sf:0.005 () in
  let initial = Array.length ds.Row.lineitems in
  let targets =
    [
      Refresh.smc_ops (Db_smc.load ds) ds;
      Refresh.vector_ops ds;
      Refresh.dict_ops ds;
    ]
  in
  List.iter
    (fun (ops : Refresh.ops) ->
      check Alcotest.int (ops.Refresh.kind ^ " initial size") initial (ops.Refresh.size ());
      ops.Refresh.insert_batch ~count:100;
      check Alcotest.int (ops.Refresh.kind ^ " after insert") (initial + 100)
        (ops.Refresh.size ());
      (* Remove everything belonging to the first 10 orders. *)
      let keys = Hashtbl.create 16 in
      for k = 1 to 10 do
        Hashtbl.replace keys k ()
      done;
      let expected =
        Array.fold_left
          (fun acc (li : Row.lineitem) ->
            if li.Row.l_order.Row.o_orderkey <= 10 then acc + 1 else acc)
          0 ds.Row.lineitems
      in
      let removed = ops.Refresh.remove_batch ~keys in
      if removed < expected then
        Alcotest.failf "%s removed %d, expected at least %d" ops.Refresh.kind removed expected;
      check Alcotest.int
        (ops.Refresh.kind ^ " size after removal")
        (initial + 100 - removed)
        (ops.Refresh.size ()))
    targets

let test_refresh_stream_pair_runs () =
  let ds = Dbgen.generate ~sf:0.005 () in
  let ops = Refresh.smc_ops (Db_smc.load ds) ds in
  let prng = Smc_util.Prng.create ~seed:5L () in
  let before = ops.Refresh.size () in
  for _ = 1 to 5 do
    Refresh.run_stream_pair ops ~prng ~batch:(before / 1000)
  done;
  (* Size stays in the same ballpark: inserts and removals roughly cancel. *)
  let after = ops.Refresh.size () in
  if after < before / 2 || after > before * 2 then
    Alcotest.failf "refresh drifted: %d -> %d" before after

(* Every SMC lineitem, read back into a managed row: each reference field is
   followed and mapped to the dataset row with the key found behind it. *)
let read_back_lineitems (db : Db_smc.t) (ds : Row.dataset) =
  let module F = Smc.Field in
  let lf = db.Db_smc.lf in
  let key field ~target ~key blk slot =
    match F.follow field ~target blk slot with
    | Some (tb, ts) -> F.get_int key tb ts
    | None -> Alcotest.fail "read-back: a lineitem reference is null"
  in
  let rows = ref [] in
  Smc.Collection.with_read db.Db_smc.lineitems (fun () ->
      Smc.Collection.iter db.Db_smc.lineitems ~f:(fun blk slot ->
          let ok = key lf.Db_smc.l_order ~target:db.Db_smc.orders ~key:db.Db_smc.orf.Db_smc.o_orderkey blk slot
          and pk = key lf.Db_smc.l_part ~target:db.Db_smc.parts ~key:db.Db_smc.pf.Db_smc.p_partkey blk slot
          and sk =
            key lf.Db_smc.l_supplier ~target:db.Db_smc.suppliers ~key:db.Db_smc.sf_.Db_smc.s_suppkey
              blk slot
          in
          rows :=
            {
              Row.l_order = ds.Row.orders.(ok - 1);
              l_part = ds.Row.parts.(pk - 1);
              l_supplier = ds.Row.suppliers.(sk - 1);
              l_linenumber = F.get_int lf.Db_smc.l_linenumber blk slot;
              l_quantity = F.get_dec lf.Db_smc.l_quantity blk slot;
              l_extendedprice = F.get_dec lf.Db_smc.l_extendedprice blk slot;
              l_discount = F.get_dec lf.Db_smc.l_discount blk slot;
              l_tax = F.get_dec lf.Db_smc.l_tax blk slot;
              l_returnflag = F.get_char lf.Db_smc.l_returnflag blk slot;
              l_linestatus = F.get_char lf.Db_smc.l_linestatus blk slot;
              l_shipdate = F.get_date lf.Db_smc.l_shipdate blk slot;
              l_commitdate = F.get_date lf.Db_smc.l_commitdate blk slot;
              l_receiptdate = F.get_date lf.Db_smc.l_receiptdate blk slot;
              l_shipinstruct = F.get_string lf.Db_smc.l_shipinstruct blk slot;
              l_shipmode = F.get_string lf.Db_smc.l_shipmode blk slot;
              l_comment = F.get_string lf.Db_smc.l_comment blk slot;
            }
            :: !rows));
  Array.of_list (List.rev !rows)

(* Refresh inserts must set every reference: Q5 follows l_supplier, and a
   zero word there is not the null reference. Both SMC variants, safe and
   unsafe Q5, against the managed engine over the rows read back. *)
let test_refresh_inserts_feed_q5 () =
  let ds = Dbgen.generate ~sf:0.005 () in
  List.iter
    (fun make ->
      let db = Db_smc.load ds in
      let ops = make db ds in
      ops.Refresh.insert_batch ~count:1000;
      let actuals = [ ("safe", Q_smc.q5 db); ("unsafe", Q_smc.q5 ~unsafe:true db) ] in
      let expected =
        Q_managed.q5 (Db_managed.of_vectors { ds with Row.lineitems = read_back_lineitems db ds })
      in
      List.iter
        (fun (variant, actual) ->
          if not (Results.equal_q5 expected actual) then
            Alcotest.failf "%s %s Q5 after refresh inserts:\nref:\n%s\ngot:\n%s" ops.Refresh.kind
              variant (Results.pp_q5 expected) (Results.pp_q5 actual))
        actuals)
    [ Refresh.smc_ops; Refresh.smc_txn_ops ]

let test_linq_agreement () =
  (* LINQ-style Seq pipelines must compute the same answers as the compiled
     queries — only the evaluation model differs. *)
  let list_db = Lazy.force managed_list in
  if not (Results.equal_q1 (Lazy.force q1_list) (Q_linq.q1 list_db)) then
    Alcotest.fail "LINQ Q1 mismatch";
  if not (Results.equal_q3 (Q_managed.q3 list_db) (Q_linq.q3 list_db)) then
    Alcotest.fail "LINQ Q3 mismatch";
  check Alcotest.int "LINQ Q6 agrees" (Lazy.force q6_list) (Q_linq.q6 list_db)

let test_linq_operators () =
  let open Q_linq.Operators in
  let xs = List.to_seq [ 5; 1; 4; 2; 3 ] in
  check (Alcotest.list Alcotest.int) "order_by_desc + take" [ 5; 4 ]
    (List.of_seq (take 2 (order_by_desc Fun.id xs)));
  check Alcotest.int "count . where" 2
    (count (where (fun x -> x > 3) (List.to_seq [ 5; 1; 4; 2; 3 ])));
  let groups =
    List.of_seq (group_by (fun x -> x mod 2) (List.to_seq [ 1; 2; 3; 4; 5 ]))
  in
  check Alcotest.int "two parity groups" 2 (List.length groups);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.list Alcotest.int)))
    "first-occurrence group order preserved"
    [ (1, [ 1; 3; 5 ]); (0, [ 2; 4 ]) ]
    groups

let test_q7_agreement () =
  let reference = Q_managed.q7 (Lazy.force managed_list) in
  check Alcotest.bool "q7 nonempty" true (reference <> []);
  List.iter
    (fun (name, actual) ->
      if not (Results.equal_q7 reference actual) then Alcotest.failf "%s Q7 mismatch" name)
    [
      ("dict", Q_managed.q7 (Lazy.force managed_dict));
      ("smc-safe", Q_smc.q7 (Lazy.force smc_db));
      ("smc-unsafe", Q_smc.q7 ~unsafe:true (Lazy.force smc_db));
      ("smc-direct", Q_smc.q7 ~unsafe:true (Lazy.force smc_direct));
    ]

let test_q10_agreement () =
  let reference = Q_managed.q10 (Lazy.force managed_list) in
  check Alcotest.bool "q10 nonempty" true (reference <> []);
  check Alcotest.int "q10 limit 20" 20 (List.length reference);
  List.iter
    (fun (name, actual) ->
      if not (Results.equal_q10 reference actual) then Alcotest.failf "%s Q10 mismatch" name)
    [
      ("dict", Q_managed.q10 (Lazy.force managed_dict));
      ("smc-safe", Q_smc.q10 (Lazy.force smc_db));
      ("smc-unsafe", Q_smc.q10 ~unsafe:true (Lazy.force smc_db));
      ("smc-columnar", Q_smc.q10 ~unsafe:true (Lazy.force smc_columnar));
    ]

let test_q12_agreement () =
  let reference = Q_managed.q12 (Lazy.force managed_list) in
  check Alcotest.bool "q12 has both modes" true (List.length reference = 2);
  List.iter
    (fun (name, actual) ->
      if not (Results.equal_q12 reference actual) then Alcotest.failf "%s Q12 mismatch" name)
    [
      ("dict", Q_managed.q12 (Lazy.force managed_dict));
      ("smc-safe", Q_smc.q12 (Lazy.force smc_db));
      ("smc-unsafe", Q_smc.q12 ~unsafe:true (Lazy.force smc_db));
      ("smc-direct", Q_smc.q12 ~unsafe:true (Lazy.force smc_direct));
    ]

let test_q14_q19_agreement () =
  let q14_ref = Q_managed.q14 (Lazy.force managed_list) in
  check Alcotest.bool "q14 positive" true (q14_ref > 0);
  List.iter
    (fun (name, actual) -> check Alcotest.int (name ^ " Q14 agrees") q14_ref actual)
    [
      ("dict", Q_managed.q14 (Lazy.force managed_dict));
      ("smc-safe", Q_smc.q14 (Lazy.force smc_db));
      ("smc-unsafe", Q_smc.q14 ~unsafe:true (Lazy.force smc_db));
      ("smc-columnar", Q_smc.q14 ~unsafe:true (Lazy.force smc_columnar));
    ];
  let q19_ref = Q_managed.q19 (Lazy.force managed_list) in
  List.iter
    (fun (name, actual) -> check Alcotest.int (name ^ " Q19 agrees") q19_ref actual)
    [
      ("dict", Q_managed.q19 (Lazy.force managed_dict));
      ("smc-safe", Q_smc.q19 (Lazy.force smc_db));
      ("smc-unsafe", Q_smc.q19 ~unsafe:true (Lazy.force smc_db));
      ("smc-direct", Q_smc.q19 ~unsafe:true (Lazy.force smc_direct));
    ]

(* ------------------------------------------------------------------ *)
(* Second dataset (different seed and scale): cross-engine agreement must
   hold on any generated instance, not just the default one. *)

let test_agreement_second_dataset () =
  let ds = Dbgen.generate ~seed:424242L ~sf:0.004 () in
  let list_db = Db_managed.of_vectors ds in
  let smc = Db_smc.load ds in
  let direct = Db_smc.load ~mode:Smc_offheap.Context.Direct ds in
  let col = Db_column.load ds in
  let q1_ref = Q_managed.q1 list_db in
  if not (Results.equal_q1 q1_ref (Q_smc.q1 ~unsafe:true smc)) then
    Alcotest.fail "Q1 mismatch (seed 424242)";
  if not (Results.equal_q3 (Q_managed.q3 list_db) (Q_smc.q3 ~unsafe:true direct)) then
    Alcotest.fail "Q3 mismatch (seed 424242, direct)";
  if not (Results.equal_q5 (Q_managed.q5 list_db) (Q_column.q5 col)) then
    Alcotest.fail "Q5 mismatch (seed 424242, columnstore)";
  check Alcotest.int "Q6 agrees" (Q_managed.q6 list_db) (Q_smc.q6 ~unsafe:true smc)

(* Direct-mode DB: compaction of several collections must leave every query
   answer unchanged (stored direct pointers get fixed up, tombstones
   forward). *)

let test_direct_db_queries_survive_compaction () =
  let ds = Dbgen.generate ~sf:0.004 () in
  let db = Db_smc.load ~mode:Smc_offheap.Context.Direct ~slots_per_block:256 ds in
  let before =
    ( Q_smc.q1 ~unsafe:true db,
      Q_smc.q3 ~unsafe:true db,
      Q_smc.q5 ~unsafe:true db,
      Q_smc.q6 ~unsafe:true db )
  in
  (* Thin out orders and customers (join targets), then compact them: their
     relocations exercise the §6 fixup of lineitems' stored pointers. *)
  let removed_orders = Hashtbl.create 64 in
  Array.iteri
    (fun i r ->
      if i mod 10 = 9 then begin
        let blk, slot = Smc.Collection.deref db.Db_smc.orders r in
        Hashtbl.replace removed_orders
          (Smc.Field.get_int db.Db_smc.orf.Db_smc.o_orderkey blk slot) ();
        ignore (Smc.Collection.remove db.Db_smc.orders r : bool)
      end)
    db.Db_smc.order_refs;
  (* Queries whose lineitems reference removed orders now skip them; compute
     the expected post-removal answers from the managed model. *)
  let expected_q6 = Q_smc.q6 ~unsafe:true db in
  let q3_after_removal = Q_smc.q3 ~unsafe:true db in
  let report = Smc.Collection.compact db.Db_smc.orders ~occupancy_threshold:0.95 () in
  check Alcotest.bool "compaction not aborted" false report.Smc_offheap.Compaction.aborted;
  check Alcotest.bool "orders moved" true (report.Smc_offheap.Compaction.objects_moved > 0);
  (* Q6 doesn't touch orders: identical before/after removal+compaction. *)
  let q1b, _, _, q6b = before in
  check Alcotest.int "Q6 unchanged" q6b expected_q6;
  check Alcotest.int "Q6 after compaction" expected_q6 (Q_smc.q6 ~unsafe:true db);
  (* Order-dependent queries: answers after compaction equal answers after
     removal (compaction itself must not change results). *)
  if not (Results.equal_q3 q3_after_removal (Q_smc.q3 ~unsafe:true db)) then
    Alcotest.fail "Q3 changed across compaction";
  if not (Results.equal_q1 q1b (Q_smc.q1 ~unsafe:true db)) then
    Alcotest.fail "Q1 changed (it does not involve orders)"

(* Refresh churn interleaved with queries: results stay self-consistent. *)

let test_queries_stable_under_refresh_rounds () =
  let ds = Dbgen.generate ~sf:0.004 () in
  let db = Db_smc.load ds in
  let ops = Refresh.smc_ops db ds in
  let prng = Smc_util.Prng.create ~seed:31337L () in
  let batch = max 1 (Array.length ds.Row.lineitems / 500) in
  for _ = 1 to 5 do
    Refresh.run_stream_pair ops ~prng ~batch;
    (* Q1 over the churned collection must equal Q1 recomputed through the
       safe variant — engines agree on whatever the current bag is. *)
    let unsafe_q1 = Q_smc.q1 ~unsafe:true db in
    let safe_q1 = Q_smc.q1 db in
    if not (Results.equal_q1 unsafe_q1 safe_q1) then
      Alcotest.fail "safe/unsafe disagree after refresh churn"
  done

(* ------------------------------------------------------------------ *)
(* SMC compaction on TPC-H data *)

let test_smc_compaction_preserves_q6 () =
  let ds = Dbgen.generate ~sf:0.005 () in
  let db = Db_smc.load ~slots_per_block:512 ds in
  let before = Q_smc.q6 db in
  (* Remove ~70% of lineitems NOT matching Q6's filters, then compact. *)
  let lf = db.Db_smc.lf in
  let lo = Results.q6_date and hi = Smc_util.Date.add_months Results.q6_date 12 in
  Array.iteri
    (fun i r ->
      if i mod 10 < 7 then begin
        let blk, slot = Smc.Collection.deref db.Db_smc.lineitems r in
        let ship = Smc.Field.get_date lf.Db_smc.l_shipdate blk slot in
        if not (ship >= lo && ship < hi) then
          ignore (Smc.Collection.remove db.Db_smc.lineitems r : bool)
      end)
    db.Db_smc.lineitem_refs;
  let report = Smc.Collection.compact db.Db_smc.lineitems ~occupancy_threshold:0.5 () in
  check Alcotest.bool "compaction ran" false report.Smc_offheap.Compaction.aborted;
  check Alcotest.int "Q6 unchanged by compaction" before (Q_smc.q6 db)

let () =
  Alcotest.run "smc_tpch"
    [
      ( "dbgen",
        [
          Alcotest.test_case "deterministic" `Quick test_dbgen_deterministic;
          Alcotest.test_case "cardinalities" `Quick test_dbgen_cardinalities;
          Alcotest.test_case "value domains" `Quick test_dbgen_value_domains;
          Alcotest.test_case "fk integrity" `Quick test_dbgen_fk_integrity;
        ] );
      ( "loaders",
        [
          Alcotest.test_case "smc counts" `Quick test_smc_loader_counts;
          Alcotest.test_case "smc roundtrip" `Quick test_smc_loader_roundtrip;
          Alcotest.test_case "columnstore clustered" `Quick test_columnstore_loader;
          Alcotest.test_case "columnstore compression" `Quick
            test_columnstore_compression_roundtrip;
        ] );
      ( "cross-engine",
        [
          Alcotest.test_case "Q1" `Quick test_q1_agreement;
          Alcotest.test_case "Q2" `Quick test_q2_agreement;
          Alcotest.test_case "Q3" `Quick test_q3_agreement;
          Alcotest.test_case "Q4" `Quick test_q4_agreement;
          Alcotest.test_case "Q5" `Quick test_q5_agreement;
          Alcotest.test_case "Q6" `Quick test_q6_agreement;
          Alcotest.test_case "Q6 via generic engine" `Quick test_q6_via_generic_engine;
          Alcotest.test_case "Q7 (extension)" `Quick test_q7_agreement;
          Alcotest.test_case "Q10 (extension)" `Quick test_q10_agreement;
          Alcotest.test_case "Q12 (extension)" `Quick test_q12_agreement;
          Alcotest.test_case "Q14/Q19 (extension)" `Quick test_q14_q19_agreement;
          prop_dsl_matches_compiled_on_random_filters;
          Alcotest.test_case "LINQ-style agrees" `Quick test_linq_agreement;
          Alcotest.test_case "LINQ operators" `Quick test_linq_operators;
        ] );
      ( "refresh",
        [
          Alcotest.test_case "ops agree" `Quick test_refresh_ops_agree;
          Alcotest.test_case "stream pair runs" `Quick test_refresh_stream_pair_runs;
          Alcotest.test_case "inserts feed Q5" `Quick test_refresh_inserts_feed_q5;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "preserves Q6" `Quick test_smc_compaction_preserves_q6;
          Alcotest.test_case "direct db queries survive compaction" `Quick
            test_direct_db_queries_survive_compaction;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "agreement on second dataset" `Quick
            test_agreement_second_dataset;
          Alcotest.test_case "queries stable under refresh" `Quick
            test_queries_stable_under_refresh_rounds;
        ] );
    ]
