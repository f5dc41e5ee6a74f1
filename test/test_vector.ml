(* Vectorized-engine parity: {!Smc_query.Vector} must produce rows
   bit-identical to Volcano and Fuse — same values, same order — on every
   plan shape, across the four standard storage configs (row/columnar ×
   indirect/direct), on Null/decimal/date/char edge values, and under
   chunking extremes (single-row chunks, empty chunks, chunk-boundary
   limits). *)

open Smc_query
module Block = Smc_offheap.Block
module Context = Smc_offheap.Context
module D = Smc_decimal.Decimal

let check = Alcotest.check

let rows_testable =
  Alcotest.testable
    (fun fmt rows ->
      Format.fprintf fmt "%s"
        (String.concat ";"
           (List.map
              (fun row ->
                String.concat "," (Array.to_list (Array.map Value.to_string row)))
              rows)))
    (List.equal (fun a b -> Array.for_all2 Value.equal a b))

(* Every engine, plus the vectorized engine at adversarial chunk sizes:
   1 (each row its own batch) and 3 (chunk boundaries misaligned with
   blocks). All five must agree exactly. *)
let check_parity name plan =
  let reference = Interp.collect plan in
  check rows_testable (name ^ ": fuse = volcano") reference (Fuse.collect plan);
  check rows_testable (name ^ ": vector = volcano") reference (Vector.collect plan);
  check rows_testable
    (name ^ ": vector[1] = volcano")
    reference
    (Vector.collect ~batch_rows:1 plan);
  check rows_testable
    (name ^ ": vector[3] = volcano")
    reference
    (Vector.collect ~batch_rows:3 plan);
  reference

(* ------------------------------------------------------------------ *)
(* A collection with every column kind, plus a Null-bearing computed
   column; a third of the rows removed so selection vectors have holes. *)

let layout =
  Smc_offheap.Layout.create ~name:"vrow"
    [
      ("k", Smc_offheap.Layout.Int);
      ("d", Smc_offheap.Layout.Dec);
      ("dt", Smc_offheap.Layout.Date);
      ("c", Smc_offheap.Layout.Int);
      ("b", Smc_offheap.Layout.Bool);
      ("s", Smc_offheap.Layout.Str 12);
    ]

let fk = Smc.Field.int layout "k"
let fd = Smc.Field.dec layout "d"
let fdt = Smc.Field.date layout "dt"
let fc = Smc.Field.int layout "c"
let fb = Smc.Field.bool layout "b"
let fs = Smc.Field.str layout "s"

let build ~placement ~mode ~n () =
  let rt = Smc_offheap.Runtime.create () in
  let coll =
    Smc.Collection.create rt ~name:"vrow" ~layout ~placement ~mode ~slots_per_block:16 ()
  in
  let refs =
    Array.init n (fun i ->
        Smc.Collection.add coll ~init:(fun blk slot ->
            Smc.Field.set_int fk blk slot i;
            (* negatives and zero exercise sign handling in Dec kernels *)
            Smc.Field.set_dec fd blk slot (D.of_string (Printf.sprintf "%d.%02d" (i - 7) (i mod 100)));
            Smc.Field.set_date fdt blk slot (10000 + (i * 3 mod 97));
            Smc.Field.set_int fc blk slot (Char.code 'A' + (i mod 3));
            Smc.Field.set_bool fb blk slot (i mod 2 = 0);
            Smc.Field.set_string fs blk slot (Printf.sprintf "n%03d" (i mod 23))))
  in
  Array.iteri
    (fun i r -> if i mod 3 = 0 then ignore (Smc.Collection.remove coll r : bool))
    refs;
  (rt, coll)

let columns =
  [
    ("k", Source.C_int fk);
    ("d", Source.C_dec fd);
    ("dt", Source.C_date fdt);
    ("c", Source.C_char fc);
    ("b", Source.C_bool fb);
    ("s", Source.C_str fs);
    (* Null on every 5th k — the boxed escape hatch *)
    ( "opt",
      Source.C_fn
        (fun blk slot ->
          let k = Smc.Field.get_int fk blk slot in
          if k mod 5 = 0 then Value.Null else Value.Int (k * 2)) );
  ]

let configs =
  [
    ("row/indirect", Block.Row, Context.Indirect);
    ("row/direct", Block.Row, Context.Direct);
    ("columnar/indirect", Block.Columnar, Context.Indirect);
    ("columnar/direct", Block.Columnar, Context.Direct);
  ]

let with_configs f =
  List.iter
    (fun (cname, placement, mode) ->
      let _rt, coll = build ~placement ~mode ~n:100 () in
      f cname (Source.of_smc coll ~columns))
    configs

(* ------------------------------------------------------------------ *)
(* Plan shapes over SMC sources *)

let test_scan_parity () =
  with_configs (fun cname src ->
      let rows = check_parity (cname ^ " scan") (Plan.scan src) in
      check Alcotest.int (cname ^ " live rows") 66 (List.length rows))

let test_typed_filters () =
  with_configs (fun cname src ->
      (* date range + dec Between + dec-vs-int — the Q6 shape *)
      ignore
        (check_parity (cname ^ " q6-shape")
           Plan.(
             where
               Expr.(
                 And
                   ( And
                       ( Ge (Col "dt", Const (Value.Date 10010)),
                         Lt (Col "dt", Const (Value.Date 10080)) ),
                     And (Between (Col "d", dec "1.00", dec "55.00"), Lt (Col "d", int 50))
                   ))
               (scan src)));
      (* every comparison operator against typed columns, plus flipped
         const-on-the-left forms *)
      List.iter
        (fun (n, p) -> ignore (check_parity (cname ^ " " ^ n) p))
        [
          ("eq-int", Plan.(where Expr.(Eq (Col "k", int 17)) (scan src)));
          ("ne-int", Plan.(where Expr.(Ne (Col "k", int 17)) (scan src)));
          ("flip-lt", Plan.(where Expr.(Lt (int 50, Col "k")) (scan src)));
          ("flip-ge", Plan.(where Expr.(Ge (int 50, Col "k")) (scan src)));
          ("char-eq", Plan.(where Expr.(Eq (Col "c", str "B")) (scan src)));
          ("char-ne", Plan.(where Expr.(Ne (Col "c", str "B")) (scan src)));
          ("char-ge", Plan.(where Expr.(Ge (Col "c", str "B")) (scan src)));
          (* 2-char constant: length is the tiebreak *)
          ("char-vs-longer", Plan.(where Expr.(Le (Col "c", str "AZ")) (scan src)));
          ("char-vs-empty", Plan.(where Expr.(Gt (Col "c", str "")) (scan src)));
          ("bool-eq", Plan.(where Expr.(Eq (Col "b", bool true)) (scan src)));
          ("str-eq", Plan.(where Expr.(Eq (Col "s", str "n005")) (scan src)));
          ("col-col", Plan.(where Expr.(Lt (Col "k", Col "opt")) (scan src)));
          ("between-date", Plan.(where Expr.(Between (Col "dt", date "1997-05-15", date "1997-07-20")) (scan src)));
        ])

let test_null_semantics () =
  with_configs (fun cname src ->
      (* Null compares below everything and never raises; typed columns
         against Const Null take the constant-verdict path. *)
      List.iter
        (fun (n, p) -> ignore (check_parity (cname ^ " " ^ n) p))
        [
          ("null-col-lt", Plan.(where Expr.(Lt (Col "opt", int 40)) (scan src)));
          ("null-col-eq-null", Plan.(where Expr.(Eq (Col "opt", Const Value.Null)) (scan src)));
          ("typed-vs-null-gt", Plan.(where Expr.(Gt (Col "k", Const Value.Null)) (scan src)));
          ("typed-vs-null-le", Plan.(where Expr.(Le (Col "k", Const Value.Null)) (scan src)));
          ("null-select", Plan.(select [ ("o", Expr.Col "opt"); ("z", Expr.Const Value.Null) ] (scan src)));
        ])

let test_fallback_predicates () =
  with_configs (fun cname src ->
      List.iter
        (fun (n, p) -> ignore (check_parity (cname ^ " " ^ n) p))
        [
          ( "or",
            Plan.(
              where Expr.(Or (Eq (Col "c", str "A"), Gt (Col "k", int 90))) (scan src)) );
          ("not", Plan.(where Expr.(Not (Eq (Col "b", bool true))) (scan src)));
          ("contains", Plan.(where (Expr.Contains (Expr.Col "s", "00")) (scan src)));
          ("starts", Plan.(where (Expr.StartsWith (Expr.Col "s", "n01")) (scan src)));
          ( "arith-pred",
            (* guard first: And short-circuits in both engines, so the Add
               never sees the Null rows *)
            Plan.(
              where
                Expr.(
                  And
                    ( Not (Eq (Col "opt", Const Value.Null)),
                      Gt (Add (Col "k", Col "opt"), int 100) ))
                (scan src)) );
        ])

let test_select_arithmetic () =
  with_configs (fun cname src ->
      ignore
        (check_parity (cname ^ " select-arith")
           Plan.(
             select
               [
                 ("ik", Expr.Col "k");
                 ("mul_ii", Expr.(Mul (Col "k", int 3)));
                 ("mul_dd", Expr.(Mul (Col "d", Col "d")));
                 ("mix", Expr.(Mul (Col "d", Sub (dec "1.00", Col "d"))));
                 ("promote", Expr.(Add (Col "k", Col "d")));
                 ("div_ii", Expr.(Div (Col "k", int 7)));
                 ("div_dd", Expr.(Div (Col "d", dec "3.00")));
                 ("neg", Expr.(Neg (Col "d")));
                 ("const_s", Expr.str "tag");
                 ("const_b", Expr.bool false);
                 ("passthru_c", Expr.Col "c");
                 ("passthru_s", Expr.Col "s");
                 ("passthru_b", Expr.Col "b");
               ]
               (where Expr.(Gt (Col "k", int 20)) (scan src)))))

let test_group_by_shapes () =
  with_configs (fun cname src ->
      List.iter
        (fun (n, p) -> ignore (check_parity (cname ^ " " ^ n) p))
        [
          (* char-packed keys *)
          ( "gb-char",
            Plan.(
              group_by
                ~keys:[ ("c", Expr.Col "c") ]
                ~aggs:
                  [
                    ("n", Count);
                    ("sum_d", Sum (Expr.Col "d"));
                    ("sum_k", Sum (Expr.Col "k"));
                    ("min_dt", Min (Expr.Col "dt"));
                    ("max_c", Max (Expr.Col "c"));
                    ("avg_k", Avg (Expr.Col "k"));
                    ("avg_d", Avg (Expr.Col "d"));
                  ]
                (scan src)) );
          (* int-array keys (mixed int-like kinds) *)
          ( "gb-int-date",
            Plan.(
              group_by
                ~keys:[ ("dt", Expr.Col "dt"); ("c", Expr.Col "c") ]
                ~aggs:[ ("n", Count); ("mx", Max (Expr.Col "d")) ]
                (scan src)) );
          (* boxed keys: strings and a Null-bearing column *)
          ( "gb-boxed",
            Plan.(
              group_by
                ~keys:[ ("s", Expr.Col "s"); ("opt", Expr.Col "opt") ]
                ~aggs:[ ("n", Count); ("mn", Min (Expr.Col "s")) ]
                (scan src)) );
          (* zero keys = single global group *)
          ( "gb-global",
            Plan.(
              group_by ~keys:[]
                ~aggs:[ ("n", Count); ("total", Sum Expr.(Mul (Col "d", Col "d"))) ]
                (scan src)) );
          (* empty input: no groups at all *)
          ( "gb-empty",
            Plan.(
              group_by ~keys:[ ("c", Expr.Col "c") ] ~aggs:[ ("n", Count) ]
                (where Expr.(Lt (Col "k", int 0)) (scan src))) );
          (* generic agg cells: Min/Max over strings, Sum over Null-bearing *)
          ( "gb-generic-cells",
            Plan.(
              group_by
                ~keys:[ ("c", Expr.Col "c") ]
                ~aggs:
                  [ ("mns", Min (Expr.Col "s")); ("mxs", Max (Expr.Col "s")) ]
                (scan src)) );
        ])

let test_row_operators () =
  with_configs (fun cname src ->
      let right =
        Source.of_array ~name:"dim" ~schema:[ "dk"; "label" ]
          (Array.init 10 (fun i -> [| Value.Int (i * 7); Value.Str (Printf.sprintf "L%d" i) |]))
      in
      List.iter
        (fun (n, p) -> ignore (check_parity (cname ^ " " ^ n) p))
        [
          ( "order-limit",
            Plan.(
              limit 7
                (order_by
                   [ (Expr.Col "c", Asc); (Expr.Col "k", Desc) ]
                   (scan src))) );
          (* limit boundaries: across chunk edges, 0, and over-ask *)
          ("limit-0", Plan.(limit 0 (scan src)));
          ("limit-1", Plan.(limit 1 (scan src)));
          ("limit-all", Plan.(limit 10_000 (scan src)));
          ("distinct", Plan.(distinct (select [ ("c", Expr.Col "c") ] (scan src))));
          ( "hash-join",
            Plan.(join ~on:[ ("k", "dk") ] (scan src) (scan right)) );
        ])

let test_of_array_sources () =
  (* No batch path, all-K_any kinds: everything routes through the
     re-batcher and the scalar fallbacks. *)
  let src =
    Source.of_array ~name:"mixed" ~schema:[ "a"; "b" ]
      [|
        [| Value.Int 1; Value.Str "x" |];
        [| Value.Null; Value.Str "y" |];
        [| Value.Int 3; Value.Str "x" |];
        [| Value.Dec (D.of_string "2.50"); Value.Str "z" |];
      |]
  in
  List.iter
    (fun (n, p) -> ignore (check_parity n p))
    [
      ("arr-scan", Plan.scan src);
      ("arr-filter", Plan.(where Expr.(Gt (Col "a", int 1)) (scan src)));
      ( "arr-group",
        Plan.(
          group_by
            ~keys:[ ("b", Expr.Col "b") ]
            ~aggs:[ ("n", Count); ("mx", Max (Expr.Col "a")) ]
            (scan src)) );
    ];
  (* empty source: no chunks at all *)
  let empty = Source.of_array ~name:"empty" ~schema:[ "x" ] [||] in
  let rows = check_parity "arr-empty" Plan.(where Expr.(Gt (Col "x", int 0)) (scan empty)) in
  check Alcotest.int "empty stays empty" 0 (List.length rows)

let test_error_parity () =
  (* Type errors must raise identically (message included) from the
     vectorized fallback. *)
  let src =
    Source.of_array ~name:"bad" ~schema:[ "a" ] [| [| Value.Str "x" |]; [| Value.Int 1 |] |]
  in
  let plan = Plan.(where Expr.(Gt (Col "a", int 0)) (scan src)) in
  let exn_of f = match f () with _ -> None | exception e -> Some (Printexc.to_string e) in
  let fuse = exn_of (fun () -> Fuse.collect plan) in
  let vec = exn_of (fun () -> Vector.collect plan) in
  check Alcotest.bool "fuse raises" true (fuse <> None);
  check
    Alcotest.(option string)
    "same exception" fuse vec;
  (* division by zero through the typed kernel *)
  let kv =
    Source.of_array ~name:"z" ~schema:[ "a" ] [| [| Value.Int 4 |]; [| Value.Int 0 |] |]
  in
  let dplan = Plan.(select [ ("q", Expr.(Div (int 12, Col "a"))) ] (scan kv)) in
  check
    Alcotest.(option string)
    "div-by-zero parity"
    (exn_of (fun () -> Fuse.collect dplan))
    (exn_of (fun () -> Vector.collect dplan))

(* ------------------------------------------------------------------ *)
(* Snapshot views and parallel scans through the batch path *)

let test_view_frontier () =
  let _rt, coll = build ~placement:Block.Row ~mode:Context.Indirect ~n:60 () in
  Smc.Collection.with_view coll (fun view ->
      let src = Source.of_smc ~view coll ~columns in
      let before = Vector.collect (Plan.scan src) in
      (* mutate after the frontier: adds and removes must stay invisible *)
      let r =
        Smc.Collection.add coll ~init:(fun blk slot ->
            Smc.Field.set_int fk blk slot 999;
            Smc.Field.set_dec fd blk slot (D.of_int 1);
            Smc.Field.set_date fdt blk slot 10001;
            Smc.Field.set_int fc blk slot (Char.code 'Z');
            Smc.Field.set_bool fb blk slot true;
            Smc.Field.set_string fs blk slot "zz")
      in
      ignore (r : Smc.Ref.t);
      let after = Vector.collect (Plan.scan src) in
      check rows_testable "view-pinned batch scan is stable" before after;
      check rows_testable "view: vector = volcano" (Interp.collect (Plan.scan src)) after;
      check rows_testable "view: vector = fuse" (Fuse.collect (Plan.scan src)) after);
  (* after closing: current state sees the new row *)
  let src = Source.of_smc coll ~columns in
  let k999 = Plan.(where Expr.(Eq (Col "k", int 999)) (scan src)) in
  check Alcotest.int "post-view scan sees the add" 1 (List.length (Vector.collect k999))

let test_parallel_batch_scan () =
  let _rt, coll = build ~placement:Block.Columnar ~mode:Context.Indirect ~n:300 () in
  let pool = Smc_parallel.Pool.create ~size:3 () in
  Fun.protect
    ~finally:(fun () -> Smc_parallel.Pool.shutdown pool)
    (fun () ->
      let seq = Source.of_smc coll ~columns in
      let par = Source.of_smc ~pool ~domains:4 coll ~columns in
      (* row order across blocks is unspecified in the parallel case —
         compare as sorted bags, and compare aggregates exactly *)
      let sorted p = List.sort Stdlib.compare (Vector.collect p) in
      check rows_testable "parallel batch scan = sequential (sorted)"
        (sorted (Plan.scan seq))
        (sorted (Plan.scan par));
      let agg src =
        Vector.collect
          Plan.(
            group_by ~keys:[]
              ~aggs:[ ("n", Count); ("sum", Sum (Expr.Col "d")); ("mx", Max (Expr.Col "k")) ]
              (where Expr.(Gt (Col "k", int 5)) (scan src)))
      in
      check rows_testable "parallel aggregate agrees" (agg seq) (agg par))

(* ------------------------------------------------------------------ *)
(* Hit-sized batches: every row-bridged producer (IndexScan, ViewRead,
   GroupBy, HashJoin, OrderBy) packs its rows through [Batch.rebatcher],
   whose column storage grows with the rows pushed. Hit counts straddle
   the initial capacity (8), its doublings and the chunk size (1024). *)

let hit_counts = [ 0; 1; 7; 8; 9; 1023; 1024; 1025; 2049 ]

(* Rows with [g = key h] number exactly [h]; [u] is unique per row. *)
let key h = 100_000 + h

let hits_layout =
  Smc_offheap.Layout.create ~name:"hits"
    [ ("g", Smc_offheap.Layout.Int); ("u", Smc_offheap.Layout.Int); ("s", Smc_offheap.Layout.Str 8) ]

let hg = Smc.Field.int hits_layout "g"
let hu = Smc.Field.int hits_layout "u"
let hs = Smc.Field.str hits_layout "s"
let hits_columns = [ ("g", Source.C_int hg); ("u", Source.C_int hu); ("s", Source.C_str hs) ]

let hits_source () =
  let rt = Smc_offheap.Runtime.create () in
  let coll = Smc.Collection.create rt ~name:"hits" ~layout:hits_layout () in
  let u = ref 0 in
  List.iter
    (fun h ->
      for _ = 1 to h do
        let i = !u in
        incr u;
        ignore
          (Smc.Collection.add coll ~init:(fun blk slot ->
               Smc.Field.set_int hg blk slot (key h);
               Smc.Field.set_int hu blk slot i;
               Smc.Field.set_string hs blk slot (Printf.sprintf "r%d" (i mod 97)))
            : Smc.Ref.t)
      done)
    hit_counts;
  let ix =
    Smc_index.Hash_index.attach ~name:"by_g"
      ~key:(Smc_index.Hash_index.Int_key (Smc.Field.get_int hg))
      coll
  in
  (* One view per hit count, filtered to its key and grouped by the unique
     column: a ViewRead returning exactly [h] rows. *)
  let views =
    List.map
      (fun h ->
        Smc_matview.Matview.attach
          ~name:(Printf.sprintf "by_u_%d" h)
          coll ~columns:hits_columns
          ~keys:[ ("u", Expr.Col "u") ]
          ~aggs:[ ("n", Source.V_count) ]
          ~where:Expr.(Eq (Col "g", int (key h)))
          ())
      hit_counts
  in
  Source.of_smc coll ~columns:hits_columns ~indexes:[ ("g", ix) ]
    ~matviews:(List.map Smc_matview.Matview.info views)

let hit_plans src h =
  let only = Plan.(where Expr.(Eq (Col "g", int (key h))) (scan src)) in
  let dim = Source.of_array ~name:"dim" ~schema:[ "dk"; "tag" ] [| [| Value.Int (key h); Value.Str "t" |] |] in
  [
    ("index-scan", Plan.index_scan src ~column:"g" ~value:(Value.Int (key h)));
    ( "view-read",
      Plan.view_read src ~keys:[ ("u", Expr.Col "u") ] ~aggs:[ ("n", Plan.Count) ]
        ~where:(Some Expr.(Eq (Col "g", int (key h)))) );
    ("group-by", Plan.group_by ~keys:[ ("u", Expr.Col "u") ] ~aggs:[ ("n", Plan.Count) ] only);
    ("hash-join", Plan.join ~on:[ ("g", "dk") ] only (Plan.scan dim));
    ("order-by", Plan.order_by [ (Expr.Col "u", Plan.Desc) ] only);
  ]

let test_hit_sized_batches () =
  let src = hits_source () in
  List.iter
    (fun h ->
      List.iter
        (fun (name, plan) ->
          let reference = Interp.collect plan in
          check Alcotest.int (Printf.sprintf "%s h=%d: volcano hits" name h) h (List.length reference);
          List.iter
            (fun batch_rows ->
              let label =
                Printf.sprintf "%s h=%d batch_rows=%s: vector = volcano" name h
                  (match batch_rows with None -> "default" | Some b -> string_of_int b)
              in
              check rows_testable label reference (Vector.collect ?batch_rows plan))
            [ None; Some 5; Some 8; Some 1000 ])
        (hit_plans src h))
    hit_counts

(* A one-hit lookup at the default chunk size must not put column storage
   for a whole chunk into the major heap: the bound is a quarter of one
   column's chunk, for a three-column row. *)
let test_one_hit_major_words () =
  let src = hits_source () in
  let plan = Plan.index_scan src ~column:"g" ~value:(Value.Int (key 1)) in
  let hits () = List.length (Vector.collect plan) in
  ignore (hits () : int);
  Gc.minor ();
  (* [Gc.counters], not [Gc.quick_stat]: the latter only sees direct
     major-heap allocations once a collection has sampled them. *)
  let major_words () =
    let _, _, w = Gc.counters () in
    w
  in
  let before = major_words () in
  let n = hits () in
  let words = major_words () -. before in
  check Alcotest.int "one hit" 1 n;
  if words > float_of_int (Vector.default_batch_rows / 4) then
    Alcotest.failf "one-hit IndexScan allocated %.0f major words" words

(* ------------------------------------------------------------------ *)
(* Observability: filter counters balance *)

let test_vec_counters () =
  let rt, coll = build ~placement:Block.Row ~mode:Context.Indirect ~n:90 () in
  let obs = rt.Smc_offheap.Runtime.obs in
  let snap0 = Smc_obs.snapshot obs in
  let src = Source.of_smc coll ~columns in
  let live =
    List.length (Vector.collect Plan.(where Expr.(Gt (Col "k", int (-1))) (scan src)))
  in
  let d = Smc_obs.diff (Smc_obs.snapshot obs) snap0 in
  let g = Smc_obs.get d in
  check Alcotest.bool "batches counted" true (g Smc_obs.c_vec_batches > 0);
  check Alcotest.int "batch rows = live rows" live (g Smc_obs.c_vec_batch_rows);
  check Alcotest.int "filter saw every live row" live (g Smc_obs.c_vec_filter_rows_in);
  check Alcotest.int "kept + dropped = in"
    (g Smc_obs.c_vec_filter_rows_in)
    (g Smc_obs.c_vec_filter_rows_kept + g Smc_obs.c_vec_filter_rows_dropped);
  check (Alcotest.list Alcotest.string) "obs invariants hold" []
    (Smc_check.Obs_check.check rt ~contexts:[ coll.Smc.Collection.ctx ])

let () =
  let qc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "vector"
    [
      ( "parity",
        [
          qc "scan across configs" test_scan_parity;
          qc "typed filters" test_typed_filters;
          qc "null semantics" test_null_semantics;
          qc "fallback predicates" test_fallback_predicates;
          qc "select arithmetic" test_select_arithmetic;
          qc "group-by shapes" test_group_by_shapes;
          qc "row operators" test_row_operators;
          qc "of_array sources" test_of_array_sources;
          qc "error parity" test_error_parity;
        ] );
      ( "integration",
        [
          qc "snapshot view frontier" test_view_frontier;
          qc "parallel batch scan" test_parallel_batch_scan;
          qc "filter counters balance" test_vec_counters;
        ] );
      ( "hit-sized batches",
        [
          qc "row-bridged producers at every hit count" test_hit_sized_batches;
          qc "one-hit IndexScan stays out of the major heap" test_one_hit_major_words;
        ] );
    ]
