(* Lineitem query shapes shared by the scan workload and the layer fixture:
   the column spec and the Q1-shaped view. *)

open Smc_tpch
module Q = Smc_query
module V = Smc_query.Value

let columns (lf : Db_smc.lineitem_fields) =
  Q.Source.
    [
      ("shipdate", C_date lf.Db_smc.l_shipdate);
      ("discount", C_dec lf.Db_smc.l_discount);
      ("quantity", C_dec lf.Db_smc.l_quantity);
      ("price", C_dec lf.Db_smc.l_extendedprice);
      ("tax", C_dec lf.Db_smc.l_tax);
      ("returnflag", C_char lf.Db_smc.l_returnflag);
      ("linestatus", C_char lf.Db_smc.l_linestatus);
    ]

(* The view is shaped like Q1 (same keys and filter) but keeps fewer
   aggregates, so Q1 itself still runs as a scan plan. *)
let view_keys = Q.Expr.[ ("rf", Col "returnflag"); ("ls", Col "linestatus") ]
let view_aggs = Q.Plan.[ ("sum_qty", Sum (Q.Expr.Col "quantity")); ("n", Count) ]

let view_where =
  let cutoff = Smc_util.Date.add_days (Smc_util.Date.of_ymd 1998 12 1) (-Results.q1_delta_days) in
  Q.Expr.(Le (Col "shipdate", Const (V.Date cutoff)))

let group_plan src = Q.Plan.(group_by ~keys:view_keys ~aggs:view_aggs (where view_where (scan src)))
