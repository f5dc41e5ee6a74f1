open Smc_offheap
module C = Smc.Collection
module F = Smc.Field

type lineitem_fields = {
  l_order : Layout.field;
  l_part : Layout.field;
  l_supplier : Layout.field;
  l_linenumber : Layout.field;
  l_quantity : Layout.field;
  l_extendedprice : Layout.field;
  l_discount : Layout.field;
  l_tax : Layout.field;
  l_returnflag : Layout.field;
  l_linestatus : Layout.field;
  l_shipdate : Layout.field;
  l_commitdate : Layout.field;
  l_receiptdate : Layout.field;
  l_shipinstruct : Layout.field;
  l_shipmode : Layout.field;
  l_comment : Layout.field;
}

type order_fields = {
  o_orderkey : Layout.field;
  o_customer : Layout.field;
  o_orderstatus : Layout.field;
  o_totalprice : Layout.field;
  o_orderdate : Layout.field;
  o_orderpriority : Layout.field;
  o_clerk : Layout.field;
  o_shippriority : Layout.field;
  o_comment : Layout.field;
}

type customer_fields = {
  c_custkey : Layout.field;
  c_name : Layout.field;
  c_address : Layout.field;
  c_nation : Layout.field;
  c_phone : Layout.field;
  c_acctbal : Layout.field;
  c_mktsegment : Layout.field;
  c_comment : Layout.field;
}

type supplier_fields = {
  s_suppkey : Layout.field;
  s_name : Layout.field;
  s_address : Layout.field;
  s_nation : Layout.field;
  s_phone : Layout.field;
  s_acctbal : Layout.field;
  s_comment : Layout.field;
}

type part_fields = {
  p_partkey : Layout.field;
  p_name : Layout.field;
  p_mfgr : Layout.field;
  p_brand : Layout.field;
  p_type : Layout.field;
  p_size : Layout.field;
  p_container : Layout.field;
  p_retailprice : Layout.field;
  p_comment : Layout.field;
}

type partsupp_fields = {
  ps_part : Layout.field;
  ps_supplier : Layout.field;
  ps_availqty : Layout.field;
  ps_supplycost : Layout.field;
  ps_comment : Layout.field;
}

type nation_fields = {
  n_nationkey : Layout.field;
  n_name : Layout.field;
  n_region : Layout.field;
  n_comment : Layout.field;
}

type region_fields = {
  r_regionkey : Layout.field;
  r_name : Layout.field;
  r_comment : Layout.field;
}

type t = {
  rt : Runtime.t;
  regions : C.t;
  nations : C.t;
  suppliers : C.t;
  parts : C.t;
  partsupps : C.t;
  customers : C.t;
  orders : C.t;
  lineitems : C.t;
  rf : region_fields;
  nf : nation_fields;
  sf_ : supplier_fields;
  pf : part_fields;
  psf : partsupp_fields;
  cf : customer_fields;
  orf : order_fields;
  lf : lineitem_fields;
  supplier_refs : Smc.Ref.t array;
  part_refs : Smc.Ref.t array;
  order_refs : Smc.Ref.t array;
  lineitem_refs : Smc.Ref.t array;
}

let region_fields =
  {
    r_regionkey = F.int Schema.region "r_regionkey";
    r_name = F.str Schema.region "r_name";
    r_comment = F.str Schema.region "r_comment";
  }

let nation_fields =
  {
    n_nationkey = F.int Schema.nation "n_nationkey";
    n_name = F.str Schema.nation "n_name";
    n_region = F.ref_ Schema.nation "n_region";
    n_comment = F.str Schema.nation "n_comment";
  }

let supplier_fields =
  {
    s_suppkey = F.int Schema.supplier "s_suppkey";
    s_name = F.str Schema.supplier "s_name";
    s_address = F.str Schema.supplier "s_address";
    s_nation = F.ref_ Schema.supplier "s_nation";
    s_phone = F.str Schema.supplier "s_phone";
    s_acctbal = F.dec Schema.supplier "s_acctbal";
    s_comment = F.str Schema.supplier "s_comment";
  }

let part_fields =
  {
    p_partkey = F.int Schema.part "p_partkey";
    p_name = F.str Schema.part "p_name";
    p_mfgr = F.str Schema.part "p_mfgr";
    p_brand = F.str Schema.part "p_brand";
    p_type = F.str Schema.part "p_type";
    p_size = F.int Schema.part "p_size";
    p_container = F.str Schema.part "p_container";
    p_retailprice = F.dec Schema.part "p_retailprice";
    p_comment = F.str Schema.part "p_comment";
  }

let partsupp_fields =
  {
    ps_part = F.ref_ Schema.partsupp "ps_part";
    ps_supplier = F.ref_ Schema.partsupp "ps_supplier";
    ps_availqty = F.int Schema.partsupp "ps_availqty";
    ps_supplycost = F.dec Schema.partsupp "ps_supplycost";
    ps_comment = F.str Schema.partsupp "ps_comment";
  }

let customer_fields =
  {
    c_custkey = F.int Schema.customer "c_custkey";
    c_name = F.str Schema.customer "c_name";
    c_address = F.str Schema.customer "c_address";
    c_nation = F.ref_ Schema.customer "c_nation";
    c_phone = F.str Schema.customer "c_phone";
    c_acctbal = F.dec Schema.customer "c_acctbal";
    c_mktsegment = F.str Schema.customer "c_mktsegment";
    c_comment = F.str Schema.customer "c_comment";
  }

let order_fields =
  {
    o_orderkey = F.int Schema.order "o_orderkey";
    o_customer = F.ref_ Schema.order "o_customer";
    o_orderstatus = F.str Schema.order "o_orderstatus";
    o_totalprice = F.dec Schema.order "o_totalprice";
    o_orderdate = F.date Schema.order "o_orderdate";
    o_orderpriority = F.str Schema.order "o_orderpriority";
    o_clerk = F.str Schema.order "o_clerk";
    o_shippriority = F.int Schema.order "o_shippriority";
    o_comment = F.str Schema.order "o_comment";
  }

let lineitem_fields =
  {
    l_order = F.ref_ Schema.lineitem "l_order";
    l_part = F.ref_ Schema.lineitem "l_part";
    l_supplier = F.ref_ Schema.lineitem "l_supplier";
    l_linenumber = F.int Schema.lineitem "l_linenumber";
    l_quantity = F.dec Schema.lineitem "l_quantity";
    l_extendedprice = F.dec Schema.lineitem "l_extendedprice";
    l_discount = F.dec Schema.lineitem "l_discount";
    l_tax = F.dec Schema.lineitem "l_tax";
    l_returnflag = F.str Schema.lineitem "l_returnflag";
    l_linestatus = F.str Schema.lineitem "l_linestatus";
    l_shipdate = F.date Schema.lineitem "l_shipdate";
    l_commitdate = F.date Schema.lineitem "l_commitdate";
    l_receiptdate = F.date Schema.lineitem "l_receiptdate";
    l_shipinstruct = F.str Schema.lineitem "l_shipinstruct";
    l_shipmode = F.str Schema.lineitem "l_shipmode";
    l_comment = F.str Schema.lineitem "l_comment";
  }

let load ?(mode = Context.Indirect) ?(placement = Block.Row) ?(slots_per_block = 4096)
    ?reclaim_threshold (ds : Row.dataset) =
  let rt = Runtime.create () in
  let mk name layout =
    C.create rt ~name ~layout ~placement ~mode ~slots_per_block ?reclaim_threshold ()
  in
  let regions = mk "regions" Schema.region in
  let nations = mk "nations" Schema.nation in
  let suppliers = mk "suppliers" Schema.supplier in
  let parts = mk "parts" Schema.part in
  let partsupps = mk "partsupps" Schema.partsupp in
  let customers = mk "customers" Schema.customer in
  let orders = mk "orders" Schema.order in
  let lineitems = mk "lineitems" Schema.lineitem in
  let rf = region_fields
  and nf = nation_fields
  and sf_ = supplier_fields
  and pf = part_fields
  and psf = partsupp_fields
  and cf = customer_fields
  and orf = order_fields
  and lf = lineitem_fields in
  (* Direct-pointer fixup edges (§6): who stores direct refs into whom. *)
  if mode = Context.Direct then begin
    Context.add_direct_referrer regions.C.ctx ~from:nations.C.ctx nf.n_region;
    Context.add_direct_referrer nations.C.ctx ~from:suppliers.C.ctx sf_.s_nation;
    Context.add_direct_referrer nations.C.ctx ~from:customers.C.ctx cf.c_nation;
    Context.add_direct_referrer parts.C.ctx ~from:partsupps.C.ctx psf.ps_part;
    Context.add_direct_referrer suppliers.C.ctx ~from:partsupps.C.ctx psf.ps_supplier;
    Context.add_direct_referrer customers.C.ctx ~from:orders.C.ctx orf.o_customer;
    Context.add_direct_referrer orders.C.ctx ~from:lineitems.C.ctx lf.l_order;
    Context.add_direct_referrer parts.C.ctx ~from:lineitems.C.ctx lf.l_part;
    Context.add_direct_referrer suppliers.C.ctx ~from:lineitems.C.ctx lf.l_supplier
  end;
  let region_refs =
    Array.map
      (fun (r : Row.region) ->
        C.add regions ~init:(fun blk slot ->
            F.set_int rf.r_regionkey blk slot r.Row.r_regionkey;
            F.set_string rf.r_name blk slot r.Row.r_name;
            F.set_string rf.r_comment blk slot r.Row.r_comment))
      ds.Row.regions
  in
  let nation_refs =
    Array.map
      (fun (n : Row.nation) ->
        C.add nations ~init:(fun blk slot ->
            F.set_int nf.n_nationkey blk slot n.Row.n_nationkey;
            F.set_string nf.n_name blk slot n.Row.n_name;
            F.set_ref nf.n_region ~target:regions blk slot
              region_refs.(n.Row.n_region.Row.r_regionkey);
            F.set_string nf.n_comment blk slot n.Row.n_comment))
      ds.Row.nations
  in
  let supplier_refs =
    Array.map
      (fun (s : Row.supplier) ->
        C.add suppliers ~init:(fun blk slot ->
            F.set_int sf_.s_suppkey blk slot s.Row.s_suppkey;
            F.set_string sf_.s_name blk slot s.Row.s_name;
            F.set_string sf_.s_address blk slot s.Row.s_address;
            F.set_ref sf_.s_nation ~target:nations blk slot
              nation_refs.(s.Row.s_nation.Row.n_nationkey);
            F.set_string sf_.s_phone blk slot s.Row.s_phone;
            F.set_dec sf_.s_acctbal blk slot s.Row.s_acctbal;
            F.set_string sf_.s_comment blk slot s.Row.s_comment))
      ds.Row.suppliers
  in
  let part_refs =
    Array.map
      (fun (p : Row.part) ->
        C.add parts ~init:(fun blk slot ->
            F.set_int pf.p_partkey blk slot p.Row.p_partkey;
            F.set_string pf.p_name blk slot p.Row.p_name;
            F.set_string pf.p_mfgr blk slot p.Row.p_mfgr;
            F.set_string pf.p_brand blk slot p.Row.p_brand;
            F.set_string pf.p_type blk slot p.Row.p_type;
            F.set_int pf.p_size blk slot p.Row.p_size;
            F.set_string pf.p_container blk slot p.Row.p_container;
            F.set_dec pf.p_retailprice blk slot p.Row.p_retailprice;
            F.set_string pf.p_comment blk slot p.Row.p_comment))
      ds.Row.parts
  in
  Array.iter
    (fun (ps : Row.partsupp) ->
      ignore
        (C.add partsupps ~init:(fun blk slot ->
             F.set_ref psf.ps_part ~target:parts blk slot
               part_refs.(ps.Row.ps_part.Row.p_partkey - 1);
             F.set_ref psf.ps_supplier ~target:suppliers blk slot
               supplier_refs.(ps.Row.ps_supplier.Row.s_suppkey - 1);
             F.set_int psf.ps_availqty blk slot ps.Row.ps_availqty;
             F.set_dec psf.ps_supplycost blk slot ps.Row.ps_supplycost;
             F.set_string psf.ps_comment blk slot ps.Row.ps_comment)
          : Smc.Ref.t))
    ds.Row.partsupps;
  let customer_refs =
    Array.map
      (fun (c : Row.customer) ->
        C.add customers ~init:(fun blk slot ->
            F.set_int cf.c_custkey blk slot c.Row.c_custkey;
            F.set_string cf.c_name blk slot c.Row.c_name;
            F.set_string cf.c_address blk slot c.Row.c_address;
            F.set_ref cf.c_nation ~target:nations blk slot
              nation_refs.(c.Row.c_nation.Row.n_nationkey);
            F.set_string cf.c_phone blk slot c.Row.c_phone;
            F.set_dec cf.c_acctbal blk slot c.Row.c_acctbal;
            F.set_string cf.c_mktsegment blk slot c.Row.c_mktsegment;
            F.set_string cf.c_comment blk slot c.Row.c_comment))
      ds.Row.customers
  in
  let order_refs =
    Array.map
      (fun (o : Row.order) ->
        C.add orders ~init:(fun blk slot ->
            F.set_int orf.o_orderkey blk slot o.Row.o_orderkey;
            F.set_ref orf.o_customer ~target:customers blk slot
              customer_refs.(o.Row.o_customer.Row.c_custkey - 1);
            F.set_string orf.o_orderstatus blk slot (String.make 1 o.Row.o_orderstatus);
            F.set_dec orf.o_totalprice blk slot o.Row.o_totalprice;
            F.set_date orf.o_orderdate blk slot o.Row.o_orderdate;
            F.set_string orf.o_orderpriority blk slot o.Row.o_orderpriority;
            F.set_string orf.o_clerk blk slot o.Row.o_clerk;
            F.set_int orf.o_shippriority blk slot o.Row.o_shippriority;
            F.set_string orf.o_comment blk slot o.Row.o_comment))
      ds.Row.orders
  in
  let lineitem_refs =
    Array.map
      (fun (li : Row.lineitem) ->
        C.add lineitems ~init:(fun blk slot ->
            F.set_ref lf.l_order ~target:orders blk slot
              order_refs.(li.Row.l_order.Row.o_orderkey - 1);
            F.set_ref lf.l_part ~target:parts blk slot
              part_refs.(li.Row.l_part.Row.p_partkey - 1);
            F.set_ref lf.l_supplier ~target:suppliers blk slot
              supplier_refs.(li.Row.l_supplier.Row.s_suppkey - 1);
            F.set_int lf.l_linenumber blk slot li.Row.l_linenumber;
            F.set_dec lf.l_quantity blk slot li.Row.l_quantity;
            F.set_dec lf.l_extendedprice blk slot li.Row.l_extendedprice;
            F.set_dec lf.l_discount blk slot li.Row.l_discount;
            F.set_dec lf.l_tax blk slot li.Row.l_tax;
            F.set_string lf.l_returnflag blk slot (String.make 1 li.Row.l_returnflag);
            F.set_string lf.l_linestatus blk slot (String.make 1 li.Row.l_linestatus);
            F.set_date lf.l_shipdate blk slot li.Row.l_shipdate;
            F.set_date lf.l_commitdate blk slot li.Row.l_commitdate;
            F.set_date lf.l_receiptdate blk slot li.Row.l_receiptdate;
            F.set_string lf.l_shipinstruct blk slot li.Row.l_shipinstruct;
            F.set_string lf.l_shipmode blk slot li.Row.l_shipmode;
            F.set_string lf.l_comment blk slot li.Row.l_comment))
      ds.Row.lineitems
  in
  {
    rt;
    regions;
    nations;
    suppliers;
    parts;
    partsupps;
    customers;
    orders;
    lineitems;
    rf;
    nf;
    sf_;
    pf;
    psf;
    cf;
    orf;
    lf;
    supplier_refs;
    part_refs;
    order_refs;
    lineitem_refs;
  }

let memory_words t =
  C.memory_words t.regions + C.memory_words t.nations + C.memory_words t.suppliers
  + C.memory_words t.parts + C.memory_words t.partsupps + C.memory_words t.customers
  + C.memory_words t.orders + C.memory_words t.lineitems
