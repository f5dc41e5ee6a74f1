module C = Smc.Collection
module F = Smc.Field
module V = Smc_managed.Vector
module CD = Smc_managed.Concurrent_dictionary
module D = Smc_decimal.Decimal
open Smc_util

type ops = {
  kind : string;
  insert_batch : count:int -> unit;
  remove_batch : keys:(int, unit) Hashtbl.t -> int;
  size : unit -> int;
  random_orderkey : Prng.t -> int;
}

let fresh_lineitem_values g =
  let quantity = Prng.int_in g 1 50 in
  ( quantity,
    D.of_cents (Prng.int_in g 100000 10000000),
    D.of_cents (Prng.int_in g 0 10),
    D.of_cents (Prng.int_in g 0 8) )

(* Draws in the order of [fresh_lineitem_row], so one seed picks the same
   order, part, supplier and values in every variant. Every reference
   field is set: a zero word is not the null reference, and queries
   following it would fault. *)
let init_fresh_lineitem (db : Db_smc.t) g blk slot =
  let lf = db.Db_smc.lf in
  let pick refs = refs.(Prng.int g (Array.length refs)) in
  let order = pick db.Db_smc.order_refs in
  let part = pick db.Db_smc.part_refs in
  let supplier = pick db.Db_smc.supplier_refs in
  let quantity, price, disc, tax = fresh_lineitem_values g in
  F.set_ref lf.Db_smc.l_order ~target:db.Db_smc.orders blk slot order;
  F.set_ref lf.Db_smc.l_part ~target:db.Db_smc.parts blk slot part;
  F.set_ref lf.Db_smc.l_supplier ~target:db.Db_smc.suppliers blk slot supplier;
  F.set_int lf.Db_smc.l_linenumber blk slot 0;
  F.set_dec lf.Db_smc.l_quantity blk slot (D.of_int quantity);
  F.set_dec lf.Db_smc.l_extendedprice blk slot price;
  F.set_dec lf.Db_smc.l_discount blk slot disc;
  F.set_dec lf.Db_smc.l_tax blk slot tax;
  F.set_string lf.Db_smc.l_returnflag blk slot "N";
  F.set_string lf.Db_smc.l_linestatus blk slot "O";
  F.set_date lf.Db_smc.l_shipdate blk slot Spec.current_date;
  F.set_date lf.Db_smc.l_commitdate blk slot Spec.current_date;
  F.set_date lf.Db_smc.l_receiptdate blk slot Spec.current_date

(* Single enumeration with allocation-free reference navigation, as the
   compiled removal stream would be generated; [f] gets the reference of
   every lineitem whose order key is in [keys]. *)
let iter_matching_lineitems (db : Db_smc.t) ~keys ~f =
  let lf = db.Db_smc.lf in
  let orders = db.Db_smc.orders in
  let f_key = db.Db_smc.orf.Db_smc.o_orderkey in
  let o_key = f_key.Smc_offheap.Layout.word in
  let o_sw = orders.C.layout.Smc_offheap.Layout.slot_words in
  let row_major = orders.C.ctx.Smc_offheap.Context.placement = Smc_offheap.Block.Row in
  C.with_read db.Db_smc.lineitems (fun () ->
      C.iter db.Db_smc.lineitems ~f:(fun blk slot ->
          let loc = F.follow_loc lf.Db_smc.l_order ~target:orders blk slot in
          if loc >= 0 then begin
            let ob = C.loc_block orders loc and os = C.loc_slot loc in
            let orderkey =
              if row_major then
                Bigarray.Array1.unsafe_get ob.Smc_offheap.Block.data ((os * o_sw) + o_key)
              else F.get_int f_key ob os
            in
            if Hashtbl.mem keys orderkey then f (C.ref_of_slot db.Db_smc.lineitems blk slot)
          end))

let collect_victims db ~keys =
  let victims = ref [] in
  iter_matching_lineitems db ~keys ~f:(fun r -> victims := r :: !victims);
  !victims

(* Bare removes skip already-dead references individually, so this is safe
   against concurrent streams racing for the same victims. *)
let bare_remove_all (db : Db_smc.t) victims =
  List.fold_left
    (fun acc r -> if C.remove db.Db_smc.lineitems r then acc + 1 else acc)
    0 victims

(* Both SMC variants run the same stream bodies over the same enumeration;
   they differ only in the commit discipline: [`Bare] applies each op as
   its own single-op unit, [`Txn] stages the half-stream through the public
   transaction API ([Collection.transact]) and publishes it atomically. *)
let smc_refresh_ops discipline (db : Db_smc.t) (ds : Row.dataset) =
  let insert_batch ~count =
    let g = Prng.create ~seed:(Int64.of_int count) () in
    match discipline with
    | `Bare ->
      for _ = 1 to count do
        ignore (C.add db.Db_smc.lineitems ~init:(init_fresh_lineitem db g) : Smc.Ref.t)
      done
    | `Txn -> (
      match
        C.transact db.Db_smc.lineitems (fun tx ->
            for _ = 1 to count do
              C.stage_add tx ~init:(init_fresh_lineitem db g)
            done)
      with
      | C.Committed _ -> ()
      | C.Conflict -> assert false (* add-only transactions never conflict *))
  in
  let remove_batch ~keys =
    let victims = collect_victims db ~keys in
    match discipline with
    | `Bare -> bare_remove_all db victims
    | `Txn -> (
      match
        C.transact db.Db_smc.lineitems (fun tx ->
            List.iter (fun r -> C.stage_remove tx r) victims)
      with
      | C.Committed _ -> List.length victims
      | C.Conflict ->
        (* A concurrent stream won the race for one of our victims; fall
           back to per-op removal. *)
        bare_remove_all db victims)
  in
  {
    kind = (match discipline with `Bare -> "smc" | `Txn -> "smc_txn");
    insert_batch;
    remove_batch;
    size = (fun () -> C.count db.Db_smc.lineitems);
    random_orderkey = (fun g -> ds.Row.orders.(Prng.int g (Array.length ds.Row.orders)).Row.o_orderkey);
  }

let smc_ops db ds = smc_refresh_ops `Bare db ds
let smc_txn_ops db ds = smc_refresh_ops `Txn db ds

let fresh_lineitem_row g (ds : Row.dataset) =
  let order = ds.Row.orders.(Prng.int g (Array.length ds.Row.orders)) in
  let part = ds.Row.parts.(Prng.int g (Array.length ds.Row.parts)) in
  let supplier = ds.Row.suppliers.(Prng.int g (Array.length ds.Row.suppliers)) in
  let quantity, price, disc, tax = fresh_lineitem_values g in
  {
    Row.l_order = order;
    l_part = part;
    l_supplier = supplier;
    l_linenumber = 0;
    l_quantity = D.of_int quantity;
    l_extendedprice = price;
    l_discount = disc;
    l_tax = tax;
    l_returnflag = 'N';
    l_linestatus = 'O';
    l_shipdate = Spec.current_date;
    l_commitdate = Spec.current_date;
    l_receiptdate = Spec.current_date;
    l_shipinstruct = "NONE";
    l_shipmode = "MAIL";
    l_comment = "refresh";
  }

let vector_ops (ds : Row.dataset) =
  let v = V.create ~capacity:(Array.length ds.Row.lineitems) () in
  Array.iter (fun li -> V.add v li) ds.Row.lineitems;
  let insert_batch ~count =
    let g = Prng.create ~seed:(Int64.of_int count) () in
    for _ = 1 to count do
      V.add v (fresh_lineitem_row g ds)
    done
  in
  let remove_batch ~keys =
    V.remove_bulk v ~pred:(fun (li : Row.lineitem) ->
        Hashtbl.mem keys li.Row.l_order.Row.o_orderkey)
  in
  {
    kind = "list";
    insert_batch;
    remove_batch;
    size = (fun () -> V.length v);
    random_orderkey = (fun g -> ds.Row.orders.(Prng.int g (Array.length ds.Row.orders)).Row.o_orderkey);
  }

let dict_ops (ds : Row.dataset) =
  let d = CD.create ~capacity:(Array.length ds.Row.lineitems) () in
  Array.iter (fun li -> CD.add d ~key:(Dbgen.lineitem_key li) li) ds.Row.lineitems;
  let next_key = Atomic.make (1 lsl 40) in
  let insert_batch ~count =
    let g = Prng.create ~seed:(Int64.of_int count) () in
    for _ = 1 to count do
      CD.add d ~key:(Atomic.fetch_and_add next_key 1) (fresh_lineitem_row g ds)
    done
  in
  let remove_batch ~keys =
    (* Single enumeration collecting the matching dictionary keys, then
       targeted removals — the ConcurrentDictionary idiom. *)
    let to_remove = ref [] in
    CD.iter d ~f:(fun k (li : Row.lineitem) ->
        if Hashtbl.mem keys li.Row.l_order.Row.o_orderkey then to_remove := k :: !to_remove);
    List.fold_left (fun acc k -> if CD.remove d ~key:k then acc + 1 else acc) 0 !to_remove
  in
  {
    kind = "dict";
    insert_batch;
    remove_batch;
    size = (fun () -> CD.length d);
    random_orderkey = (fun g -> ds.Row.orders.(Prng.int g (Array.length ds.Row.orders)).Row.o_orderkey);
  }

let run_stream_pair ops ~prng ~batch =
  ops.insert_batch ~count:batch;
  let keys = Hashtbl.create batch in
  (* Order keys cluster ~4 lineitems each; selecting batch/4 keys removes
     roughly [batch] objects, matching the insert volume. *)
  for _ = 1 to max 1 (batch / 4) do
    Hashtbl.replace keys (ops.random_orderkey prng) ()
  done;
  ignore (ops.remove_batch ~keys : int)
