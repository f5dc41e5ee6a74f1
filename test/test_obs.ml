(* Tests for the Obs counter layer: stripe mechanics, cross-domain merging,
   the enable toggle, runtime wiring, and the derived-invariant checker. *)

open Smc_offheap

let check = Alcotest.check

let person_layout () =
  Layout.create ~name:"person" [ ("name", Layout.Str 16); ("age", Layout.Int) ]

let make_ctx ?(slots_per_block = 16) ?(reclaim_threshold = 0.05) () =
  let rt = Runtime.create () in
  let ctx =
    Context.create rt ~layout:(person_layout ()) ~slots_per_block ~reclaim_threshold ()
  in
  (rt, ctx)

let get s c = Smc_obs.get s c

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Counter mechanics *)

let test_incr_and_snapshot () =
  let o = Smc_obs.create ~label:"t" () in
  for _ = 1 to 5 do
    Smc_obs.incr o Smc_obs.c_allocs
  done;
  Smc_obs.add o Smc_obs.c_frees 3;
  let s = Smc_obs.snapshot o in
  check Alcotest.int "allocs" 5 (get s Smc_obs.c_allocs);
  check Alcotest.int "frees" 3 (get s Smc_obs.c_frees);
  check Alcotest.int "untouched counter" 0 (get s Smc_obs.c_rq_pushes)

let test_multi_domain_merge () =
  let o = Smc_obs.create () in
  Smc_obs.incr o Smc_obs.c_allocs;
  let ds =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 100 do
              Smc_obs.incr o Smc_obs.c_allocs
            done))
  in
  List.iter Domain.join ds;
  let s = Smc_obs.snapshot o in
  check Alcotest.int "stripes merged across domains" 301 (get s Smc_obs.c_allocs)

let test_enabled_toggle () =
  let o = Smc_obs.create () in
  Smc_obs.incr o Smc_obs.c_allocs;
  Smc_obs.enabled := false;
  Smc_obs.incr o Smc_obs.c_allocs;
  Smc_obs.enabled := true;
  Smc_obs.incr o Smc_obs.c_allocs;
  let s = Smc_obs.snapshot o in
  check Alcotest.int "disabled increment dropped" 2 (get s Smc_obs.c_allocs)

let test_diff_and_names () =
  let o = Smc_obs.create () in
  Smc_obs.incr o Smc_obs.c_retires;
  let a = Smc_obs.snapshot o in
  Smc_obs.incr o Smc_obs.c_retires;
  Smc_obs.incr o Smc_obs.c_retires;
  let b = Smc_obs.snapshot o in
  let d = Smc_obs.diff b a in
  check Alcotest.int "diff isolates the interval" 2 (get d Smc_obs.c_retires);
  check Alcotest.string "counter name" "retires" (Smc_obs.name Smc_obs.c_retires);
  check Alcotest.bool "all counters named" true
    (Array.for_all (fun c -> Smc_obs.name c <> "")
       (Array.init Smc_obs.n_counters Fun.id));
  let names = Array.init Smc_obs.n_counters Smc_obs.name in
  check Alcotest.int "counter names pairwise distinct" Smc_obs.n_counters
    (List.length (List.sort_uniq String.compare (Array.to_list names)));
  check Alcotest.string "last registered counter name" "mv_invalidations"
    (Smc_obs.name Smc_obs.c_mv_invalidations);
  check Alcotest.int "registered counters" 94 Smc_obs.n_counters

let test_table_rendering () =
  let o = Smc_obs.create ~label:"render" () in
  Smc_obs.add o Smc_obs.c_allocs 7;
  let t = Smc_obs.to_table (Smc_obs.snapshot o) in
  let str = Smc_util.Table.to_string t in
  check Alcotest.bool "table has the counter row" true (contains str "allocs");
  let json = Smc_util.Table.to_json t in
  check Alcotest.bool "json carries the count" true (contains json "7")

(* ------------------------------------------------------------------ *)
(* Runtime wiring *)

let test_runtime_alloc_free_counters () =
  let rt, ctx = make_ctx () in
  let refs = List.init 40 (fun _ -> Context.alloc ctx) in
  List.iteri (fun i r -> if i mod 2 = 0 then ignore (Context.free ctx r : bool)) refs;
  let s = Smc_obs.snapshot rt.Runtime.obs in
  check Alcotest.int "allocs counted" 40 (get s Smc_obs.c_allocs);
  check Alcotest.int "frees counted" 20 (get s Smc_obs.c_frees);
  check Alcotest.int "retires = frees" 20 (get s Smc_obs.c_retires);
  check Alcotest.bool "blocks counted" true (get s Smc_obs.c_blocks_created >= 1);
  check Alcotest.bool "entries minted" true (get s Smc_obs.c_entries_minted >= 40)

let test_epoch_advance_counters () =
  let rt, _ctx = make_ctx () in
  let em = rt.Runtime.epoch in
  ignore (Epoch.thread_id em : int);
  for _ = 1 to 4 do
    ignore (Epoch.try_advance em : bool)
  done;
  (* Force one guaranteed failure via the chaos gate. *)
  Epoch.set_advance_gate em (Some (fun () -> false));
  ignore (Epoch.try_advance em : bool);
  Epoch.set_advance_gate em None;
  let s = Smc_obs.snapshot rt.Runtime.obs in
  check Alcotest.int "successful advances equal the global epoch"
    (Epoch.global em) (get s Smc_obs.c_epoch_adv_ok);
  check Alcotest.bool "gated attempt counted as failure" true
    (get s Smc_obs.c_epoch_adv_fail >= 1)

let test_pool_task_counter () =
  let o = Smc_obs.create ~label:"pool" () in
  let pool = Smc_parallel.Pool.create ~size:1 ~obs:o () in
  let ps = List.init 5 (fun i -> Smc_parallel.Pool.submit pool (fun () -> i)) in
  List.iteri (fun i p -> check Alcotest.int "task result" i (Smc_parallel.Pool.await p)) ps;
  Smc_parallel.Pool.shutdown pool;
  let s = Smc_obs.snapshot o in
  check Alcotest.int "submitted tasks counted" 5 (get s Smc_obs.c_pool_tasks)

let test_par_scan_counters () =
  let rt, ctx = make_ctx ~slots_per_block:8 () in
  let refs = List.init 50 (fun _ -> Context.alloc ctx) in
  let pool = Smc_parallel.Pool.create ~size:2 () in
  let n =
    Smc_parallel.Par_scan.fold_valid_par ~pool ~domains:3 ctx
      ~init:(fun () -> 0)
      ~f:(fun acc _ _ -> acc + 1)
      ~combine:( + )
  in
  Smc_parallel.Pool.shutdown pool;
  check Alcotest.int "parallel fold sees every object" 50 n;
  let s = Smc_obs.snapshot rt.Runtime.obs in
  check Alcotest.int "one scan recorded" 1 (get s Smc_obs.c_par_scans);
  check Alcotest.bool "worker activations recorded" true (get s Smc_obs.c_par_workers >= 1);
  ignore refs

(* ------------------------------------------------------------------ *)
(* Derived invariants *)

let test_obs_check_clean () =
  let rt, ctx = make_ctx () in
  let refs = Array.init 60 (fun _ -> Context.alloc ctx) in
  Array.iteri (fun i r -> if i mod 3 <> 0 then ignore (Context.free ctx r : bool)) refs;
  ignore (Epoch.advance_until rt.Runtime.epoch
            ~target:(Epoch.global rt.Runtime.epoch + 3) ~max_spins:100 : bool);
  ignore (Array.init 30 (fun _ -> Context.alloc ctx) : int array);
  let violations = Smc_check.Obs_check.check rt ~contexts:[ ctx ] in
  check Alcotest.(list string) "balances hold after churn" [] violations

let test_obs_check_detects_imbalance () =
  let rt, ctx = make_ctx () in
  ignore (Context.alloc ctx : int);
  (* Fake an uncounted allocation: history and state now disagree. *)
  Smc_obs.incr rt.Runtime.obs Smc_obs.c_allocs;
  let violations = Smc_check.Obs_check.check rt ~contexts:[ ctx ] in
  check Alcotest.bool "imbalance detected" true
    (List.exists (fun v -> contains v "live-object balance") violations)

let test_obs_check_after_compaction () =
  let rt, ctx = make_ctx ~slots_per_block:8 ~reclaim_threshold:0.9 () in
  let refs = Array.init 64 (fun _ -> Context.alloc ctx) in
  (* Empty most blocks so compaction forms groups and discards residual
     limbo slots — exercising the limbo-drop term of the balance. *)
  Array.iteri (fun i r -> if i mod 8 <> 0 then ignore (Context.free ctx r : bool)) refs;
  let report = Compaction.run ctx ~occupancy_threshold:0.5 () in
  check Alcotest.bool "compaction moved objects" true (report.Compaction.objects_moved > 0);
  let violations = Smc_check.Obs_check.check rt ~contexts:[ ctx ] in
  check Alcotest.(list string) "balances hold after compaction" [] violations;
  let s = Smc_obs.snapshot rt.Runtime.obs in
  check Alcotest.bool "limbo drops counted" true (get s Smc_obs.c_limbo_drops > 0);
  check Alcotest.int "phase transitions counted (5 per completed pass)" 5
    (get s Smc_obs.c_compaction_phases)

let () =
  (* Counter assertions assume counting is on, whatever SMC_OBS says. *)
  Smc_obs.enabled := true;
  Alcotest.run "smc_obs"
    [
      ( "counters",
        [
          Alcotest.test_case "incr and snapshot" `Quick test_incr_and_snapshot;
          Alcotest.test_case "multi-domain merge" `Quick test_multi_domain_merge;
          Alcotest.test_case "enabled toggle" `Quick test_enabled_toggle;
          Alcotest.test_case "diff and names" `Quick test_diff_and_names;
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "alloc/free counters" `Quick test_runtime_alloc_free_counters;
          Alcotest.test_case "epoch advance counters" `Quick test_epoch_advance_counters;
          Alcotest.test_case "pool task counter" `Quick test_pool_task_counter;
          Alcotest.test_case "par_scan counters" `Quick test_par_scan_counters;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean after churn" `Quick test_obs_check_clean;
          Alcotest.test_case "detects imbalance" `Quick test_obs_check_detects_imbalance;
          Alcotest.test_case "clean after compaction" `Quick test_obs_check_after_compaction;
        ] );
    ]
