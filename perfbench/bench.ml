(* Entry point: runs one workload and prints its metrics, then one JSON line
   with the correctness tally and the metrics by name.

     bench.exe --workload <scan|scan_refresh_ops|churn|serve> --seed <n> --seconds <s> --trace <0|1>

   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   run is traced and the metrics are the per-layer ones. The exit code is
   non-zero when any correctness gate failed. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("round_p50_ms", "ms");
    ("round_p90_ms", "ms");
    ("refresh_p50_ms", "ms");
    ("write_p50_us", "us");
    ("write_p90_us", "us");
    ("commit_p50_us", "us");
    ("commit_p90_us", "us");
    ("lookup_p50_us", "us");
    ("lookup_p90_us", "us");
    ("ops_per_s", "1/s");
    ("recover_s", "s");
    ("request_p50_us", "us");
    ("request_p90_us", "us");
    ("bytes_per_row", "B");
    ("max_rss_mb", "MB");
  ]

let tails =
  [ ("round_p90_ms", 0.90); ("write_p90_us", 0.90); ("commit_p90_us", 0.90); ("lookup_p90_us", 0.90); ("request_p90_us", 0.90) ]

let usage () =
  prerr_endline "usage: bench.exe --workload <scan|scan_refresh_ops|churn|serve> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]";
  exit 2

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (m : Meter.metric) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Meter.name m.Meter.value m.Meter.unit_)
       ms)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) and work = ref ".bench_work" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := (match int_of_string_opt v with Some s when s >= 0 -> s | _ -> usage ()); parse rest
    | "--seconds" :: v :: rest -> seconds := (match float_of_string_opt v with Some s when s > 0. -> s | _ -> usage ()); parse rest
    | "--trace" :: v :: rest -> trace := (match v with "0" -> 0 | "1" -> 1 | _ -> usage ()); parse rest
    | "--work-dir" :: v :: rest -> work := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0. || !trace < 0 then usage ();
  let run =
    match !workload with
    | "scan" -> Scan.run ~inserts:Scan.Rows
    | "scan_refresh_ops" -> Scan.run ~inserts:Scan.Refresh_ops
    | "churn" -> Churn.run
    | "serve" -> Serve.run
    | _ -> usage ()
  in
  let traced = !trace = 1 in
  let work_dir = Filename.concat !work (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  mkdir_p work_dir;
  (* Plugins the compiled-plan engine builds go under the work directory too. *)
  Unix.putenv "SMC_CG_TMPDIR" work_dir;
  let r =
    Fun.protect ~finally:(fun () -> rm_rf work_dir) (fun () ->
        let r = run ~seed:!seed ~seconds:!seconds ~trace:traced ~work_dir in
        if traced then begin
          Trace.write (Filename.concat !work (Printf.sprintf "trace-%s-%d.tsv" !workload !seed));
          let ms, from_fixture, zeros = Fixture.complete ~seed:!seed ~work_dir r.Report.metrics in
          r.Report.metrics <- ms;
          if from_fixture <> [] then
            Report.note r ("not reached by this workload, measured on a layer fixture: " ^ String.concat " " from_fixture);
          if zeros <> [] then Report.note r ("not applicable to this workload, reported as 0: " ^ String.concat " " zeros)
        end;
        r)
  in
  let expected = if traced then Layers.all else end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (m : Meter.metric) -> m.Meter.name = name) r.Report.metrics with
        | Some m when Float.is_finite m.Meter.value -> m
        | Some _ | None ->
          Report.fail r (name ^ " was not measured");
          Meter.metric name unit_ 0.)
      expected
  in
  if not traced then List.iter (Report.note r) (Meter.short_tails metrics tails);
  (* run.py sets the minor heap through OCAMLRUNPARAM; a spawned domain
     shows whether it took effect. *)
  Report.note r
    (Printf.sprintf "minor heap of a spawned domain: %d words"
       (Domain.join (Domain.spawn (fun () -> (Gc.get ()).Gc.minor_heap_size))));
  Printf.printf "workload %s, seed %d, %.0f s%s\n" !workload !seed !seconds (if traced then ", traced" else "");
  List.iter
    (fun (m : Meter.metric) ->
      Printf.printf "  %-30s %14.4f %-6s%s\n" m.Meter.name m.Meter.value m.Meter.unit_
        (if m.Meter.samples > 0 then Printf.sprintf " (n=%d)" m.Meter.samples else ""))
    metrics;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) (List.rev r.Report.notes);
  List.iter (fun v -> Printf.printf "  FAILED: %s\n" v) (List.rev r.Report.violations);
  let correct = r.Report.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 r.Report.attempted) r.Report.failed (json_metrics metrics);
  exit (if correct then 0 else 1)
