open Smc_util
module V = Smc_query.Value

let median_ms f =
  Stats.median (Timing.repeat ~warmup:1 3 (fun () -> ignore (Sys.opaque_identity (f ()))))

let best_ms f =
  Stats.min (Timing.repeat ~warmup:2 5 (fun () -> ignore (Sys.opaque_identity (f ()))))

let same_rows a b =
  let sorted rows = List.sort Stdlib.compare rows in
  List.equal (fun x y -> Array.for_all2 V.equal x y) (sorted a) (sorted b)

let rows_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> Array.length ra = Array.length rb && Array.for_all2 V.equal ra rb)
       a b

type point = {
  case : string;
  engine : string;
  rows_out : int;
  scan_ms : float;
  idx_ms : float;
  speedup : float;
  identical : bool;
}

let measure ~case ~engine ~collect ~scan_plan ~idx_plan =
  let scan_rows = collect scan_plan and idx_rows = collect idx_plan in
  let scan_ms = median_ms (fun () -> collect scan_plan) in
  let idx_ms = median_ms (fun () -> collect idx_plan) in
  {
    case;
    engine;
    rows_out = List.length idx_rows;
    scan_ms;
    idx_ms;
    speedup = (if idx_ms > 0.0 then scan_ms /. idx_ms else infinity);
    identical = same_rows scan_rows idx_rows;
  }

let table ~title ~path_ms points =
  let t =
    Table.create ~title
      ~columns:[ "case"; "engine"; "rows out"; "scan ms"; path_ms; "speedup"; "identical" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.case;
          p.engine;
          string_of_int p.rows_out;
          Printf.sprintf "%.3f" p.scan_ms;
          Printf.sprintf "%.3f" p.idx_ms;
          Printf.sprintf "%.1fx" p.speedup;
          string_of_bool p.identical;
        ])
    points;
  t
