(** Timing and row-parity helpers shared by the experiments that
    check one plan against another (index, text and view access paths vs
    scans; engines vs a reference). *)

val median_ms : (unit -> 'a) -> float
(** Median of 3 timed runs after 1 warmup, in ms; the result is kept
    alive so the work cannot be optimised away. *)

val best_ms : (unit -> 'a) -> float
(** Minimum of 5 timed runs after 2 warmups, in ms: the most noise-robust
    point estimate for a deterministic computation on a shared machine. *)

val same_rows : Smc_query.Value.t array list -> Smc_query.Value.t array list -> bool
(** Same bag of rows: equal after sorting, row by row with
    {!Smc_query.Value.equal}. *)

val rows_equal : Smc_query.Value.t array list -> Smc_query.Value.t array list -> bool
(** Same rows in the same order. *)

(** One access-path comparison: the written scan plan against its
    rewritten access-path plan, on one engine. *)
type point = {
  case : string;
  engine : string;
  rows_out : int;
  scan_ms : float;
  idx_ms : float;
  speedup : float;
  identical : bool;  (** the access-path plan returned exactly the scan plan's rows *)
}

val measure :
  case:string ->
  engine:string ->
  collect:('p -> Smc_query.Value.t array list) ->
  scan_plan:'p ->
  idx_plan:'p ->
  point
(** Collect both plans once for the parity check, then time each with
    {!median_ms}. *)

val table : title:string -> path_ms:string -> point list -> Smc_util.Table.t
(** One row per point; [path_ms] heads the access-path time column. *)
