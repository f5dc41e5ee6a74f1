(** Binary IO primitives shared by the snapshot and WAL formats.

    Everything on disk is little-endian: ints are 8-byte words (an OCaml
    [int] sign-extended through [Int64]), strings are length-prefixed raw
    bytes. Data travels in {e sections} — [len][crc32][payload] —
    checksummed as a unit, so readers verify integrity before interpreting
    a single field. Snapshot sections are built in a [Buffer] and written by
    {!write_section}; WAL records are encoded in place in the same framing
    (see {!Wal}). *)

exception Corrupt of string
(** Raised by every reader on truncation, checksum mismatch, or a field
    that cannot be what it claims. The message names the file and the
    section, so a failed restore is diagnosable. *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with a formatted message. *)

(** {1 Writing} *)

val add_int : Buffer.t -> int -> unit
val add_str : Buffer.t -> string -> unit
val add_float : Buffer.t -> float -> unit

val write_section : out_channel -> Buffer.t -> int
(** Writes [len][crc][payload] and returns the bytes written (header
    included). The buffer is not cleared. *)

(** {1 Reading} *)

type reader = { bytes : Bytes.t; mutable pos : int; what : string }

val read_section : in_channel -> what:string -> ?max_len:int -> unit -> reader * int
(** Reads one section, verifies its checksum and returns a cursor over the
    payload plus the bytes consumed. Raises {!Corrupt} on truncation, an
    implausible length, or a checksum mismatch. *)

val get_int : reader -> int
val get_float : reader -> float
val get_str : reader -> string
val expect_end : reader -> unit
(** Raises {!Corrupt} unless the cursor consumed the whole payload. *)
