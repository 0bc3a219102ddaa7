(** CRC-32 (IEEE 802.3, the zlib/gzip polynomial), dependency-free.

    The on-disk snapshots of the serving tier carry a checksum so a
    torn or bit-flipped file is {e loudly rejected} at warm-start
    instead of silently corrupting the restored state.  The implementation
    is the standard reflected table-driven CRC; results match
    [zlib.crc32] / [python binascii.crc32]. *)

val crc32 : string -> int32
(** Checksum of the whole string (initial value 0). *)

val crc32_update : int32 -> string -> pos:int -> len:int -> int32
(** Streaming update: [crc32 s = crc32_update 0l s ~pos:0 ~len:(length s)]. *)

val to_hex : int32 -> string
(** Zero-padded lowercase 8-digit hex, e.g. ["cbf43926"]. *)

val of_hex : string -> int32 option
(** Inverse of {!to_hex}; [None] on malformed input. *)
