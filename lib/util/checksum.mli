(** CRC-32 (IEEE 802.3, the zlib/gzip polynomial), dependency-free.

    The router's consistent-hash ring hashes its keys and virtual nodes
    with it, so the key→worker mapping is a fixed function of the
    worker names.  The implementation is the standard reflected
    table-driven CRC; results match [zlib.crc32] /
    [python binascii.crc32]. *)

val crc32 : string -> int32
(** Checksum of the whole string (initial value 0). *)
