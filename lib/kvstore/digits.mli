(** Non-negative decimal integers written in place: the [%d] and [%0Nd]
    forms of [Printf] without its format interpreter or the C call behind
    [string_of_int]. The digits go right to left, two per division,
    from a table of the hundred digit pairs. The store's keys
    ({!Kv_workload.key_of_index}) use it. *)

val width : int -> int
(** Digits of [n] in [%d] form. Raises [Invalid_argument] if [n < 0]. *)

val write : Bytes.t -> pos:int -> width:int -> int -> unit
(** [write b ~pos ~width n] writes [Printf.sprintf "%0*d" width n] over
    bytes [pos .. pos + width - 1] of [b]: the digits, zero-padded on the
    left. [width] may be {!width}[ n] for the [%d] form. Raises
    [Invalid_argument] if [n < 0], the range is outside [b] or [n] needs
    more than [width] characters. *)
