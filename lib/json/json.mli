(** Minimal JSON, with no dependencies: the codec of the compile
    daemon's wire protocol and the one string escaper of every JSON
    renderer ([Diag], [Obs]). Parses a strict superset of what the
    daemon emits; numbers are floats, strings are UTF-8 (["\uXXXX"]
    escapes decoded, surrogate pairs not supported), duplicate object
    keys keep the first binding via {!member}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse; [Error] carries a message with a byte offset. *)

val to_string : t -> string

val escape : string -> string
(** [escape s] is the body of a JSON string literal for [s]: quotes,
    backslashes and control characters escaped, no surrounding quotes. *)

val quote : string -> string
(** [quote s] is [s] escaped and wrapped in double quotes — a JSON
    string literal. *)

val number_to_string : float -> string
(** Integral floats print without a fractional part (["3"], not
    ["3."]), so round-tripped ints stay parseable by [int_of_string]. *)

val member : string -> t -> t
(** [member k j] is the [k] field of object [j], or [Null] when absent
    or when [j] is not an object. *)

val get_string : t -> string option

val get_int : t -> int option
(** [Num] with an integral value. *)

val get_float : t -> float option
val get_bool : t -> bool option
val get_list : t -> t list option
