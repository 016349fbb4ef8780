(** Runtime values and arithmetic semantics of the IR.

    Integers of every width are stored sign-agnostically in an [int64]
    whose high bits are truncated to the type's width on every operation,
    matching LLVM's modular arithmetic. [F32] arithmetic is rounded to
    single precision after every operation. *)

type t = Int of int64 | Float of float

(** The arithmetic, defined once over raw 64-bit payloads. An integer's
    payload is its [int64]; a float's (an [F32] included, held at its
    rounded value) is the IEEE-754 image of the double, as {!payload}
    computes it. Each operation takes the types the instruction states,
    so a payload carries no tag. The simulation engine, the interpreter
    and the constant folder compute in this form; every function is
    inlined into its caller, so a payload never boxes on the way. *)
module Payload : sig
  val signed : Ty.t -> int64 -> int64
  (** Sign-extended view of a stored integer of the given width. *)

  val truncate : Ty.t -> int64 -> int64
  (** Mask an integer, round an [F32] to single precision. *)

  val to_bool : Ty.t -> int64 -> bool
  (** Nonzero test, on the value the payload holds for the type. *)

  val binop : Ast.binop -> Ty.t -> int64 -> int64 -> int64
  (** Integer division/remainder by zero raises [Division_by_zero]. *)

  val icmp : Ast.icmp -> Ty.t -> int64 -> int64 -> int64
  (** [1L] or [0L]. *)

  val fcmp : Ast.fcmp -> int64 -> int64 -> int64
  (** [1L] or [0L]. *)

  val cast : Ast.cast -> src_ty:Ty.t -> dst_ty:Ty.t -> int64 -> int64
end

val payload : t -> int64
(** The raw payload: an [Int]'s integer, a [Float]'s IEEE-754 image. *)

val of_payload : Ty.t -> int64 -> t
(** The boxed value of a payload of the given type. *)

val payload_as : Ty.t -> t -> int64
(** The payload an operation of the given type computes on: {!payload},
    except that a float type reads an [Int] by its numeric value, as
    {!to_float} does. *)

val to_bool : t -> bool
(** Nonzero test. *)

val truncate : Ty.t -> t -> t
(** Normalise a value to the representation of the given type: mask
    integer bits, round floats to [F32] precision when applicable. *)

val signed : Ty.t -> int64 -> int64
(** Sign-extended view of a stored integer of the given width;
    {!Payload.signed}. *)

val equal : t -> t -> bool

val to_string : t -> string

val to_int64 : t -> int64
(** Raw integer payload; raises [Invalid_argument] on floats. *)

val to_float : t -> float
