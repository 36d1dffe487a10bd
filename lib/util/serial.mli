(** Little-endian field codec for saved state.

    One field function serves both directions of an {!io}: given the
    field's current value, [Save b] appends it to [b] and returns it,
    and [Load r] returns the next field read from [r] instead.  So
    [t.f <- Serial.int io t.f] saves or loads [t.f], and one function
    per record keeps its saving and loading in step.  A load raises
    [Failure] on input that ends early or holds a field out of range,
    and never reads past the end. *)

type reader

val reader : Bytes.t -> reader
val pos : reader -> int

type io = Save of Buffer.t | Load of reader

val loading : io -> bool
val i64 : io -> int64 -> int64

val int : ?max:int -> io -> int -> int
(** With [max], a loaded value must lie in [0, max]: a count or a size,
    checked before it is used. *)

val bool : io -> bool -> bool
val string : io -> string -> string

val bytes : io -> Bytes.t -> unit
(** All of the buffer, in place. *)

val list : ?max:int -> io -> ('a -> 'a) -> 'a -> 'a list -> 'a list
(** [list io f dummy xs]: the length (at most [max] on a load), then
    each element through [f]; a load hands [f] the [dummy]. *)

val ring : io -> ('a -> 'a) -> 'a -> 'a Ring.t -> unit
(** A ring's contents, oldest first, as {!list} (at most its capacity);
    a load replaces them. *)

val section : io -> (io -> unit) option -> unit
(** A length-prefixed section, empty for [None]: a load skips the
    section when given [None], so a saved part can be left out. *)
