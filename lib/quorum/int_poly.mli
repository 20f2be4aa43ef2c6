(** Polynomials in one variable [x] with integer coefficients.

    The exact availability counts of {!System.t} are built from them:
    over a part of the universe, the coefficient of [x^k] counts the
    live sets of [k] of its processes with some property.  Parts that
    share no process combine by multiplication ((1+x)^m counts every
    live set of m processes), so a family built from independent parts
    gets its counts from sums, differences and products of small
    polynomials instead of a walk over all 2^n live sets.
    Coefficients are OCaml ints: exact while every intermediate
    coefficient stays below [max_int] (comfortably so up to n = 60). *)

type t = int array
(** Entry [k] is the coefficient of [x^k]; entries past the degree
    may be zero.  [[||]] is the zero polynomial. *)

val one : t

val monomial : int -> t
(** [monomial k] is [x^k]. *)

val binomial : int -> t
(** [binomial m] is [(1+x)^m]: entry [k] is C(m, k). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val pow : t -> int -> t
(** [pow a k] is [a^k], [k >= 0]. *)

val coeffs : n:int -> t -> int array
(** The [n + 1] coefficients of [x^0 .. x^n].  Raises
    [Invalid_argument] if a higher coefficient is nonzero. *)
