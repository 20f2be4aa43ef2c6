(** Maekawa's sqrt(n) quorums from finite projective planes (1985).

    For a prime [q], the projective plane PG(2, q) has
    [n = q^2 + q + 1] points and as many lines; every line carries
    [q + 1] points, every point lies on [q + 1] lines, and any two
    lines meet in exactly one point.  Taking quorums = lines yields
    equal-size, equal-responsibility quorums of size about [sqrt n] —
    the optimal-load construction the paper's summary contrasts with
    h-triang ("optimal load but poor asymptotic availability").

    Only prime orders are constructed (prime powers would need a field
    implementation; the paper never uses one). *)

val system : ?name:string -> order:int -> unit -> Quorum.System.t
(** [system ~order:q ()] over [n = q^2 + q + 1] points.  Raises if [q]
    is not prime. *)

val universe_size : order:int -> int
