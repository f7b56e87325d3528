(** String helpers missing from the standard library (OCaml 5.1). *)

val starts_with_ci : prefix:string -> string -> bool
(** Case-insensitive prefix test. *)
