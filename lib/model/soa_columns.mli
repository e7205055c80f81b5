(** The column record behind {!Cp_soa.t}.  The library keeps this module
    private, so [Cp_soa.t] stays abstract to every user of the library
    while [Equilibrium] builds a market that aliases the columns instead
    of copying them (DESIGN.md §12).  A type alone: there is no
    implementation. *)

type t = {
  n : int;
  alpha : float array;
  theta_hat : float array;
  beta : float array;
  v : float array;
  phi : float array;
}
