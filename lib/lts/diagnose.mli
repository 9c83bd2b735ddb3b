(** Distinguishing-formula generation (Cleaveland's algorithm).

    When the equivalence check of the noninterference analysis fails, the
    methodology (Sect. 3.1 of the paper) relies on a modal-logic formula
    telling the two systems apart to guide the revision of the DPM or of
    the system. This module reruns partition refinement with an explicit
    splitting tree and extracts such a formula: the first state satisfies
    it, the second does not (guaranteed, and re-checked by {!Hml.sat} in
    the test suite). *)

val distinguishing_formula : Lts.t -> int -> int -> Hml.t option
(** [distinguishing_formula lts s t] — [None] iff [s] and [t] are strongly
    bisimilar on the given transition relation. Intended for moderate state
    spaces (diagnostics are generated for models under active debugging). *)

val of_product_trail : Bisim.product_trail -> Hml.t
(** Distinguishing formula from the splitter trail of an INSECURE
    {!Bisim.weak_front_check}: builds and saturates the (unreduced)
    disjoint union once, under a ["diagnose.saturate"] span, and stops the
    splitting-tree refinement at the first split separating the two
    initial states. The formula is identical to the one a fully
    stabilized tree extracts; the resulting modalities read as weak
    transitions. *)
