"""Exact Schubert calculus on Grassmannians of lines, contact-locus
enumeration, and deformation-theoretic verification of contact bounds.

The symbolic layer works over Z[d] with d a formal degree variable:
Schubert classes on G(1,n), the fiber square of the universal line, and
principal-parts Chern classes combine into closed-form degree bounds for
planes and high-order contact loci in hypersurfaces.  The exact layer
verifies the underlying deformation theory over Q and F_p, and the
finite-field layer counts contact pairs over F_q to probe dimensions
empirically.

Names are imported from their modules (tangency.schubert, tangency.counting,
...): the package re-exports nothing, so importing one module loads only
what that module needs, and numpy only with tangency.counting.
"""

__version__ = "0.1.0"
