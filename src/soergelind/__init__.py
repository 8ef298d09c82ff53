"""Graded parabolic induction for Soergel modules over coinvariant rings.

The package computes, for a Weyl group W with parabolic subgroup W_I,
the one-sided Rouquier-complex model of parabolic induction applied to
the indecomposable Soergel modules of W_I, and checks the resulting
class in the graded Grothendieck group against the Kazhdan-Lusztig
prediction inside the Hecke algebra.

Layering, bottom to top: `coxeter` (Weyl groups, parabolic data,
admissible chains), `hecke` (Laurent polynomials, standard and KL
bases), `coinvariants` (the certified build of coinvariant algebras
and their fundamental invariants), `smod` (graded modules, restriction
along C -> C_I, hom spaces, the indecomposable catalog and the peeling
of catalog summands the Hecke algebra predicts),
`homotopy` (formal complexes, Rouquier tensoring, minimization, K0),
`induction` (the induction pipeline and the verification sweep),
`serialize` / `cli` (persistence and the command-line front end).

The package root imports no module and re-exports no name: import
each from its module, for example `soergelind.smod.build_catalog` or
`soergelind.coinvariants.build_coinvariants`.  The module side builds
a coinvariant algebra only when a catalog is built, and imports
`coinvariants` then.
"""

__version__ = '0.1.0'

__all__ = ['__version__']
