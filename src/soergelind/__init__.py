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

The package root does not import `coinvariants`: the module side
builds a coinvariant algebra only when a catalog is built, and imports
the module then.  Import its names from `soergelind.coinvariants`.
"""

from .coxeter import (RootSystem, WeylElement, ParabolicDatum,
                      build_parabolic, admissible_chain)
from .errors import (ConfigurationError, IncompatibilityError,
                     InternalCheckError, CalibrationError)
from .laurent import LaurentPoly
from .hecke import (HeckeElement, hecke_unit, hecke_standard,
                    hecke_multiply, bar_involution, kl_basis, parabolic_kl,
                    predicted_class)
from .smod import (GradedModule, direct_sum, induce_frobenius,
                   RestrictionMap, restrict_module, hom_space, is_isomorphic,
                   IndecomposableCatalog, build_catalog)
from .homotopy import (FormalComplex, one_term_complex, complex_from_module,
                       tensor_rouquier, theta_complex, gaussian_eliminate,
                       k0_class, hom_complex_vanishing, complexes_isomorphic)
from .induction import (CalibrationRecord, calibrate_shift, InductionSetup,
                        make_setup, induce, induce_all,
                        VerificationReport, verify_induced_class,
                        verify_base_case, verify_theta_restriction,
                        verify_wall_crossing, verify_hom_vanishing,
                        hom_positive_control, wall_crossing_triples,
                        proper_subsets, corpus_groups, run_group, run_corpus)

__version__ = '0.1.0'

__all__ = [
    'RootSystem', 'WeylElement', 'ParabolicDatum', 'build_parabolic',
    'admissible_chain',
    'ConfigurationError', 'IncompatibilityError', 'InternalCheckError',
    'CalibrationError',
    'LaurentPoly', 'HeckeElement', 'hecke_unit', 'hecke_standard',
    'hecke_multiply', 'bar_involution', 'kl_basis', 'parabolic_kl',
    'predicted_class',
    'GradedModule', 'direct_sum', 'induce_frobenius', 'RestrictionMap',
    'restrict_module', 'hom_space', 'is_isomorphic', 'IndecomposableCatalog',
    'build_catalog',
    'FormalComplex', 'one_term_complex', 'complex_from_module',
    'tensor_rouquier', 'theta_complex', 'gaussian_eliminate', 'k0_class',
    'hom_complex_vanishing', 'complexes_isomorphic',
    'CalibrationRecord', 'calibrate_shift', 'InductionSetup', 'make_setup',
    'induce', 'induce_all', 'VerificationReport',
    'verify_induced_class', 'verify_base_case', 'verify_theta_restriction',
    'verify_wall_crossing', 'verify_hom_vanishing', 'hom_positive_control',
    'wall_crossing_triples', 'proper_subsets', 'corpus_groups',
    'run_group', 'run_corpus',
    '__version__',
]
