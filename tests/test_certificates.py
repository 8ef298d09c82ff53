"""Every certificate fires on the one input it guards.

A fast path is certified, not trusted: each check below stands between
a computed object and its use.  Each test corrupts the one input the
check guards (a catalog entry, a kept record, a map the check is handed)
and asserts that the check raises InternalCheckError with its own
message, so a certificate that could never fire shows up here.
"""

from fractions import Fraction

import pytest

from soergelind import smod
from soergelind.coinvariants import build_coinvariants
from soergelind.coxeter import RootSystem
from soergelind.errors import InternalCheckError
from soergelind.exactla import form_scale
from soergelind.smod import (IndecomposableCatalog, ModuleMap, build_catalog,
                             decompose, direct_sum, induce_frobenius,
                             trivial_module)

_CAT = {}


def catalog_of(family, rank):
    if (family, rank) not in _CAT:
        rs = RootSystem(family, rank)
        _CAT[(family, rank)] = build_catalog(
            build_coinvariants(rs, tuple(range(rank))))
    return _CAT[(family, rank)]


def fresh(catalog, replaced=()):
    """A new catalog over the same entries, those in replaced swapped
    in; it has derived nothing from them yet."""
    entries = dict(catalog.entries)
    entries.update(replaced)
    return IndecomposableCatalog(catalog.algebra, entries)


def descent_split(catalog, word):
    """_descent_pieces for y = the word and s its last letter."""
    y = catalog.algebra.root_system.element_from_word(word)
    s = word[-1]
    return smod._descent_pieces(catalog, s, y,
                                induce_frobenius(s, catalog.entry(y)))


def doubled(module):
    double, _incls, _projs = direct_sum([module, module])
    return double


# ---------------------------------------------------------------------------
# the descent split theta_s D_y = D_y<0> + D_y<2>


def test_a_descent_split_holds_uncorrupted():
    pieces = descent_split(catalog_of('A', 2), [0])
    assert [k for _y, k, _i, _p in pieces] == [0, 2]


def test_an_entry_without_a_section_of_the_multiplication_is_refused():
    # D_s1 replaced by the trivial module: theta_s1 of it is D_s1, and
    # no map out of the trivial module splits its multiplication
    catalog = catalog_of('A', 2)
    s1 = catalog.algebra.root_system.element_from_word([0])
    corrupt = fresh(catalog, {s1: trivial_module(catalog.algebra)})
    with pytest.raises(InternalCheckError,
                       match='has no section of its multiplication'):
        descent_split(corrupt, [0])


def test_a_coevaluation_that_misses_d_y_2_is_refused(monkeypatch):
    # a zero coevaluation gives incl2 = 0, so D_y<0> + D_y<2> does not
    # map onto theta_s D_y
    monkeypatch.setattr(smod, 'coev_map',
                        lambda s, module, theta:
                        ModuleMap.zero(module, theta, 2))
    with pytest.raises(InternalCheckError, match='does not map onto'):
        descent_split(catalog_of('A', 2), [0])


def test_a_coevaluation_that_is_no_module_map_is_refused(monkeypatch):
    # the coevaluation with its bottom block doubled still has an
    # inverse blockwise, but incl2 no longer intertwines
    coev = smod.coev_map

    def bent(s, module, theta):
        phi = coev(s, module, theta)
        forms = dict(phi.forms)
        forms[0] = form_scale(2, forms[0])
        return ModuleMap._of(module, theta, 2, forms)

    monkeypatch.setattr(smod, 'coev_map', bent)
    with pytest.raises(InternalCheckError,
                       match=r'the split of theta_s1 D_.* fails to '
                             'intertwine'):
        descent_split(catalog_of('A', 2), [0])


# ---------------------------------------------------------------------------
# maps out of a cyclic entry, from its generator record


def test_a_generator_record_in_another_basis_is_refused():
    # (S_2, P_2) of D_s1 read in the basis 2 e of degree 2: S_2 P_2 = id
    # still, so every image of the generator passes the residues, but
    # the maps built through P_2 are half of a module map.  The target
    # D_s1 + D_s1 has a two-dimensional bottom degree, so the basis
    # comes from the kernel over the unit images
    catalog = catalog_of('A', 2)
    corrupt = fresh(catalog)
    s1 = catalog.algebra.root_system.element_from_word([0])
    record = corrupt.generator_data(s1)
    stacked, section = record[2]
    record[2] = (form_scale(2, stacked), form_scale(Fraction(1, 2), section))
    target = doubled(catalog.entry(s1))
    assert len(catalog.maps_from(s1, target, 0)) == 2
    with pytest.raises(InternalCheckError,
                       match=r'a map out of D_.* fails to intertwine'):
        corrupt.maps_from(s1, target, 0)


@pytest.mark.parametrize('word', [None, [1, 0, 2, 1]])
def test_the_generator_record_of_a_module_that_is_not_cyclic_is_refused(
        word):
    # a bottom degree of dimension 2 (the trivial module doubled), or a
    # second generator degree (D_{s2 s1 s3 s2} in A3)
    if word is None:
        catalog = catalog_of('A', 2)
        y = catalog.algebra.root_system.identity
        corrupt = fresh(catalog, {y: doubled(trivial_module(catalog.algebra))})
    else:
        corrupt = fresh(catalog_of('A', 3))
        y = corrupt.algebra.root_system.element_from_word(word)
        assert not corrupt.is_cyclic(y)
    with pytest.raises(InternalCheckError, match='the module is not cyclic'):
        corrupt.generator_data(y)


# ---------------------------------------------------------------------------
# split pairs


def test_an_entry_with_endomorphisms_beyond_the_scalars_is_refused():
    # a doubled trivial module as D_e: a hom basis pair with nonzero
    # trace composes to a rank-one idempotent, not a scalar
    catalog = catalog_of('A', 2)
    e = catalog.algebra.root_system.identity
    double = doubled(trivial_module(catalog.algebra))
    with pytest.raises(InternalCheckError, match='beyond the scalars'):
        decompose(double, fresh(catalog, {e: double}).entries)
