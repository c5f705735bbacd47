"""Extending generator images a layer at a time, against the edge-list form.

automorphism_from_images and the Aut(G) search extend maps over a Schreier
tree of the generators (groups._extend_block).  The reference below is the
earlier form of that extension, kept here as the oracle: every edge of a
level listed at once, tree edges first, and one stacked table of the right
columns of the images that occur.  Both must give the same map, or raise the
same error, on the built-in Jordan actions (the sigma examples included), on
relabeled tables, and on images that define no homomorphism, no bijection,
or that are given for elements that do not generate.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_relabeling import relabelings

from pcentral.catalog import _jordan_images, build_group, parse_family
from pcentral.corpus import default_config
from pcentral.errors import NotAHomomorphism, NotBijective
from pcentral.groups import _schreier_levels, automorphism_from_images


def _reference_level_edges(level):
    """A level of _schreier_levels as (grow, check, new): its tree edges, a
    triple (xs, js, ys) per layer, and every other edge as one triple."""
    grow, check = [], []
    for xs, j0, reach in level[0]:
        ys = np.concatenate([c[xs] for c in level[1][j0:]])
        other = np.delete(np.arange(len(ys), dtype=np.intc), reach)
        for pos, edges in ((reach, grow), (other, check)):
            js, at = np.divmod(pos, len(xs))
            edges.append((xs[at], js + j0, ys[pos]))
    return grow, tuple(map(np.concatenate, zip(*check))), level[2]


def _reference_extend_block(G, F, images, level):
    """Extend the rows of F over a level through one stacked table of the
    images' right columns; the row masks (homomorphism, injective)."""
    grow, (xs, js, ys), new = _reference_level_edges(level)
    occurs = np.bincount(images.ravel(), minlength=G.order).astype(bool)
    offsets = (occurs.cumsum() - 1)[images] * G.order
    table = np.concatenate([G._right_column(m) for m in occurs.nonzero()[0].tolist()])
    for gx, gj, gy in grow:
        F[:, gy] = table[offsets[:, gj] + F[:, gx]]
    hom = (table[offsets[:, js] + F[:, xs]] == F[:, ys]).all(axis=1)
    return hom, (F[:, new] != G._identity_row).all(axis=1)


def _reference_from_images(G, gens, images):
    """automorphism_from_images on the reference extension: the map's index
    array, or the error it raises, with the same precedence."""
    gen_idx = G._rows(gens).tolist()
    row = G._rows(images).astype(np.int32)[None]
    F = np.full((1, G.order), G._identity_row, dtype=np.int32)
    hom = injective = np.ones(1, dtype=bool)
    size = 1
    if gen_idx:
        inside = np.arange(G.order) == G._identity_row
        (level,) = _schreier_levels(G._right_column, inside, [gen_idx], [])
        (hom, injective), size = _reference_extend_block(G, F, row, level), level[-1]
    if not hom[0]:
        raise NotAHomomorphism("generator images are inconsistent on the Cayley graph")
    if size != G.order:
        raise ValueError("the given elements do not generate the group")
    if not injective[0]:
        raise NotBijective("generator images define a non-bijective endomorphism")
    return F[0]


def _outcome(extend, G, gens, images):
    try:
        result = extend(G, gens, images)
    except (NotAHomomorphism, NotBijective, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return "map", np.asarray(getattr(result, "images", result)).tolist()


def _agree(G, gens, images):
    """Both extensions' outcome on gens -> images, which must be the same."""
    gens, images = np.asarray(gens, dtype=np.intp), np.asarray(images, dtype=np.intp)
    got = _outcome(automorphism_from_images, G, gens, images)
    assert got == _outcome(_reference_from_images, G, gens, images)
    return got[0]


# every built-in Jordan action, and the sigma examples' Jordan block
JORDAN_SPECS = sorted({(e.group_spec, e.action_spec) for e in default_config().entries
                       if e.action_spec and e.action_spec.startswith("jordan")}
                      | {(f"elementary_abelian({p},{p + 1})", "jordan") for p in (2, 3, 5)})


@functools.lru_cache(maxsize=None)
def _group(spec):
    return build_group(spec)


def _power(action):
    spec = parse_family(action)
    return spec.args[0] if spec.args else 1


@pytest.mark.parametrize("gspec,action", JORDAN_SPECS)
def test_jordan_maps_and_their_failures_agree(gspec, action):
    G = _group(gspec)
    gens, images = G._gens, _jordan_images(G, _power(action))
    assert _agree(G, gens, images) == "map"
    # two generators sent to one element: a homomorphism, not injective
    clash = images.copy()
    clash[0] = images[1]
    assert _agree(G, gens, clash) == "NotBijective"
    # the images of all but the last generator: they generate less than G
    assert _agree(G, gens[:-1], images[:-1]) == "ValueError"


@pytest.mark.parametrize("spec", ["quaternion(8)", "dihedral(8)", "sym(4)"])
def test_maps_that_are_no_homomorphism_agree(spec):
    # the first generator kept and the second sent to the identity: i^2 = j^2
    # in Q8; the two generators swapped: their orders differ in D8 and S4
    G = _group(spec)
    gens = G._gens
    images = [gens[0], G._identity_row] if spec == "quaternion(8)" else gens[::-1]
    assert _agree(G, gens, images) == "NotAHomomorphism"


RELABELED_SPECS = ("elementary_abelian(3,4)", "elementary_abelian(2,4)", "heisenberg(3)",
                   "dihedral(16)", "quaternion(8)", "wreath_cp_cp(2)", "ut(4,2)")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_extensions_agree_on_relabeled_tables(data):
    G = data.draw(relabelings(_group(data.draw(st.sampled_from(RELABELED_SPECS)))))
    rows = st.integers(0, G.order - 1)
    gens = data.draw(st.one_of(st.just(G._gens.tolist()),
                               st.lists(rows, min_size=1, max_size=len(G._gens) + 1)))
    # images: the generators permuted, or any elements
    images = data.draw(st.one_of(st.permutations(gens),
                                 st.lists(rows, min_size=len(gens), max_size=len(gens))))
    _agree(G, gens, images)
