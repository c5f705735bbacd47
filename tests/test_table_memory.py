"""What a table makes and holds: element objects on demand, one copy of an
automorphism table's images, the width of its indices, and the traced
peaks of the sigma example, of an Aut(G) search and of an acting group
over its cap.

A table holds its rows, key bodies or maps, and makes an element object
only when something reads one, so the rank-6 sigma example at p = 5 makes a
few dozen matrices instead of one per element.  An automorphism table is
born holding its maps, one stack of |A| * |G| indices, and its objects are
views of their rows.  Each index takes the bytes of the narrowest dtype
that holds |G| rows: one byte up to 256, two up to 65536, else four.  An
acting group is closed on its maps' images of G's generators, and its
stack is written only once the closure is under its cap; inner maps are
made a generator at a time.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from pcentral import actions
from pcentral.actions import inner_action
from pcentral.autsearch import brute_force_aut
from pcentral.catalog import build_group, paper_sigma_pair
from pcentral.checks import check_sigma_example_tightness
from pcentral.elements import FpMatrix
from pcentral.errors import CapExceeded
from pcentral.groups import close


def test_the_sigma_pair_makes_matrices_only_when_read(monkeypatch):
    # E = E(5, 6) is built from its stacked bodies, which makes only the
    # identity passed in (1).  The Jordan images of its 6 generators take
    # 11 powers g ** 1, each an identity and two products (33), and 11
    # products img * g (11).  The table makes the objects read: its
    # identity and the 6 generators (7); the images are found by their
    # rows.  The 25 automorphisms of <sigma> take their keys from E's
    # bodies and make none.  Before, every one of the 15625 elements got an
    # object (15670 in all).
    made = []
    real = FpMatrix._wrap.__func__

    def counting(cls, p, n, key):
        made.append(key)
        return real(cls, p, n, key)

    monkeypatch.setattr(FpMatrix, "_wrap", classmethod(counting))
    pair = paper_sigma_pair(5)
    assert (pair.G.order, pair.A.order) == (15625, 25)
    assert len(made) <= 1 + 33 + 11 + 7


def test_the_sigma_check_never_closes_its_acting_group(monkeypatch):
    # A = <sigma> is sized by sigma's order, and the check reads only sigma
    closed = []

    def counting(generators, **kwargs):
        closed.append(len(generators))
        return close(generators, **kwargs)

    monkeypatch.setattr(actions, "close", counting)
    assert check_sigma_example_tightness(3).conclusion == "pass"
    assert closed == []
    assert paper_sigma_pair(3).A.order == 9 and closed == [1]


def test_the_sigma_check_peak_stays_bounded():
    # tracemalloc's peak over the p = 5 check, after a small check has
    # loaded every module and cache: 8.1 MB when each element had an object,
    # a key and a dict entry, 4.4 MB with the table as its rows, 2.4 MB with
    # A never closed, each map extended a layer at a time and kernel blocks
    # of 256 rows
    check_sigma_example_tightness(2)
    gc.collect()
    tracemalloc.start()
    try:
        verdict = check_sigma_example_tightness(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.conclusion == "pass"
    assert peak < 3 * 2 ** 20


def test_the_aut_search_peak_stays_bounded():
    # tracemalloc's peak over Aut(E(3,3)), 11232 maps of 27 indices (1.2 MB
    # a copy in int32), after a small search has loaded every module and
    # cache: 4.8 MiB when the found blocks, their concatenation and its
    # sorted copy were held at once, 2.8 MiB with the blocks popped into one
    # stack (see test_the_aut_search_holds_one_byte_indices)
    brute_force_aut(build_group("elementary_abelian(3,2)"))
    gc.collect()
    tracemalloc.start()
    try:
        result = brute_force_aut(build_group("elementary_abelian(3,3)"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.order == 11232
    assert peak < 4 * 2 ** 20


def test_an_action_cap_is_met_before_any_map_is_stacked():
    # Inn(ut(5,3)) has |G:Z| = 19683 > 10000, the default action cap.  The
    # closure holds only each map's images of G's 4 generators, so the cap
    # is met before a row of 59049 images is written: a traced peak of 8.2
    # MiB when one kernel call made every conjugation map (an A closed over
    # Automorphism objects would hold about 2.4 GB of images); see
    # test_inner_maps_are_made_a_generator_at_a_time
    G = build_group("ut(5,3)")
    inner_action(build_group("heisenberg(3)"))
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="^action closure exceeded cap of 10000$"):
            inner_action(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_inner_maps_are_made_a_generator_at_a_time():
    # the same cap on Inn(ut(5,3)): 8.2 MiB with the 4 maps from one
    # _conjugates call over every element and generator, 3.9 MiB with a
    # call a generator and two-byte images
    G = build_group("ut(5,3)")
    inner_action(build_group("heisenberg(3)"))
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="^action closure exceeded cap of 10000$"):
            inner_action(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_the_aut_search_holds_one_byte_indices():
    # the search above with its blocks and stack in uint8, as |E(3,3)| =
    # 27: a stack of 0.3 MB and a traced peak of 1.4 MiB (2.8 in int32)
    brute_force_aut(build_group("elementary_abelian(3,2)"))
    gc.collect()
    tracemalloc.start()
    try:
        A = brute_force_aut(build_group("elementary_abelian(3,3)")).perm_group
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A._images.nbytes == 11232 * 27
    assert peak < 2 * 2 ** 20


def test_an_inner_stack_holds_two_bytes_a_cell():
    # Inn(ut(4,3)) has |G:Z| = 243 maps of 729 indices, each two bytes
    assert inner_action(build_group("ut(4,3)")).A._images.nbytes == 243 * 729 * 2


@pytest.mark.parametrize("kind", ["closed", "searched"])
def test_automorphism_tables_hold_their_images_once(kind):
    # every automorphism table is born holding its stack, and makes its
    # objects on its rows: an A closed from generators writes each map's
    # images once, through its parent's (before, an A closed from objects
    # stacked their images on first use and re-pointed each at its row)
    G = build_group("dihedral(16)")
    A = inner_action(G).A if kind == "closed" else brute_force_aut(G).perm_group
    stack = A._images
    assert stack.shape == (A.order, G.order)
    for a, row in zip(A.elements, stack):
        assert np.shares_memory(a.images, stack)
        assert np.array_equal(a.images, row)
        assert not a.images.flags.writeable
    assert A._images is stack
