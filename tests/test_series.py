"""Central series, omega/agemo subgroups, regularity predicates."""

import pytest

from pcentral.catalog import build_group
from pcentral.errors import NotPGroup, OddPrimeRequired
from pcentral.series import (
    agemo,
    central_order_bound,
    is_omega_regular,
    is_p_central_of_height,
    lower_central_series,
    nilpotency_class,
    omega_conv,
    omega_series,
    omega_set,
    omega_subgroup,
    upper_central_series,
    xu_inequality,
)


def test_central_order_bound_convention():
    assert central_order_bound(2) == 4
    assert central_order_bound(3) == 3
    assert central_order_bound(5) == 5


def test_lower_central_series_heisenberg():
    G = build_group("heisenberg(3)")
    s = lower_central_series(G)
    assert s.orders()[:3] == [27, 3, 1]
    assert nilpotency_class(G) == 2


def test_lower_central_series_unitriangular_4():
    G = build_group("ut(4,3)")
    s = lower_central_series(G)
    assert s.orders()[:4] == [729, 27, 3, 1]
    assert nilpotency_class(G) == 3


def test_upper_central_series_heisenberg():
    G = build_group("heisenberg(3)")
    assert upper_central_series(G).orders()[:3] == [1, 3, 27]


def test_series_term_index_past_stabilization_returns_tail():
    G = build_group("quaternion(8)")
    s = lower_central_series(G)
    assert s.term(99).order == 1
    assert s.term(1).order == 8


def test_nilpotency_class_none_for_non_nilpotent():
    assert nilpotency_class(build_group("sym(3)")) is None
    assert nilpotency_class(build_group("sym(4)")) is None


def test_omega_sets_and_subgroups_cyclic():
    G = build_group("cyclic(2,3)")
    assert len(omega_set(G, 1)) == 2
    assert omega_subgroup(G, 1).order == 2
    assert omega_subgroup(G, 2).order == 4
    assert agemo(G, 1).order == 4
    assert agemo(G, 2).order == 2
    assert agemo(G, 3).order == 1


def test_omega_set_not_always_a_subgroup():
    D4 = build_group("dihedral(8)")
    assert len(omega_set(D4, 1)) == 6  # identity plus five involutions
    assert not is_omega_regular(D4, 1)
    assert omega_subgroup(D4, 1).order == 8  # involutions generate everything


def test_omega_regularity_good_cases():
    assert is_omega_regular(build_group("quaternion(8)"), 1)
    assert is_omega_regular(build_group("heisenberg(3)"), 1)
    G = build_group("wreath_cp_cp(3)")
    assert is_omega_regular(G, 2)  # p^2 >= exponent, trivially the whole group


@pytest.mark.parametrize("spec,orders", [
    ("dihedral(8)", [8]),  # exponent 4, yet its involutions generate it
    ("cyclic(3,2)", [3, 9]),
    ("cyclic(2,3)", [2, 4, 8]),
])
def test_omega_series_ends_at_the_group(spec, orders):
    assert [t.order for t in omega_series(build_group(spec))] == orders


def test_omega_convention_doubles_for_p_two():
    D4 = build_group("dihedral(8)")
    assert omega_conv(D4).order == 8  # order-dividing-4 elements generate D4
    H = build_group("heisenberg(3)")
    assert omega_conv(H).order == 27


def test_omega_requires_p_group_tag():
    S3 = build_group("sym(3)")
    with pytest.raises(NotPGroup):
        omega_subgroup(S3, 1)


def test_xu_inequality_heisenberg():
    v = xu_inequality(build_group("heisenberg(3)"), 1)
    assert v.hypothesis == "pass" and v.conclusion == "pass"


def test_xu_inequality_rejects_p_two():
    with pytest.raises(OddPrimeRequired):
        xu_inequality(build_group("dihedral(8)"), 1)


def test_p_central_height_on_direct_product():
    G = build_group("direct_product(quaternion(8), cyclic(3,1))")
    assert not is_p_central_of_height(G, 1, 2)
    assert is_p_central_of_height(G, 2, 2)
    assert is_p_central_of_height(G, 1, 3)


def test_p_central_height_explicit_prime_on_general_group():
    S3 = build_group("sym(3)")
    assert not is_p_central_of_height(S3, 1, 2)
    assert not is_p_central_of_height(S3, 3, 2)
    # no order-3 element is central either
    assert not is_p_central_of_height(S3, 2, 3)


def test_p_central_height_needs_a_prime():
    S3 = build_group("sym(3)")
    with pytest.raises(NotPGroup):
        is_p_central_of_height(S3, 1)


def test_heisenberg_heights():
    H = build_group("heisenberg(3)")
    assert not is_p_central_of_height(H, 1, 3)  # exponent 3, center order 3
    assert is_p_central_of_height(H, 2, 3)
