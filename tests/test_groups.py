"""Group arithmetic: worked examples, axioms, exhaustive small-group checks."""

import itertools
import random
from fractions import Fraction

import pytest

from entsum.dists import Dist
from entsum.errors import IncompatibleGroupError
from entsum.groups import GroupSpec, is_subgroup


def test_add_examples():
    assert GroupSpec([0]).add((3,), (-1,)) == (2,)
    assert GroupSpec([4]).add((3,), (2,)) == (1,)
    assert GroupSpec([2, 0]).add((1, 5), (1, -5)) == (0, 0)


def test_neg_examples():
    assert GroupSpec([4]).neg((1,)) == (3,)
    assert GroupSpec([0]).neg((7,)) == (-7,)
    assert GroupSpec([2]).neg((0,)) == (0,)


def test_is_subgroup_examples():
    assert is_subgroup(GroupSpec([4]), [(0,), (2,)])
    assert not is_subgroup(GroupSpec([4]), [(0,), (1,)])  # 0 - 1 = 3 escapes
    assert is_subgroup(GroupSpec([0]), [(0,)])
    assert not is_subgroup(GroupSpec([4]), [])


def test_dimension_mismatch():
    for g, a, b in [
        (GroupSpec([4]), (1,), (1, 2)),  # second argument too long
        (GroupSpec([4]), (1, 2), (1,)),  # first argument too long
        (GroupSpec([2, 2]), (1,), (1, 0)),
        (GroupSpec([0, 3]), (), (1, 0)),
        (GroupSpec([]), (), (1,)),
        (GroupSpec([]), (0,), ()),
    ]:
        for op in (g.add, g.sub):
            with pytest.raises(IncompatibleGroupError):
                op(a, b)
    with pytest.raises(IncompatibleGroupError):
        GroupSpec([2, 2]).neg((1,))
    with pytest.raises(IncompatibleGroupError):
        GroupSpec([]).neg((1,))
    g0 = GroupSpec([])
    assert g0.add((), ()) == g0.sub((), ()) == g0.neg(()) == g0.zero() == ()


def test_add_associative_commutative_random():
    rng = random.Random(0)
    for moduli in [(0,), (5,), (3, 0), (2, 4, 0)]:
        g = GroupSpec(moduli)
        for _ in range(50):
            a, b, c = (
                g.reduce(tuple(rng.randrange(-9, 10) for _ in moduli))
                for _ in range(3)
            )
            assert g.add(a, b) == g.add(b, a)
            assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
            assert g.neg(g.add(a, b)) == g.add(g.neg(a), g.neg(b))
            assert g.sub(a, b) == g.add(a, g.neg(b)) == g.reduce([x - y for x, y in zip(a, b)])


@pytest.mark.parametrize("moduli", [(2,), (5,), (2, 3), (4, 4), (2, 2, 2, 2)])
def test_exhaustive_group_axioms(moduli):
    g = GroupSpec(moduli)
    els = list(g.elements())
    assert len(els) == g.order() <= 64
    zero = g.zero()
    for a in els:
        assert g.add(a, zero) == a
        assert g.add(a, g.neg(a)) == zero
    # closure and the full addition table form a group of the right order
    sums = {g.add(a, b) for a, b in itertools.product(els, els)}
    assert sums == set(els)


@pytest.mark.parametrize("moduli", [[8.9], ["4"]])
def test_refuses_non_integer_moduli(moduli):
    with pytest.raises(ValueError, match=f"moduli must be integers, got .*{moduli[0]!r}"):
        GroupSpec(moduli)


@pytest.mark.parametrize("coord", [2.7, "3"])
def test_reduce_refuses_non_integer_coordinates(coord):
    # truncating would move an atom: 2.7 and 2.2 both to 2
    for g in (GroupSpec([0]), GroupSpec([4])):
        with pytest.raises(ValueError, match=f"coordinates must be integers, got .*{coord!r}"):
            g.reduce([coord])
        with pytest.raises(ValueError, match=f"coordinates must be integers, got .*{coord!r}"):
            Dist(g, {(coord,): Fraction(1, 2), (2,): Fraction(1, 2)})


def test_torsion_free_flag():
    assert GroupSpec([0, 0]).torsion_free()
    assert not GroupSpec([0, 2]).torsion_free()
    assert GroupSpec([]).torsion_free()


def test_reduction_into_range():
    g = GroupSpec([4, 0])
    assert g.reduce((-1, -1)) == (3, -1)
    assert g.contains((3, -1))
    assert not g.contains((4, 0))
