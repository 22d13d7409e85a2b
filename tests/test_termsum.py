"""The canonical form shared by the five finite-sum types (TermSum)."""

from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from convbialg.coeffs import CoeffFn, Polynomial, Q
from convbialg.conv import ConvElement, ConvTensor
from convbialg.dist import TransvDist
from convbialg.errors import ParentMismatch
from convbialg.models import pair_model
from convbialg.uea import TensorElement, TermSum, UEAElement

PAIR = pair_model()
A = PAIR.algebroid
BIDS = [PAIR.lookup(name).bid for name in ("M", "shift", "dbl", "half")]


def fn(*coeffs):
    """The coefficient c0 + c1 t + ... on the line."""
    return CoeffFn(A.chart, Polynomial(1, {(k,): Q(c) for k, c in enumerate(coeffs)}))


def uea(*coeffs):
    return UEAElement(A, {(1,): fn(*coeffs)})


def tensor(*coeffs):
    return TensorElement(A, {((1,), (0,)): fn(*coeffs)})


# (constructor, four distinct keys, value of the given coefficients) per type
TYPES = {
    "uea": (lambda pairs: UEAElement(A, pairs), [(0,), (1,), (2,), (3,)], fn),
    "tensor": (lambda pairs: TensorElement(A, pairs),
               [((0,), (1,)), ((1,), (0,)), ((1,), (1,)), ((2,), (0,))], fn),
    "conv": (lambda pairs: ConvElement(PAIR, pairs), BIDS, uea),
    "conv-tensor": (lambda pairs: ConvTensor(PAIR, pairs),
                    [(BIDS[0], BIDS[1]), (BIDS[1], BIDS[0]), (BIDS[2], BIDS[2]),
                     (BIDS[3], BIDS[1])], tensor),
    "dist": (lambda pairs: TransvDist(PAIR, pairs), BIDS, uea),
}


@pytest.mark.parametrize("name", sorted(TYPES))
def test_merge_rule(name):
    make, (k0, k1, k2, k3), val = TYPES[name]
    # k1 cancels and comes back, k0 repeats, k3 cancels for good
    pairs = [(k1, val(1, 2)), (k0, val(3)), (k1, val(-1, -2)), (k2, val(0, 1)),
             (k0, val(4)), (k3, val(1)), (k3, val(-1)), (k1, val(5))]
    made = make(pairs)
    singles = [make([p]) for p in pairs]
    assert made.terms == reduce(add, singles).terms
    assert made.terms == {k0: val(7), k1: val(5), k2: val(0, 1)}
    assert list(made.terms) == [k1, k0, k2]  # the order keys first appear
    assert make([]).plus(singles) == made
    assert make(dict(pairs[:2])) == make(pairs[:2])


def test_equal_sums_hash_equal():
    # equal algebras built twice: the sums are equal, so their hashes must be
    u1, u2 = (UEAElement.one(pair_model().algebroid) for _ in range(2))
    assert u1 == u2
    assert hash(u1) == hash(u2)


@pytest.mark.parametrize("cls", [ConvElement, TransvDist])
def test_sums_over_different_models_raise(cls):
    m1, m2 = pair_model(), pair_model()
    a1 = cls.single(m1, m1.lookup("shift"), UEAElement.one(m1.algebroid))
    a2 = cls.single(m2, m2.lookup("shift"), UEAElement.one(m2.algebroid))
    with pytest.raises(ParentMismatch):
        a1 + a2
    with pytest.raises(ParentMismatch):
        a1 - a2


COEFFS = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(lambda cs: fn(*cs))
UEAS = st.lists(st.tuples(st.integers(0, 2).map(lambda k: (k,)), COEFFS), max_size=4).map(
    lambda pairs: UEAElement(A, pairs))
CONVS = st.lists(st.tuples(st.sampled_from(BIDS), UEAS), max_size=3).map(
    lambda pairs: ConvElement(PAIR, pairs))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(UEAS, UEAS, UEAS), st.tuples(CONVS, CONVS, CONVS)))
def test_addition_is_associative_and_commutative(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x - x).is_zero


def two_pass_merge(pairs):
    """The merge rule in two passes: add every pair, then drop the keys
    whose values cancelled."""
    out = {}
    for k, v in pairs:
        if v.is_zero:
            continue
        prev = out.get(k)
        out[k] = v if prev is None else prev + v
    return {k: v for k, v in out.items() if not v.is_zero}


# few keys and few values, with opposites, so that keys repeat and cancel
MERGE_VALUES = st.sampled_from([fn(1), fn(-1), fn(0, 1), fn(0, -1), fn(2, 1), fn(0)])
MERGE_PAIRS = st.lists(st.tuples(st.integers(0, 3), MERGE_VALUES), max_size=10)


@settings(max_examples=200, deadline=None)
@given(st.one_of(MERGE_PAIRS,
                 MERGE_PAIRS.map(lambda pairs: [(k, UEAElement(A, {(1,): v})) for k, v in pairs])))
def test_merge_matches_the_two_pass_merge(pairs):
    assert list(TermSum.merge(pairs).items()) == list(two_pass_merge(pairs).items())


def test_merge_keeps_the_place_of_a_key_that_cancels_and_comes_back():
    pairs = [(0, fn(1)), (1, fn(2)), (0, fn(-1)), (2, fn(3)), (0, fn(0, 1))]
    merged = TermSum.merge(pairs)
    assert list(merged.items()) == list(two_pass_merge(pairs).items())
    assert list(merged) == [0, 1, 2]
