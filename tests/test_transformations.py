import pytest
from hypothesis import given, strategies as st

from atomata import (
    StateSet,
    Transformation,
    apply_to_set,
    coimage,
    compose,
    decompose_singular_perm,
    identity,
    image,
    is_permutation,
    is_preimage,
    make_constant,
    make_cycle,
    make_singular,
    make_transposition,
    preimage_of_set,
)
from atomata.errors import DegreeCapError, DegreeMismatchError
from atomata.stateset import parse_subset_label
from atomata.transformations import all_transformations, inverse, notation


def transformations(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
            Transformation
        )
    )


def test_compose_pointwise():
    s = make_cycle(3, (1, 2))
    t = make_cycle(3, (0, 1))
    assert compose(s, t).map == (2, 0, 1)
    assert notation(compose(s, t)) == "(0,2,1)"


def test_compose_identity_and_constant():
    t = Transformation((2, 0, 1))
    assert compose(identity(3), t) == t
    assert compose(t, identity(3)) == t
    const = make_constant(3, 1)
    assert compose(const, t) == const


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        compose(identity(3), identity(4))


@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(*[
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(Transformation)
        for _ in range(3)
    ])
))
def test_compose_associative(triple):
    a, b, c = triple
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_constructors_match_notation():
    assert make_singular(3, 2, 0).map == (0, 1, 0)
    assert make_constant(3, 1).map == (1, 1, 1)
    assert make_transposition(3, 0, 1).map == (1, 0, 2)
    assert make_cycle(4, (0, 1, 2)).map == (1, 2, 0, 3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_cycle(3, (0, 0))
    with pytest.raises(ValueError):
        make_cycle(3, (0,))
    with pytest.raises(ValueError):
        make_cycle(3, (0, 5))
    with pytest.raises(ValueError):
        make_singular(3, 0, 7)
    with pytest.raises(DegreeCapError):
        identity(99)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Transformation([]), ValueError, "transformation degree must be positive"),
        (lambda: Transformation([0, 3]), ValueError, "entry 3 out of range for degree 2"),
        (
            lambda: make_transposition(3, 1, 1),
            ValueError,
            "a transposition swaps two distinct elements",
        ),
        (lambda: make_constant(3, 5), ValueError, "index 5 out of range for degree 3"),
        (
            lambda: StateSet.from_bits(3, 8),
            ValueError,
            "bitmask 0x8 out of range for universe of size 3",
        ),
        (
            lambda: apply_to_set(identity(3), StateSet(4, [0])),
            DegreeMismatchError,
            "degree mismatch: 3 vs 4",
        ),
        (
            lambda: preimage_of_set(identity(3), StateSet(4, [0])),
            DegreeMismatchError,
            "degree mismatch: 3 vs 4",
        ),
    ],
    ids=["empty", "entry", "transposition", "constant", "from-bits", "apply", "preimage"],
)
def test_bad_arguments_are_refused(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_image_coimage():
    d = make_constant(3, 1)
    assert image(d) == StateSet(3, [1])
    assert coimage(d) == StateSet(3, [0, 2])
    assert coimage(make_transposition(3, 0, 2)) == StateSet.empty(3)


def test_apply_to_set():
    c = make_singular(3, 2, 0)
    assert apply_to_set(c, StateSet(3, [1, 2])) == StateSet(3, [0, 1])
    assert apply_to_set(c, StateSet.empty(3)) == StateSet.empty(3)


def test_preimage_of_set():
    d = make_constant(3, 1)
    assert preimage_of_set(d, StateSet(3, [1])) == StateSet.full(3)
    t = identity(4)
    s = StateSet(4, [0, 3])
    assert preimage_of_set(t, s) == s


def test_is_preimage_constant():
    d = make_constant(3, 1)
    assert is_preimage(d, StateSet.full(3))
    assert is_preimage(d, StateSet.empty(3))
    for bits in range(1, 7):  # non-empty proper subsets
        assert not is_preimage(d, StateSet.from_bits(3, bits))


@given(transformations(5), st.integers(0, 31))
def test_preimage_adjunction(t, bits):
    s = StateSet.from_bits(t.n, bits & ((1 << t.n) - 1))
    fwd = apply_to_set(t, preimage_of_set(t, s))
    assert fwd.issubset(s)
    assert (fwd == s) == s.issubset(image(t))


def test_is_permutation():
    assert is_permutation(make_transposition(3, 0, 1))
    assert not is_permutation(make_singular(3, 2, 0))
    assert not is_permutation(make_constant(3, 1))


@given(transformations(6))
def test_coimage_empty_iff_permutation(t):
    assert (coimage(t) == StateSet.empty(t.n)) == is_permutation(t)


def test_decompose_examples():
    alpha, pi = decompose_singular_perm(make_singular(3, 2, 0))
    assert alpha == make_singular(3, 2, 0)
    assert pi == identity(3)

    t = Transformation((1, 0, 0))
    alpha, pi = decompose_singular_perm(t)
    assert alpha == make_singular(3, 2, 0)
    assert pi == make_transposition(3, 0, 1)
    assert compose(alpha, pi) == t

    with pytest.raises(ValueError):
        decompose_singular_perm(make_constant(3, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_decompose_exhaustive(n):
    for t in all_transformations(n):
        if t.rank() != n - 1:
            continue
        alpha, pi = decompose_singular_perm(t)
        assert pi.is_permutation()
        assert not alpha.is_permutation() and alpha.rank() == n - 1
        moved = [q for q in range(n) if alpha.map[q] != q]
        assert len(moved) == 1  # singular
        assert compose(alpha, pi) == t


def test_inverse():
    t = make_cycle(4, (0, 1, 2, 3))
    assert compose(inverse(t), t) == identity(4)
    with pytest.raises(ValueError):
        inverse(make_constant(3, 0))


def test_notation():
    assert notation(make_singular(4, 2, 0)) == "(2->0)"
    assert notation(make_constant(3, 1)) == "(Q->1)"
    assert notation(make_cycle(4, (0, 1, 2, 3))) == "(0,1,2,3)"
    assert notation(make_transposition(3, 1, 2)) == "(1,2)"
    assert notation(identity(3)) == "[0 1 2]"
    assert notation(identity(1)) == "(Q->0)"
    assert notation(Transformation((1, 0, 0))) == "[1 0 0]"


def test_all_transformations_count():
    assert len(list(all_transformations(3))) == 27
    assert len(set(all_transformations(3))) == 27


def test_stateset_algebra():
    a = StateSet(4, [0, 1])
    b = StateSet(4, [1, 2])
    assert (a | b) == StateSet(4, [0, 1, 2])
    assert (a & b) == StateSet(4, [1])
    assert (a - b) == StateSet(4, [0])
    assert a.complement() == StateSet(4, [2, 3])
    assert a.issubset(a | b)
    assert sorted(a) == [0, 1]
    assert len(a) == 2 and 1 in a and 3 not in a
    with pytest.raises(DegreeMismatchError):
        a | StateSet(3, [0])


def test_stateset_labels():
    assert StateSet(3, [0, 1, 2]).label() == "012"
    assert StateSet.empty(3).label() == "Φ"
    assert StateSet(12, [0, 11]).label() == "[0,11]"


@pytest.mark.parametrize(
    "text, members",
    [
        *((text, [0, 1]) for text in ["01", "{0,1}", "[0,1]", " { 0 , 1 } ", "[1,0]"]),
        *((text, []) for text in ["phi", "Phi", "PHI", "Φ", "∅", "", "{}", "[]"]),
    ],
)
def test_parse_subset_label_forms(text, members):
    assert parse_subset_label(text, 3) == StateSet(3, members)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0a", "cannot parse state-set label '0a'"),
        ("-1", "cannot parse state-set label '-1'"),
        ("010", "repeated state in label '010'"),
        ("03", "state 3 out of range for universe of size 3"),
        ("{0,5}", "state 5 out of range for universe of size 3"),
        ("[0,0]", "repeated state in label '[0,0]'"),
        ("[0,1", "cannot parse state-set label '[0,1'"),
        ("{0,,1}", "cannot parse state-set label '{0,,1}'"),
        ("[0,1}", "cannot parse state-set label '[0,1}'"),
        ("{0,x}", "cannot parse state-set label '{0,x}'"),
    ],
)
def test_parse_subset_label_errors(text, message):
    with pytest.raises(ValueError) as err:
        parse_subset_label(text, 3)
    assert str(err.value) == message
