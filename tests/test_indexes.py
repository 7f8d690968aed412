from hypothesis import given
from hypothesis import strategies as st
import pytest

from mvcalc import indexes
from mvcalc.indexes import (
    MAX_DIM,
    AlgebraError,
    check_canonical,
    complement,
    is_canonical,
    merge_signature,
    sort_signature,
    subtract,
)
from mvcalc.verify import transposition_parity

index_lists = st.lists(st.integers(min_value=0, max_value=MAX_DIM - 1), max_size=10)


@given(index_lists)
def test_sort_signature_matches_transposition_parity(raw):
    assert sort_signature(raw) == transposition_parity(raw)


@given(index_lists)
def test_sort_signature_output_is_canonical(raw):
    sign, sorted_indices = sort_signature(raw)
    if sign == 0:
        assert sorted_indices == ()
    else:
        assert is_canonical(sorted_indices)
        assert sorted(raw) == list(sorted_indices)


def test_sort_signature_examples():
    assert sort_signature((0, 1, 2)) == (1, (0, 1, 2))
    assert sort_signature((1, 0)) == (-1, (0, 1))
    assert sort_signature((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_signature((0, 0)) == (0, ())
    assert sort_signature(()) == (1, ())


def test_sort_signature_range_checks():
    with pytest.raises(AlgebraError):
        sort_signature((0, 3), dim=2)
    with pytest.raises(AlgebraError):
        sort_signature((-1,))
    with pytest.raises(AlgebraError):
        sort_signature((MAX_DIM,))
    with pytest.raises(AlgebraError):
        sort_signature((True,))


@given(st.sets(st.integers(min_value=0, max_value=9), max_size=8), st.data())
def test_merge_signature_matches_concatenation(pool, data):
    pool = sorted(pool)
    split = data.draw(st.integers(min_value=0, max_value=len(pool)))
    picks = data.draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    left = tuple(i for i, keep in zip(pool, picks) if keep)
    right = tuple(i for i, keep in zip(pool, picks) if not keep)
    assert merge_signature(left, right) == sort_signature(left + right)


def test_merge_signature_on_overlap_is_zero():
    assert merge_signature((0, 2), (2, 3)) == (0, ())


def test_merge_signature_insertion_parity():
    # Inserting a single index in front costs one swap per smaller member.
    for I in ((1, 3, 4), (0, 2), ()):
        for i in range(6):
            if i in I:
                continue
            expected = -1 if sum(1 for j in I if j < i) % 2 else 1
            sign, _ = merge_signature((i,), I)
            assert sign == expected
            back, _ = merge_signature(I, (i,))
            assert back * sign == (-1) ** len(I)


def test_merge_signature_requires_canonical_input():
    with pytest.raises(AlgebraError):
        merge_signature((1, 0), (2,))
    with pytest.raises(AlgebraError):
        merge_signature((0,), (3, 3))


def test_complement():
    assert complement((0, 2), 4) == (1, 3)
    assert complement((), 3) == (0, 1, 2)
    assert complement((0, 1, 2), 3) == ()
    with pytest.raises(AlgebraError):
        complement((0, 5), 4)


def test_subtract_returns_none_when_not_contained():
    assert subtract((0, 1, 3), (1,)) == (0, 3)
    assert subtract((0, 1), (0, 1)) == ()
    assert subtract((0, 1), (2,)) is None
    assert subtract((0, 1), ()) == (0, 1)


def test_check_canonical():
    check_canonical((0, 3, 7))
    with pytest.raises(AlgebraError):
        check_canonical((3, 0))
    with pytest.raises(AlgebraError):
        check_canonical((0, 4), dim=3)


def _table_sizes():
    return tuple(len(table) for table in (indexes._MASK, indexes._BLADE, indexes._ABOVE))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: merge_signature((-1,), ()), id="merge-negative"),
    pytest.param(lambda: merge_signature((40,), (2,)), id="merge-past-max-dim"),
    pytest.param(lambda: merge_signature((0, "a"), ()), id="merge-str-entry"),
    pytest.param(lambda: merge_signature(b"\x00\x01", ()), id="merge-bytes"),
    pytest.param(lambda: complement((0,), 20), id="complement-dim-past-max"),
    pytest.param(lambda: complement((), -1), id="complement-negative-dim"),
    pytest.param(lambda: complement((0,), 2.0), id="complement-float-dim"),
    pytest.param(lambda: complement((0,), True), id="complement-bool-dim"),
    pytest.param(lambda: complement(range(2), 3), id="complement-range"),
    pytest.param(lambda: subtract((0, 20), ()), id="subtract-past-max-dim"),
    pytest.param(lambda: subtract((0,), (-3,)), id="subtract-negative"),
    pytest.param(lambda: subtract({0, 1}, ()), id="subtract-set"),
    pytest.param(lambda: is_canonical((0, "a")), id="is-canonical-str-entry"),
    pytest.param(lambda: is_canonical(b"\x01\x00"), id="is-canonical-bytes"),
    pytest.param(lambda: sort_signature(b"\x01\x00"), id="sort-bytes"),
    pytest.param(lambda: sort_signature(range(2, 0, -1)), id="sort-range"),
    pytest.param(lambda: sort_signature("10"), id="sort-str"),
    pytest.param(lambda: sort_signature((2, "a")), id="sort-str-entry"),
    pytest.param(lambda: sort_signature((1, 0), dim=MAX_DIM + 1), id="sort-dim-past-max"),
    pytest.param(lambda: sort_signature((1, 0), dim=2.0), id="sort-float-dim"),
])
def test_helpers_check_inputs_before_any_table_lookup(call):
    before = _table_sizes()
    with pytest.raises(AlgebraError):
        call()
    assert _table_sizes() == before


def test_helpers_accept_lists_and_the_full_range():
    top = MAX_DIM - 1
    assert merge_signature([top], [0]) == (-1, (0, top))
    assert complement([0], MAX_DIM) == tuple(range(1, MAX_DIM))
    assert complement((), 0) == ()
    assert subtract([0, top], [top]) == (0,)
    assert is_canonical([0, 1]) and not is_canonical([1, 0])
    assert sort_signature([top, 0], dim=MAX_DIM) == (-1, (0, top))
