from math import comb

import pytest
from hypothesis import given, strategies as st

from lefdet.partitions import Partition, enumerate_in_rectangle, rectangle


# --- independent oracles -----------------------------------------------------


def cells(p: Partition) -> set[tuple[int, int]]:
    """Young-diagram cell set {(row, col)}."""
    return {(i, j) for i, part in enumerate(p.parts) for j in range(part)}


def conjugate_by_cells(p: Partition) -> Partition:
    transposed = {(j, i) for i, j in cells(p)}
    heights = {}
    for i, _ in transposed:
        heights[i] = heights.get(i, 0) + 1
    return Partition(heights[i] for i in sorted(heights))


def complement_by_cells(p: Partition, r: int, l: int) -> Partition:
    """Cells NOT in p, rotated 180 degrees inside the r x l box."""
    missing = {(l - 1 - i, r - 1 - j) for i in range(l) for j in range(r) if (i, j) not in cells(p)}
    counts = [0] * l
    for i, _ in missing:
        counts[i] += 1
    return Partition(counts)


@st.composite
def partitions(draw, max_cells=12, max_part=6):
    n_parts = draw(st.integers(min_value=0, max_value=max_cells))
    parts = draw(
        st.lists(st.integers(min_value=0, max_value=max_part), min_size=n_parts, max_size=n_parts)
    )
    parts = sorted(parts, reverse=True)
    while sum(parts) > max_cells and parts:
        parts.pop()
    return Partition(parts)


# --- construction ------------------------------------------------------------


def test_trailing_zeros_trimmed_and_equality_structural():
    assert Partition([3, 1, 0, 0]) == Partition([3, 1])
    assert Partition([]) == Partition([0, 0])
    assert len({Partition([2, 1]), Partition([2, 1, 0])}) == 1


def test_frozen():
    p = Partition([2, 1])
    with pytest.raises(AttributeError):
        p.parts = (3,)
    assert p.parts == (2, 1)


def test_rejects_increasing_and_negative():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, -1])


def test_text_round_trip():
    assert str(Partition([3, 1])) == "[3,1]"
    assert str(Partition()) == "[]"
    assert Partition.from_text("[3,1]") == Partition([3, 1])
    assert Partition.from_text("[]") == Partition()
    with pytest.raises(ValueError):
        Partition.from_text("3,1")


# --- conjugate ---------------------------------------------------------------


def test_padded_fills_with_zeros_up_to_the_length():
    assert Partition((3, 1)).padded(4) == (3, 1, 0, 0)
    assert Partition((3, 1)).padded(2) == (3, 1)
    assert Partition().padded(3) == (0, 0, 0)
    with pytest.raises(ValueError, match=r"cannot pad \[3,1\] to length 1"):
        Partition((3, 1)).padded(1)


def test_conjugate_empty():
    assert Partition().conjugate() == Partition()


def test_conjugate_examples_against_cell_transpose():
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
    assert Partition([3, 1]).conjugate() == conjugate_by_cells(Partition([3, 1]))


def test_conjugate_rectangles():
    assert Partition([2, 2, 2]).conjugate() == Partition([3, 3])
    for r in range(5):
        for l in range(5):
            assert rectangle(r, l).conjugate() == rectangle(l, r)


@given(partitions())
def test_conjugate_involution_and_matches_oracle(p):
    assert p.conjugate().conjugate() == p
    assert p.conjugate() == conjugate_by_cells(p)


# --- complement --------------------------------------------------------------


def test_complement_examples():
    assert Partition([2, 1]).complement(3, 2) == Partition([2, 1])
    assert Partition([2, 1]).complement(3, 2) == complement_by_cells(Partition([2, 1]), 3, 2)
    assert Partition().complement(3, 2) == rectangle(3, 2)
    assert rectangle(3, 2).complement(3, 2) == Partition()


def test_complement_containment_violation():
    with pytest.raises(ValueError):
        Partition([3]).complement(2, 2)
    with pytest.raises(ValueError):
        Partition([1, 1, 1]).complement(2, 2)
    for r, l in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="rectangle sides must be nonnegative"):
            Partition().complement(r, l)


def test_complement_involution_and_weight():
    for r in range(6):
        for l in range(6):
            for p in enumerate_in_rectangle(r, l):
                c = p.complement(r, l)
                assert rectangle(r, l).contains(c)
                assert c.complement(r, l) == p
                assert p.weight + c.weight == r * l
                assert c == complement_by_cells(p, r, l)


# --- containment -------------------------------------------------------------


def test_contains_examples():
    assert Partition([2, 2]).contains(Partition([2, 1]))
    assert not Partition([2, 2]).contains(Partition([3]))
    assert not Partition([2]).contains(Partition([1, 1]))


@given(partitions())
def test_contains_reflexive(p):
    assert p.contains(p)


# --- enumeration -------------------------------------------------------------


def test_enumerate_2x2():
    got = enumerate_in_rectangle(2, 2)
    assert set(got) == {
        Partition(),
        Partition([1]),
        Partition([1, 1]),
        Partition([2]),
        Partition([2, 1]),
        Partition([2, 2]),
    }
    assert len(got) == comb(4, 2)


def test_enumerate_order_descending_lex():
    for r in range(7):
        for l in range(7):
            got = [p.padded(l) for p in enumerate_in_rectangle(r, l)]
            assert got == sorted(got, reverse=True), (r, l)


def test_enumerate_degenerate_boxes():
    assert enumerate_in_rectangle(0, 3) == [Partition()]
    assert enumerate_in_rectangle(4, 0) == [Partition()]
    for r, l in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="rectangle sides must be nonnegative"):
            enumerate_in_rectangle(r, l)


def test_enumerate_counts_binomial():
    for r in range(7):
        for l in range(7):
            got = enumerate_in_rectangle(r, l)
            assert len(got) == comb(r + l, l)
            assert len(set(got)) == len(got)
