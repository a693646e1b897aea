import random
from fractions import Fraction
from itertools import combinations

import pytest

from lefdet.mpoly import MultiPoly
from lefdet.partitions import Partition, enumerate_in_rectangle
from lefdet.symfunc import (
    HomogPair,
    e_matrix,
    elementary,
    elementary_homog,
    schur,
    schur_bialternant,
    schur_homog,
    schur_jacobi_trudi,
    schur_tableaux,
)


# --- oracles -----------------------------------------------------------------


def elementary_by_subsets(k, values):
    values = tuple(values)
    if k < 0 or k > len(values):
        return 0
    total = 0
    for S in combinations(range(len(values)), k):
        prod = 1
        for i in S:
            prod *= values[i]
        total += prod
    return total


def homog_by_subsets(k, pair):
    n = len(pair)
    if k < 0 or k > n:
        return 0
    total = 0
    for S in combinations(range(n), k):
        prod = 1
        for i in range(n):
            prod *= pair.a[i] if i in S else pair.b[i]
        total += prod
    return total


def small_partitions(max_cells, max_width=4, max_height=4):
    seen = []
    for p in enumerate_in_rectangle(max_width, max_height):
        if p.weight <= max_cells:
            seen.append(p)
    return seen


def rng_values(rng, n, distinct=False, nonzero=False):
    values = []
    while len(values) < n:
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if nonzero and v == 0:
            continue
        if distinct and v in values:
            continue
        values.append(v)
    return tuple(values)


# --- elementary symmetric ----------------------------------------------------


def test_elementary_examples():
    assert elementary(2, (1, 2, 3)) == 11
    assert elementary(0, (5, 5, 5)) == 1
    assert elementary(0, ()) == 1
    assert elementary(3, (1, 2)) == 0
    assert elementary(-1, (1, 2)) == 0


def test_elementary_matches_subset_oracle():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(0, 6)
        values = rng_values(rng, n)
        for k in range(-1, n + 2):
            assert elementary(k, values) == elementary_by_subsets(k, values)


def test_elementary_homog_examples():
    pair = HomogPair((1, 3), (2, 1))
    assert elementary_homog(1, pair) == 7  # a1*b2 + a2*b1
    assert elementary_homog(0, HomogPair((5,), (3,))) == 3
    assert elementary_homog(2, HomogPair((1,), (1,))) == 0


def test_elementary_homog_with_unit_denominators_is_elementary():
    values = (Fraction(2), Fraction(-3), Fraction(1, 2))
    pair = HomogPair(values, (1, 1, 1))
    for k in range(len(values) + 1):
        assert elementary_homog(k, pair) == elementary(k, values)


def test_elementary_homog_matches_subset_oracle():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(0, 5)
        pair = HomogPair(rng_values(rng, n), rng_values(rng, n))
        for k in range(-1, n + 2):
            assert elementary_homog(k, pair) == homog_by_subsets(k, pair)


def test_homog_pair_length_mismatch():
    with pytest.raises(ValueError):
        HomogPair((1, 2), (1,))


# --- Schur evaluators --------------------------------------------------------


def test_jacobi_trudi_examples():
    assert schur_jacobi_trudi(Partition([2, 1]), (2, 1)) == 6
    assert schur_jacobi_trudi(Partition(), (7, 8, 9)) == 1
    # input (1,1) has conjugate (2): s_(2)(1,1) = 3
    assert schur_jacobi_trudi(Partition([1, 1]), (1, 1)) == 3


def test_bialternant_examples():
    assert schur_bialternant(Partition([2, 1]), (2, 1)) == 6
    assert schur_bialternant(Partition([1]), (5, 7)) == 12
    # int values give int alternants; their ratio is a Fraction, never a float
    for lam, values, expected in (([2, 1], (1, 2, 3), 60), ([1], (1, 2), 3), ([], (), 1)):
        value = schur_bialternant(Partition(lam), values)
        assert type(value) is Fraction and value == expected
    with pytest.raises(ValueError, match="non-distinct"):
        schur_bialternant(Partition([2, 2]), (1, 1))
    with pytest.raises(ValueError, match="parts"):
        schur_bialternant(Partition([1, 1, 1]), (1, 2))


def test_tableaux_examples():
    x = (Fraction(3), Fraction(5))
    assert schur_tableaux(Partition([1]), x) == 8  # x1 + x2
    assert schur_tableaux(Partition([2, 1]), (1, 1, 1)) == 8
    assert schur_tableaux(Partition([3]), (1,)) == 1
    with pytest.raises(ValueError, match="guard"):
        schur_tableaux(Partition([11]), (1,))
    with pytest.raises(ValueError, match="guard"):
        schur_tableaux(Partition([1]), (1,) * 6)


def test_schur_homog_examples():
    a, b = Fraction(4), Fraction(9)
    assert schur_homog(Partition([1, 1]), HomogPair((a,), (b,))) == a * a
    assert schur_homog(Partition(), HomogPair((), ())) == 1
    assert schur_homog(Partition([1]), HomogPair((1, 3), (2, 1))) == 7


@pytest.mark.parametrize(
    "lam, pair, kind",
    [
        ([1], HomogPair((1, 3), (2, 1)), int),
        ([2, 1], HomogPair((1, -3, 2), (2, 1, 5)), int),
        ([], HomogPair((1,), (2,)), int),
        ([2, 1], HomogPair((1, -3, 2), (2, Fraction(1), 5)), Fraction),
        ([1, 1], HomogPair((Fraction(4),), (Fraction(9),)), Fraction),
    ],
)
def test_schur_homog_type_follows_the_pair(lam, pair, kind):
    # int coefficients give an int Jacobi-Trudi matrix, so an int value
    assert type(schur_homog(Partition(lam), pair, rows=3)) is kind


def test_table_ends_are_the_products_with_their_types():
    table = HomogPair((1,), (Fraction(1, 2),)).table()
    assert table == [Fraction(1, 2), 1] and list(map(type, table)) == [Fraction, int]
    # a 1x1 Jacobi-Trudi matrix is its one entry: here E_3, the product of
    # the all-int a's, so an int although one b is a Fraction
    one_entry = schur_homog(Partition([3]), HomogPair((1, -3, 2), (2, Fraction(1), 5)), rows=1)
    assert one_entry == -6 and type(one_entry) is int
    x, y, z, w = MultiPoly.variables(4)
    for pair, kind in (
        (HomogPair((1, -3), (2, 5)), int),
        (HomogPair((Fraction(1), Fraction(-3)), (Fraction(2), Fraction(5))), Fraction),
        (HomogPair((x, y), (z, w)), MultiPoly),
    ):
        table = pair.table()
        assert table[0] == pair.b[0] * pair.b[1] and table[-1] == pair.a[0] * pair.a[1]
        assert all(type(entry) is kind for entry in table), (pair, table)


def test_schur_homog_row_padding_carries_denominator_product():
    pair = HomogPair((Fraction(2), Fraction(3)), (Fraction(5), Fraction(7)))
    lam = Partition([2])
    base = schur_homog(lam, pair)
    assert schur_homog(lam, pair, rows=3) == base * (5 * 7) ** 2
    with pytest.raises(ValueError):
        schur_homog(Partition([1, 1]), pair, rows=1)


def test_e_matrix_reads_ascending_and_descending_rows():
    table = [1, 5, 7, 2]
    m = e_matrix(table, [range(0, 3), range(3, 0, -1), range(1, 4)])
    assert (m.rows, m.cols) == (3, 3)
    assert m.entries == (1, 5, 7, 2, 7, 5, 5, 7, 2)


def test_e_matrix_reads_zero_off_the_table():
    table = [Fraction(1, 2), 3]
    m = e_matrix(table, [range(-2, 2), range(1, -3, -1), range(-4, 0), range(2, 6)])
    assert m.entries == (0, 0, Fraction(1, 2), 3, 3, Fraction(1, 2), 0, 0) + (0,) * 8


def test_e_matrix_of_no_rows_is_the_empty_matrix():
    m = e_matrix([1, 2, 3], [])
    assert (m.rows, m.cols, m.entries) == (0, 0, ())
    with pytest.raises(ValueError, match="ragged"):
        e_matrix([1, 2, 3], [range(2), range(3)])


@pytest.mark.parametrize(
    "rows",
    [
        [range(3), range(2)],
        [range(2), range(2), range(1, 4)],
        [[0, 1], [2]],
        [range(0), range(1)],
    ],
)
def test_e_matrix_rejects_ragged_rows_wherever_they_differ(rows):
    with pytest.raises(ValueError, match="ragged"):
        e_matrix([1, 2, 3], rows)


def test_e_matrix_takes_any_sized_rows_and_keeps_their_order():
    table = [Fraction(1, 3), 4, 9]
    m = e_matrix(table, ([2, -1, 0], (5, 1, 2)))
    assert (m.rows, m.cols) == (2, 3)
    assert m.entries == (9, 0, Fraction(1, 3), 0, 4, 9)
    empty_rows = e_matrix(table, [range(0), range(0)])
    assert (empty_rows.rows, empty_rows.cols, empty_rows.entries) == (2, 0, ())


def test_empty_variable_list_conventions():
    empty = ()
    assert schur_jacobi_trudi(Partition(), empty) == 1
    assert schur_jacobi_trudi(Partition([2, 1]), empty) == 0
    assert schur_tableaux(Partition([1]), empty) == 0
    assert schur_bialternant(Partition(), empty) == 1


def test_three_way_agreement_small_sweep():
    rng = random.Random(3)
    for lam in small_partitions(8):
        for n in range(5):
            x = rng_values(rng, n, distinct=True)
            jt = schur_jacobi_trudi(lam.conjugate(), x)
            tab = schur_tableaux(lam, x)
            assert jt == tab, (lam, x)
            if len(lam) <= n:
                assert jt == schur_bialternant(lam, x), (lam, x)


def test_tableaux_is_the_schur_polynomial_over_multipoly():
    # a polynomial identity: every tableau of every shape in the 3x3 box counts
    x = MultiPoly.variables(3)
    for lam in enumerate_in_rectangle(3, 3):
        assert schur_tableaux(lam, x) == schur(lam, x), lam


def test_homogenization_relates_the_two_jacobi_trudi_forms():
    rng = random.Random(4)
    for lam in small_partitions(8):
        for n in range(1, 5):
            a = rng_values(rng, n)
            b = rng_values(rng, n, nonzero=True)
            prod_b = 1
            for v in b:
                prod_b *= v
            ratios = tuple(ai / bi for ai, bi in zip(a, b))
            lhs = schur_homog(lam, HomogPair(a, b))
            assert lhs == prod_b ** len(lam) * schur_jacobi_trudi(lam, ratios)


def test_permutation_symmetry():
    rng = random.Random(5)
    lam = Partition([2, 1])
    x = rng_values(rng, 4)
    reference = schur_jacobi_trudi(lam, x)
    e_ref = elementary(2, x)
    for _ in range(6):
        perm = list(x)
        rng.shuffle(perm)
        assert schur_jacobi_trudi(lam, perm) == reference
        assert elementary(2, perm) == e_ref
    pair = HomogPair(x, rng_values(rng, 4))
    h_ref = elementary_homog(2, pair)
    order = list(range(4))
    for _ in range(6):
        rng.shuffle(order)
        shuffled = HomogPair(
            tuple(pair.a[i] for i in order), tuple(pair.b[i] for i in order)
        )
        assert elementary_homog(2, shuffled) == h_ref


def test_homogeneity_in_the_values():
    rng = random.Random(6)
    for lam in small_partitions(6):
        x = rng_values(rng, 3)
        t = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = tuple(t * v for v in x)
        assert schur_jacobi_trudi(lam, scaled) == t**lam.weight * schur_jacobi_trudi(lam, x)


def test_vanishing_when_conjugate_needs_more_variables():
    # conjugate of lam has lam_1 parts; with fewer values the Schur value is 0
    for lam in (Partition([3]), Partition([4, 2]), Partition([5, 1])):
        nvals = lam.parts[0] - 1
        assert schur_jacobi_trudi(lam, tuple(range(1, nvals + 1))) == 0


def test_normalized_wrapper_is_conjugate_of_jt():
    rng = random.Random(7)
    for lam in small_partitions(6):
        x = rng_values(rng, 3, distinct=True)
        assert schur(lam, x) == schur_jacobi_trudi(lam.conjugate(), x)
        if len(lam) <= 3:
            assert schur(lam, x) == schur_bialternant(lam, x)
