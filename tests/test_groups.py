import numpy as np
import pytest
from fractions import Fraction
from math import lcm

from qdouble.groups import (
    Group,
    GroupError,
    Phase,
    make_group,
    parse_group_spec,
)


def test_phase_arithmetic_is_exact():
    p = Phase.of(1, 3)
    q = Phase.of(5, 6)
    assert (p * q).exponent == Fraction(1, 6)
    assert (p / q).exponent == Fraction(1, 2)
    assert (p ** 3).is_one
    assert p.conjugate().exponent == Fraction(2, 3)
    assert Phase.one().to_complex() == 1.0


def test_phase_matches_float_exponential():
    for num, den in [(0, 1), (1, 2), (1, 3), (2, 5), (7, 12)]:
        p = Phase.of(num, den)
        assert p.to_complex() == pytest.approx(np.exp(2j * np.pi * num / den), abs=1e-15)


def test_phase_exponent_rendering():
    assert Phase.of(3, 4).exponent_str() == "3/4"
    assert Phase.of(2, 4).exponent_str() == "1/2"
    assert Phase.one().exponent_str() == "0"
    assert Phase.of(-1, 4).exponent_str() == "3/4"


def test_group_sizes_and_identity():
    g = make_group([2, 4])
    assert g.size == 8
    assert g.rank == 2
    assert g.identity().is_identity
    assert str(g) == "Z2xZ4"


def test_make_group_drops_trivial_factors():
    assert make_group([1, 3, 1]).orders == (3,)
    with pytest.raises(GroupError):
        make_group([1, 1])
    with pytest.raises(GroupError):
        make_group([])


def test_element_indexing_roundtrip():
    g = make_group([3, 4])
    for idx in range(g.size):
        el = g.element_from_index(idx)
        assert el.index == idx
    # little-endian packing: first factor is the fastest digit
    assert g.element((1, 0)).index == 1
    assert g.element((0, 1)).index == 3


def test_elements_enumeration_matches_index_order():
    g = make_group([2, 3])
    els = g.elements()
    assert len(els) == 6
    assert [e.index for e in els] == list(range(6))
    assert len({e.digits for e in els}) == 6


def test_group_law_and_inverses():
    g = make_group([2, 4])
    for a in g.elements():
        assert (a * a.inverse()).is_identity
        for b in g.elements():
            ab = a * b
            assert ab.digits == tuple((x + y) % n for x, y, n in zip(a.digits, b.digits, g.orders))


def test_mixed_group_operands_rejected():
    a = make_group([2]).identity()
    b = make_group([3]).identity()
    with pytest.raises(GroupError):
        a * b


def test_character_evaluation_z4():
    g = make_group([4])
    chi = g.character((1,))
    vals = [chi(x).to_complex() for x in g.elements()]
    assert vals == pytest.approx([1, 1j, -1, -1j], abs=1e-15)


def test_characters_are_homomorphisms():
    g = make_group([2, 3])
    for chi in g.characters():
        for a in g.elements():
            for b in g.elements():
                assert chi(a * b).exponent == (chi(a) * chi(b)).exponent


def test_character_group_structure():
    g = make_group([2, 4])
    chis = g.characters()
    assert len(chis) == 8
    for chi in chis:
        assert (chi * chi.inverse()).is_trivial
    triv = g.trivial_character()
    assert all(triv(a).is_one for a in g.elements())


def test_character_orthogonality_exact_and_float():
    g = make_group([2, 3])
    for chi in g.characters():
        for sig in g.characters():
            exact = g.char_inner(chi, sig)
            brute = sum(
                (chi(a).conjugate() * sig(a)).to_complex() for a in g.elements()
            ) / g.size
            expected = 1.0 if chi.digits == sig.digits else 0.0
            assert exact == expected
            assert brute == pytest.approx(expected, abs=1e-14)


def test_character_completeness_pointwise():
    # sum_chi chi(g) = |G| * [g == e]
    g = make_group([3, 2])
    for a in g.elements():
        total = sum(chi(a).to_complex() for chi in g.characters())
        expected = g.size if a.is_identity else 0.0
        assert total == pytest.approx(expected, abs=1e-13)


def test_mul_and_inv_tables_agree_with_group_law():
    g = make_group([2, 4])
    mul = g.mul_table()
    inv = g.inv_table()
    assert mul.shape == (8, 8)
    assert mul.dtype == np.uint8
    for a in g.elements():
        assert inv[a.index] == a.inverse().index
        for b in g.elements():
            assert mul[a.index, b.index] == (a * b).index


@pytest.mark.parametrize("orders", [[2], [3], [4], [8], [2, 4]])
def test_pow_table_matches_the_element_loop(orders):
    g = make_group(orders)
    table = g.pow_table()
    assert table.shape == (lcm(*orders), g.size) and table.dtype == np.uint8
    assert g.pow_table() is table  # cached
    for k in range(lcm(*orders)):
        for a in g.elements():
            power = g.element(tuple((d * k) % n for d, n in zip(a.digits, orders)))
            assert table[k, a.index] == power.index


CHARACTER_TABLE_GROUPS = ([2, 2], [3], [6], [2, 4], [3, 3])


def test_char_values_table():
    for orders in CHARACTER_TABLE_GROUPS:
        g = make_group(orders)
        for chi in g.characters():
            vals = g.char_values(chi)
            assert vals.tolist() == [chi(a).to_complex() for a in g.elements()], chi
            # the packed index reads the same row
            assert g.char_values(chi.index).tolist() == vals.tolist()
            assert not vals.flags.writeable


@pytest.mark.parametrize("orders", CHARACTER_TABLE_GROUPS)
def test_character_evaluation_is_the_exact_sum_of_digit_products(orders):
    g = make_group(orders)
    for chi in g.characters():
        for a in g.elements():
            q = sum(Fraction(k * d, n) for k, d, n in zip(chi.digits, a.digits, orders))
            assert chi(a).exponent == q % 1, (chi, a)


@pytest.mark.parametrize("orders", CHARACTER_TABLE_GROUPS)
def test_characters_multiply_and_invert_through_the_element_tables(orders):
    g = make_group(orders)
    mul, inv = g.mul_table(), g.inv_table()
    for chi in g.characters():
        assert inv[chi.index] == chi.inverse().index
        for xi in g.characters():
            assert mul[chi.index, xi.index] == (chi * xi).index


def test_quarter_turn_character_values_exact():
    # no float dust on 1, i, -1, -i
    assert Phase.of(1, 2).to_complex() == -1
    for orders in ([2], [4], [2, 4]):
        g = make_group(orders)
        for chi in g.characters():
            assert set(g.char_values(chi).tolist()) <= {1, 1j, -1, -1j}, (orders, chi)


def test_parse_group_spec():
    assert parse_group_spec("Z2").orders == (2,)
    assert parse_group_spec("z3").orders == (3,)
    assert parse_group_spec("Z2xZ4").orders == (2, 4)
    assert parse_group_spec(" z2Xz2 ").orders == (2, 2)
    for bad in ["", "Z", "Z0", "2", "Z2x", "xZ2", "Z2xx Z3", "S3"]:
        with pytest.raises(GroupError):
            parse_group_spec(bad)


def test_group_order_cap():
    with pytest.raises(GroupError):
        Group((256,))
    with pytest.raises(GroupError):
        Group((0,))
