"""Finite abelian groups, their characters, and exact unit-phase arithmetic.

A group is a direct product of cyclic factors Z_{n_1} x ... x Z_{n_k}.
Elements and characters are digit vectors that pack into the same indices,
so characters multiply and invert through the element tables.  A character
is evaluated through one exact |G| x |G| table per group: its integer
entry (chi, g) is the k with chi(g) = exp(2*pi*i*k/L), L = lcm(n_1, ...,
n_k), and its complex twin holds those values exactly at 1, i, -1 and -i.
`Character.__call__` reads the integer table into an exact rational `Phase`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

import numpy as np

__all__ = [
    "Phase",
    "Group",
    "GroupElement",
    "Character",
    "GroupError",
    "make_group",
    "parse_group_spec",
]


class GroupError(ValueError):
    """Raised for invalid group constructions or mismatched operands."""


@dataclass(frozen=True)
class Phase:
    """The unit complex number exp(2*pi*i*q) for an exact rational q in [0, 1).

    Multiplication, inversion, and integer powers stay exact; conversion to a
    complex float is the only lossy operation.
    """

    exponent: Fraction

    def __post_init__(self):
        q = self.exponent % 1
        object.__setattr__(self, "exponent", q)

    @staticmethod
    def of(numerator: int, denominator: int) -> "Phase":
        return Phase(Fraction(numerator, denominator))

    @staticmethod
    def one() -> "Phase":
        return Phase(Fraction(0))

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.exponent + other.exponent)

    def __truediv__(self, other: "Phase") -> "Phase":
        return Phase(self.exponent - other.exponent)

    def __pow__(self, k: int) -> "Phase":
        return Phase(self.exponent * k)

    def conjugate(self) -> "Phase":
        return Phase(-self.exponent)

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    def to_complex(self) -> complex:
        """The complex value; exact at quarter turns (1, i, -1, -i)."""
        quarters = 4 * self.exponent
        if quarters.denominator == 1:
            return (1 + 0j, 1j, -1 + 0j, 0 - 1j)[quarters.numerator]
        q = float(self.exponent)
        return complex(np.cos(2 * np.pi * q), np.sin(2 * np.pi * q))

    def exponent_str(self) -> str:
        """Render the exponent as 'p/q' (or '0')."""
        q = self.exponent
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"

    def __str__(self) -> str:
        return f"exp(2*pi*i*{self.exponent_str()})"


@dataclass(frozen=True)
class _Digits:
    """One digit per cyclic factor: elements and characters multiply,
    invert and pack into an index the same way."""

    group: "Group"
    digits: tuple[int, ...]

    def __post_init__(self):
        if len(self.digits) != len(self.group.orders):
            raise GroupError("digit vector length does not match group rank")
        if any(not (0 <= d < n) for d, n in zip(self.digits, self.group.orders)):
            raise GroupError(f"digits {self.digits} out of range for {self.group}")

    def __mul__(self, other):
        self.group.require_same(other.group)
        dig = tuple((a + b) % n for a, b, n in zip(self.digits, other.digits, self.group.orders))
        return type(self)(self.group, dig)

    def inverse(self):
        dig = tuple((-a) % n for a, n in zip(self.digits, self.group.orders))
        return type(self)(self.group, dig)

    @property
    def index(self) -> int:
        """Mixed-radix packing, little-endian in factor order."""
        idx, weight = 0, 1
        for d, n in zip(self.digits, self.group.orders):
            idx += d * weight
            weight *= n
        return idx


class GroupElement(_Digits):
    """An element of a finite abelian group, stored as one digit per factor."""

    @property
    def is_identity(self) -> bool:
        return all(d == 0 for d in self.digits)

    def __repr__(self) -> str:
        return f"g{self.digits}"


class Character(_Digits):
    """A character of a finite abelian group, stored as one digit per factor.

    Evaluation on an element g gives the exact phase
    exp(2*pi*i * sum_j k_j * g_j / n_j).
    """

    def __call__(self, g: GroupElement) -> Phase:
        self.group.require_same(g.group)
        return Phase.of(int(self.group._exponents()[self.index, g.index]), lcm(*self.group.orders))

    def conjugate(self) -> "Character":
        return self.inverse()

    @property
    def is_trivial(self) -> bool:
        return all(d == 0 for d in self.digits)

    def __repr__(self) -> str:
        return f"chi{self.digits}"


@dataclass(frozen=True)
class Group:
    """A finite abelian group given as a direct product of cyclic factors."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders:
            raise GroupError("group needs at least one cyclic factor")
        if any(n < 2 for n in self.orders):
            raise GroupError(f"cyclic factor orders must be >= 2, got {self.orders}")
        if prod(self.orders) > 255:
            raise GroupError("group order above 255 is not supported")

    @property
    def size(self) -> int:
        return prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def spec(self) -> str:
        return "x".join(f"Z{n}" for n in self.orders)

    def require_same(self, other: "Group"):
        if self.orders != other.orders:
            raise GroupError(f"mixed groups {self} and {other}")

    def identity(self) -> GroupElement:
        return GroupElement(self, (0,) * self.rank)

    def trivial_character(self) -> Character:
        return Character(self, (0,) * self.rank)

    def element(self, digits) -> GroupElement:
        return GroupElement(self, tuple(int(d) for d in digits))

    def character(self, digits) -> Character:
        return Character(self, tuple(int(d) for d in digits))

    def _unpack(self, idx: int, what: str) -> tuple[int, ...]:
        if not 0 <= idx < self.size:
            raise GroupError(f"{what} index {idx} out of range")
        dig = []
        for n in self.orders:
            dig.append(idx % n)
            idx //= n
        return tuple(dig)

    def element_from_index(self, idx: int) -> GroupElement:
        return GroupElement(self, self._unpack(idx, "element"))

    def character_from_index(self, idx: int) -> Character:
        return Character(self, self._unpack(idx, "character"))

    def elements(self) -> list[GroupElement]:
        """All elements, in packed-index order (first factor fastest)."""
        return [self.element_from_index(i) for i in range(self.size)]

    def characters(self) -> list[Character]:
        """All characters, in packed-index order (first factor fastest)."""
        return [self.character_from_index(i) for i in range(self.size)]

    def char_inner(self, chi: Character, sigma: Character) -> complex:
        """Normalized inner product (1/|G|) sum_g conj(chi(g)) sigma(g).

        Character values at a fixed chi != sigma sweep a nontrivial cyclic
        subgroup of the unit circle uniformly, so the sum telescopes to zero
        exactly; the inner product is the exact Kronecker delta.
        """
        self.require_same(chi.group)
        self.require_same(sigma.group)
        return complex(1.0) if chi.digits == sigma.digits else complex(0.0)

    # ---- integer tables used by the vectorized operator engine ----

    def mul_table(self) -> np.ndarray:
        """|G| x |G| uint8 table of products on packed element indices."""
        return _mul_table(self.orders)

    def inv_table(self) -> np.ndarray:
        return _inv_table(self.orders)

    def pow_table(self) -> np.ndarray:
        """lcm(orders) x |G| uint8 table: row k holds g^k on packed indices."""
        return _pow_table(self.orders)

    def char_values(self, chi: Character | int) -> np.ndarray:
        """Complex values of a character, or of the character with that packed
        index, on all packed element indices."""
        return _char_table(self.orders)[chi.index if isinstance(chi, Character) else chi]

    def _exponents(self) -> np.ndarray:
        """|G| x |G| table: entry (chi, g) is the k in [0, L) with
        chi(g) = exp(2*pi*i*k/L), L = lcm(orders), on packed indices."""
        return _char_exponents(self.orders)

    def __str__(self) -> str:
        return self.spec


@lru_cache(maxsize=None)
def _mul_table(orders: tuple[int, ...]) -> np.ndarray:
    g = Group(orders)
    size = g.size
    table = np.zeros((size, size), dtype=np.uint8)
    els = [g.element_from_index(i) for i in range(size)]
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            table[i, j] = (a * b).index
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _inv_table(orders: tuple[int, ...]) -> np.ndarray:
    g = Group(orders)
    table = np.array([g.element_from_index(i).inverse().index for i in range(g.size)], dtype=np.uint8)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _pow_table(orders: tuple[int, ...]) -> np.ndarray:
    mul = _mul_table(orders)
    table = np.zeros((lcm(*orders), len(mul)), dtype=np.uint8)
    for k in range(1, len(table)):
        table[k] = mul[table[k - 1], np.arange(len(mul))]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _char_exponents(orders: tuple[int, ...]) -> np.ndarray:
    g, L = Group(orders), lcm(*orders)
    digits = np.array([g._unpack(i, "element") for i in range(g.size)], dtype=np.int64)
    table = (digits * (L // np.array(orders))) @ digits.T % L  # sum_j chi_j g_j L/n_j
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _char_table(orders: tuple[int, ...]) -> np.ndarray:
    L = lcm(*orders)
    table = np.array([Phase.of(k, L).to_complex() for k in range(L)])[_char_exponents(orders)]
    table.setflags(write=False)
    return table


def make_group(orders) -> Group:
    """Build a finite abelian group from a sequence of cyclic factor orders.

    Order-1 factors are dropped; an empty or all-trivial sequence is an error.
    """
    kept = tuple(int(n) for n in orders if int(n) != 1)
    if any(int(n) < 1 for n in orders):
        raise GroupError(f"invalid factor orders {tuple(orders)}")
    if not kept:
        raise GroupError("group must have at least one nontrivial cyclic factor")
    return Group(kept)


_GROUP_SPEC_RE = re.compile(r"^z\d+(xz\d+)*$")


def parse_group_spec(spec: str) -> Group:
    """Parse strings like ``Z2``, ``Z3``, or ``Z2xZ4`` (case-insensitive)."""
    s = spec.strip().lower()
    if not _GROUP_SPEC_RE.match(s):
        raise GroupError(f"malformed group spec {spec!r}; expected e.g. 'Z2' or 'Z2xZ4'")
    orders = [int(part[1:]) for part in s.split("x")]
    return make_group(orders)
