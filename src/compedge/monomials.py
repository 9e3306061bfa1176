"""Exact exponent-vector arithmetic for monomials in a fixed set of variables.

Variables are indexed 0..ambient-1 internally; the text syntax ``x1^2*x3``
is 1-based, conversion happens only in :func:`parse_monomial` and ``str()``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, order=True)
class Monomial:
    """A monomial given by its exponent vector; the constant 1 is all zeros.

    The dataclass ordering (plain tuple comparison) is *not* the canonical
    (degree, lex) monomial order.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.exponents, tuple):
            object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.exponents) == 0:
            raise ValueError("ambient must be a positive number of variables")
        if any(not isinstance(e, int) or e < 0 for e in self.exponents):
            raise ValueError(f"exponents must be nonnegative integers: {self.exponents}")

    @property
    def ambient(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents) if e > 0)

    @property
    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def _check_compatible(self, other: "Monomial") -> None:
        if self.ambient != other.ambient:
            raise ValueError(
                f"ambient mismatch: {self.ambient} vs {other.ambient}"
            )

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_compatible(other)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        self._check_compatible(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __floordiv__(self, other: "Monomial") -> "Monomial":
        """Exact division; raises if ``other`` does not divide ``self``."""
        self._check_compatible(other)
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self.exponents!r})"


def one(ambient: int) -> Monomial:
    """The constant monomial 1."""
    return Monomial((0,) * ambient)


def variable(i: int, ambient: int) -> Monomial:
    """The monomial x_i (0-based index)."""
    if not 0 <= i < ambient:
        raise ValueError(f"variable index {i} out of range for ambient {ambient}")
    return Monomial(tuple(1 if j == i else 0 for j in range(ambient)))


def x_of_set(indices: Iterable[int], ambient: int) -> Monomial:
    """Squarefree monomial with support exactly ``indices`` (0-based)."""
    idx = set(indices)
    if any(not 0 <= i < ambient for i in idx):
        raise ValueError(f"variable indices {sorted(idx)} out of range for ambient {ambient}")
    return Monomial(tuple(1 if i in idx else 0 for i in range(ambient)))


def lcm(u: Monomial, v: Monomial) -> Monomial:
    u._check_compatible(v)
    return Monomial(tuple(max(a, b) for a, b in zip(u.exponents, v.exponents)))


_TERM_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str, ambient: int) -> Monomial:
    """Parse ``x1^2*x3`` style syntax (1-based variables); ``1`` is the constant."""
    text = text.strip()
    if text == "1":
        return one(ambient)
    exps = [0] * ambient
    for term in text.split("*"):
        m = _TERM_RE.match(term.strip())
        if m is None:
            raise ValueError(f"cannot parse monomial term {term!r}")
        i = int(m.group(1))
        e = int(m.group(2)) if m.group(2) is not None else 1
        if not 1 <= i <= ambient:
            raise ValueError(f"variable x{i} out of range for ambient {ambient}")
        if e < 1:
            raise ValueError(f"exponent must be positive in {term!r}")
        exps[i - 1] += e
    return Monomial(tuple(exps))
