"""Sensor-subset bookkeeping for the observer bank.

Subsets of the sensor index set {1, ..., p} are kept in a single
canonical order everywhere: ascending member tuples, enumerated
lexicographically.  Every argmin/argmax downstream breaks ties by this
order, which is what makes runs bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import ConfigurationError

__all__ = ["SubsetIndex", "BankIndex", "enumerate_subsets", "bank_index", "parse_label"]


@dataclass(frozen=True, order=True)
class SubsetIndex:
    """An ordered sensor subset plus the cardinality class it plays in the bank.

    ``role`` is ``"J"`` for the selection-candidate class (cardinality
    p - q) and ``"S"`` for the cross-check class (cardinality p - 2q).
    """

    role: str
    members: tuple[int, ...]

    def __post_init__(self):
        if self.role not in ("J", "S"):
            raise ValueError(f"unknown subset role {self.role!r}")
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError(f"members must be strictly increasing, got {self.members}")

    @property
    def label(self) -> str:
        """Canonical config/bundle key, e.g. ``"J:1,3,4"``."""
        return f"{self.role}:{','.join(map(str, self.members))}"

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return self.label


def parse_label(label: str) -> SubsetIndex:
    """Inverse of :attr:`SubsetIndex.label`: only the canonical spelling is accepted."""
    try:
        role, body = label.split(":", 1)
        members = tuple(int(tok) for tok in body.split(",")) if body else ()
    except ValueError:
        raise ConfigurationError(f"malformed subset label {label!r}") from None
    if any(i < 1 for i in members):
        raise ConfigurationError(f"subset label {label!r} has non-positive sensor index")
    if tuple(sorted(set(members))) != members:
        raise ConfigurationError(f"subset label {label!r} is not in canonical order")
    if role not in ("J", "S"):
        raise ConfigurationError(f"subset label {label!r} has unknown role {role!r}")
    sub = SubsetIndex(role, members)
    if sub.label != label:
        raise ConfigurationError(f"subset label {label!r} must be written {sub.label!r}")
    return sub


def enumerate_subsets(p: int, size: int) -> list[tuple[int, ...]]:
    """All ``size``-element subsets of {1, ..., p} in lexicographic order."""
    if p < 1:
        raise ConfigurationError(f"sensor count must be positive, got p={p}")
    if not 0 <= size <= p:
        raise ConfigurationError(f"subset size {size} out of range for p={p}")
    return list(combinations(range(1, p + 1), size))


@dataclass(frozen=True)
class BankIndex:
    """The full subset geometry of an observer bank for given (p, q)."""

    p: int
    q: int
    j_subsets: tuple[SubsetIndex, ...]
    s_subsets: tuple[SubsetIndex, ...]
    contained: dict[SubsetIndex, tuple[SubsetIndex, ...]] = field(repr=False)

    @property
    def all_subsets(self) -> tuple[SubsetIndex, ...]:
        return self.j_subsets + self.s_subsets

    @cached_property
    def cross_check_pos(self) -> np.ndarray:
        """(n_J, c) positions in ``all_subsets`` of each J's cross-checks.

        Row j lists ``contained[j_subsets[j]]`` in order; every J has the
        same count c = C(p - q, p - 2q).  Built on first use, so that
        :func:`bank_index` stays cheap for callers that never select.
        """
        offset = len(self.j_subsets)
        s_pos = {S: offset + i for i, S in enumerate(self.s_subsets)}
        return np.array(
            [[s_pos[S] for S in self.contained[J]] for J in self.j_subsets], dtype=np.intp
        )

    @cached_property
    def member_bits(self) -> np.ndarray:
        """(p, ceil(n_J / 8)) uint8: row s - 1 has the bit of each J holding sensor s.

        The bits run over ``j_subsets`` in order, packed by ``np.packbits``
        (most significant bit first, zero padding).  Built on first use,
        like :attr:`cross_check_pos`.
        """
        # every J has p - q members, so the member tuples stack into one index array
        cols = np.array([J.members for J in self.j_subsets]) - 1
        members = np.zeros((self.p, len(cols)), dtype=bool)
        members[cols, np.arange(len(cols))[:, None]] = True
        return np.packbits(members, axis=1)


def bank_index(p: int, q: int) -> BankIndex:
    """Build the subset geometry for a bank protecting against q attacks.

    Requires 0 <= q < p/2 so that the cross-check class is nonempty and
    any two J-class subsets overlap in at least p - 2q sensors.
    """
    if not 0 <= q:
        raise ConfigurationError(f"attack bound must be nonnegative, got q={q}")
    if not 2 * q < p:
        raise ConfigurationError(
            f"need q < p/2 for majority-style redundancy, got p={p}, q={q}"
        )
    j_size, s_size = p - q, p - 2 * q
    j_subsets = tuple(SubsetIndex("J", m) for m in enumerate_subsets(p, j_size))
    s_subsets = tuple(SubsetIndex("S", m) for m in enumerate_subsets(p, s_size))
    by_members = {S.members: S for S in s_subsets}
    contained = {
        J: tuple(by_members[m] for m in combinations(J.members, s_size))
        for J in j_subsets
    }
    return BankIndex(p, q, j_subsets, s_subsets, contained)
