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
from math import comb

import numpy as np

from .errors import ConfigurationError

__all__ = ["SubsetIndex", "BankIndex", "enumerate_subsets", "bank_index", "parse_label"]


@dataclass(frozen=True, order=True)
class SubsetIndex:
    """An ordered sensor subset plus the cardinality class it plays in the bank.

    ``role`` is ``"J"`` for the selection-candidate class (cardinality
    p - q) and ``"S"`` for the cross-check class (cardinality p - 2q).
    Equality and order are by (role, members); the hash is stored when
    the subset is built.  ``__eq__`` compares the fields directly, without
    the two tuples the generated one builds: a dict lookup by an equal
    subset from another bank calls it.
    """

    role: str
    members: tuple[int, ...]

    def __post_init__(self):
        if self.role not in ("J", "S"):
            raise ValueError(f"unknown subset role {self.role!r}")
        if tuple(sorted(set(self.members))) != self.members:
            raise ValueError(f"members must be strictly increasing, got {self.members}")
        # the members alone hash the same in every process (str hashes are
        # salted); a J and an S share members only when q = 0
        object.__setattr__(self, "_hash", hash(self.members))

    @classmethod
    def _canonical(cls, role: str, member_tuples) -> tuple[SubsetIndex, ...]:
        """Subsets whose role and members the caller has already checked."""
        new, put, out = object.__new__, object.__setattr__, []
        for members in member_tuples:
            # attributes set one by one keep the compact instance layout that
            # __init__ gives; writing to __dict__ makes each subset half again as large
            sub = new(cls)
            put(sub, "role", role)
            put(sub, "members", members)
            put(sub, "_hash", hash(members))
            out.append(sub)
        return tuple(out)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.members == other.members and self.role == other.role
        return NotImplemented

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
        raise ConfigurationError(f"malformed subset label {label!r:.40}") from None
    if any(i < 1 for i in members):
        raise ConfigurationError(f"subset label {label!r:.40} has non-positive sensor index")
    if tuple(sorted(set(members))) != members:
        raise ConfigurationError(f"subset label {label!r:.40} is not in canonical order")
    if role not in ("J", "S"):
        raise ConfigurationError(f"subset label {label!r:.40} has unknown role {role!r:.40}")
    sub = SubsetIndex(role, members)
    if sub.label != label:
        raise ConfigurationError(f"subset label {label!r:.40} must be written {sub.label!r:.40}")
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
    # (n_J, p - q): row j is j_subsets[j].members
    _j_members: np.ndarray = field(repr=False, compare=False)

    @property
    def all_subsets(self) -> tuple[SubsetIndex, ...]:
        return self.j_subsets + self.s_subsets

    @cached_property
    def cross_check_pos(self) -> np.ndarray:
        """(n_J, c) positions in ``all_subsets`` of each J's cross-checks.

        Row j lists ``contained[j_subsets[j]]`` in order; every J has the
        same count c = C(p - q, p - 2q).  Each position is n_J plus the
        lexicographic rank of a (p - 2q)-subset of J among ``s_subsets``.
        Built on first use, like :attr:`contained` and :attr:`member_bits`,
        so that :func:`bank_index` stays cheap for callers that never select.
        """
        p, k = self.p, self.p - 2 * self.q
        # the (n_J, c, k) members of each J's k-subsets, in lexicographic
        # order; the rank of b_0 < ... < b_{k-1} among the k-subsets of {1..p}
        # is C(p, k) - 1 - sum_i C(p - b_i, k - i) (combinatorial number system).
        # b_i > i, so entry (n, i) of the table is read only for n < p - i,
        # where it is at most C(p, k); the rest are 0 to keep the table int64
        inner = self._j_members[:, list(combinations(range(p - self.q), k))]
        binom = np.array([[comb(n, k - i) if n < p - i else 0 for i in range(k)]
                          for n in range(p)])
        n_all = len(self.j_subsets) + len(self.s_subsets)
        return n_all - 1 - binom[p - inner, np.arange(k)].sum(axis=2)

    @cached_property
    def contained(self) -> dict[SubsetIndex, tuple[SubsetIndex, ...]]:
        """Each J's cross-checks: the S subsets inside it, in ``s_subsets`` order."""
        subsets = np.empty(len(self.j_subsets) + len(self.s_subsets), dtype=object)
        subsets[:] = self.all_subsets
        pos = self.cross_check_pos
        # one flat list, cut into rows of c by zipping c references to one iterator
        flat = iter(subsets[pos].ravel().tolist())
        return dict(zip(self.j_subsets, zip(*[flat] * pos.shape[1])))

    @cached_property
    def member_bits(self) -> np.ndarray:
        """(p, ceil(n_J / 8)) uint8: row s - 1 has the bit of each J holding sensor s.

        The bits run over ``j_subsets`` in order, packed by ``np.packbits``
        (most significant bit first, zero padding).  Built on first use,
        like :attr:`cross_check_pos`.
        """
        cols = self._j_members - 1
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
    j_tuples = enumerate_subsets(p, p - q)
    j_members = np.array(j_tuples, dtype=np.min_scalar_type(p))  # members are 1..p
    # members are checked once per bank here, not once per subset: the S
    # class is the same enumeration at another size
    if not (j_members[:, 1:] > j_members[:, :-1]).all():
        raise ValueError("subset members must be strictly increasing")
    return BankIndex(p, q, SubsetIndex._canonical("J", j_tuples),
                     SubsetIndex._canonical("S", enumerate_subsets(p, p - 2 * q)), j_members)
