"""Irreducible-degree profiles, built-in group families, and the spec parser.

A degree profile is the data the whole pipeline runs on: the group order
``a`` together with the multiset of irreducible representation degrees
``d_1 <= ... <= d_s`` over a splitting field, satisfying ``d_1 = 1`` and
``sum d_i^2 = a``, held as (degree, multiplicity) groups.  Profiles are
inputs; beyond the built-in families no character theory is performed.
``_Record`` is the base of the package's records that check themselves
when built, or hide a field from ``==`` or repr; the others are NamedTuples.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import NamedTuple

from .errors import ParseError, UnsupportedFamily, ValidationError

FAMILIES = ("cyclic", "abelian", "dihedral", "sym", "custom")

_SYM_PROFILES = {4: ((1, 2), (2, 1), (3, 2)), 5: ((1, 2), (4, 2), (5, 2), (6, 1))}


class _Record:
    """An immutable record whose ``__slots__`` are set once, by ``_set`` in ``__init__``.

    ``==`` (within one class) and hash read the first ``_compared`` slots and
    repr shows the first ``_shown``; None means every slot.  A copy is rebuilt
    by the constructor, which takes the slots in order; a slot ``_x`` reads as property ``x``.
    """

    __slots__ = ()
    _compared = _shown = None

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name.lstrip("_")) for name in self.__slots__[: self._compared])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        names = (name.lstrip("_") for name in self.__slots__[: self._shown])
        shown = (f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__name__}({', '.join(shown)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name.lstrip("_")) for name in self.__slots__)


class DegreeProfile(_Record):
    """Group order and (d, c) degree groups, d strictly increasing, c >= 1; checked when built."""

    __slots__ = ("order", "groups", "label")

    def __init__(self, order: int, groups: tuple[tuple[int, int], ...], label: str | None = None):
        self._set(order=order, groups=groups, label=label)
        distinct = [d for d, _ in groups]
        if not distinct:
            raise ValidationError("degree list is empty")
        if any(d < 1 for d in distinct):
            raise ValidationError("degrees must be positive integers")
        if any(c < 1 for _, c in groups):
            raise ValidationError("multiplicities must be positive integers")
        if any(a > b for a, b in zip(distinct, distinct[1:])):
            raise ValidationError("degrees must be sorted non-decreasing")
        if any(a == b for a, b in zip(distinct, distinct[1:])):
            raise ValidationError("each degree must form one group")
        if distinct[0] != 1:
            raise ValidationError("d_1 != 1: the trivial representation must be present")
        sq = sum(c * d * d for d, c in groups)
        if sq != order:
            raise ValidationError(f"degree-square sum {sq} != {order} (group order)")

    @property
    def s(self) -> int:
        """Number of irreducible representations (tuple coordinates)."""
        return sum(c for _, c in self.groups)

    @property
    def degrees(self) -> tuple[int, ...]:
        """The degrees d_1 <= ... <= d_s, one per coordinate: a tuple of length s."""
        return tuple(d for d, c in self.groups for _ in range(c))

    def __str__(self) -> str:
        return self.label or f"order={self.order},degrees={','.join(map(str, self.degrees))}"


class GroupSpec(NamedTuple):
    """A parsed group description, one of the supported families."""

    family: str
    m: int | None = None  # cyclic / dihedral modulus, sym index
    invariant_factors: tuple[int, ...] | None = None  # abelian
    order: int | None = None  # custom
    degrees: tuple[int, ...] | None = None  # custom

    def __str__(self) -> str:
        if self.m is not None:
            return f"{self.family}:{self.m}"
        if self.family == "abelian":
            return "abelian:" + "x".join(map(str, self.invariant_factors))
        return f"custom:order={self.order},degrees=" + ",".join(map(str, self.degrees))


_INT_RE = re.compile(r"\d+")
# (literals, more) of each family whose parameters are not one integer
_LAYOUTS = {"abelian": (("",), "x"), "custom": (("order=", ",degrees="), ",")}


def _integers(text: str, pos: int, literals: tuple[str, ...], more: str | None) -> list[int]:
    """The integers of ``text[pos:]``, the i-th after ``literals[i]`` and any later one after
    ``more`` (None: no later one); ParseError where the text departs from that layout.
    """
    values: list[int] = []
    while len(values) < len(literals) or pos < len(text):
        literal = literals[len(values)] if len(values) < len(literals) else more
        if literal is None:
            raise ParseError("trailing characters after group spec", pos)
        if not text.startswith(literal, pos):
            raise ParseError(f"expected {literal!r}", pos)
        if not (digits := _INT_RE.match(text, pos + len(literal))):
            raise ParseError("expected integer", pos + len(literal))
        values.append(int(digits.group()))
        pos = digits.end()
    return values


def parse_group_spec(text: str) -> GroupSpec:
    """Parse ``family:params`` group-spec text.

    Grammar (no whitespace, decimal integers):
      cyclic:M | abelian:M(xM)* | dihedral:M | sym:4 | sym:5 |
      custom:order=A,degrees=D(,D)*
    """
    colon = text.find(":")
    if colon < 0:
        raise ParseError("expected ':' after family name", len(text))
    family = text[:colon]
    if family not in FAMILIES:
        raise UnsupportedFamily(f"unknown group family {family!r}", 0)
    values = _integers(text, colon + 1, *_LAYOUTS.get(family, (("",), None)))
    if family == "abelian":
        if any(f < 1 for f in values):
            raise ValidationError("abelian invariant factors must be >= 1")
        return GroupSpec(family="abelian", invariant_factors=tuple(values))
    if family == "custom":
        return GroupSpec(family="custom", order=values[0], degrees=tuple(values[1:]))
    (m,) = values
    if family == "cyclic" and m < 1:
        raise ValidationError("cyclic modulus must be >= 1")
    if family == "dihedral" and m < 3:
        raise ValidationError("dihedral modulus must be >= 3")
    if family == "sym" and m not in _SYM_PROFILES:
        raise ValidationError("sym supports only sym:4 and sym:5")
    return GroupSpec(family=family, m=m)


def profile_of(spec: GroupSpec) -> DegreeProfile:
    """Degree profile of a group spec; ValidationError if the profile is invalid.

    Custom degree lists are counted into groups of increasing degree.
    """
    label = str(spec)
    if spec.family == "cyclic":
        return DegreeProfile(order=spec.m, groups=((1, spec.m),), label=label)
    if spec.family == "abelian":
        a = math.prod(spec.invariant_factors)
        return DegreeProfile(order=a, groups=((1, a),), label=label)
    if spec.family == "dihedral":
        ones = 2 if spec.m % 2 == 1 else 4  # the degree-2 ones fill the rest of 2m
        groups = ((1, ones), (2, (2 * spec.m - ones) // 4))
        return DegreeProfile(order=2 * spec.m, groups=groups, label=label)
    if spec.family == "sym":
        return DegreeProfile(
            order=math.factorial(spec.m), groups=_SYM_PROFILES[spec.m], label=label
        )
    if spec.family == "custom":
        groups = tuple(sorted(Counter(spec.degrees).items()))
        return DegreeProfile(order=spec.order, groups=groups, label=label)
    raise UnsupportedFamily(f"unknown group family {spec.family!r}")  # pragma: no cover


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981  # least strong pseudoprime to every base in _MR_BASES


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases, exact for p < PSI_13."""
    if p < 2 or any(p % b == 0 for b in _MR_BASES):
        return p in _MR_BASES
    twos = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^twos * odd
    for b in _MR_BASES:
        chain = [pow(b, (p - 1) >> twos << i, p) for i in range(twos)]
        if chain[0] != 1 and p - 1 not in chain:
            return False
    return True


def prime_base(q: int) -> int | None:
    """The prime p with q = p^k, k >= 1, or None if q is no prime power.

    Exact below PSI_13 (Sorenson and Webster, Math. Comp. 2017); ValidationError past it.
    """
    if q >= PSI_13:
        raise ValidationError(f"q={q} is at least {PSI_13}, past the exact primality test")
    for k in range(1, q.bit_length() if q > 1 else 1):
        root = 1 << -(-q.bit_length() // k)  # above the k-th root; Newton steps come down
        while (step := ((k - 1) * root + q // root ** (k - 1)) // k) < root:
            root = step
        if root**k == q and _is_prime(root):
            return root
    return None


def splitting_field_check(spec: GroupSpec, q: int) -> tuple[bool, str]:
    """Decide whether F_q satisfies the stated splitting conditions.

    These are the necessary congruence/characteristic conditions for each
    built-in family; custom profiles cannot carry enough information, so
    the check is delegated to the caller there.
    """
    if q < 2:
        raise ValidationError("q must be a prime power >= 2")
    p = prime_base(q)
    if p is None:
        raise ValidationError(f"q={q} is not a prime power")
    if spec.family == "cyclic":
        m = spec.m
        if (q - 1) % m == 0:
            return True, f"q == 1 (mod {m})"
        return False, f"requires q == 1 (mod {m}); got q={q}"
    if spec.family == "abelian":
        e = math.lcm(*spec.invariant_factors)
        if (q - 1) % e == 0:
            return True, f"q == 1 (mod exponent {e})"
        return False, f"requires q == 1 (mod exponent {e}); got q={q}"
    if spec.family == "dihedral":
        m = spec.m
        if q % 2 == 0:
            return False, "requires odd q"
        # the 2-dimensional representations are realised over F_q(zeta + 1/zeta)
        if (q - 1) % m == 0:
            return True, f"q odd and q == 1 (mod {m})"
        if (q + 1) % m == 0:
            return True, f"q odd and q == -1 (mod {m})"
        return False, f"requires q == +-1 (mod {m}); got q={q}"
    if spec.family == "sym":
        if spec.m == 4:
            if p in (2, 3):
                return False, f"requires characteristic not in {{2, 3}}; got p={p}"
            return True, f"characteristic {p} not in {{2, 3}}"
        if p <= 5:
            return False, f"requires characteristic > 5; got p={p}"
        return True, f"characteristic {p} > 5"
    return True, "caller-asserted"
