"""Primality and arithmetic in the quadratic extension GF(p)[w] / (w^2 + w + (p-1)).

Extension elements are coefficient pairs a + b*w reduced with w^2 = 1 - w,
which is the rule forced by the defining polynomial.  For p = 2 this is the
familiar GF(4) presentation w^2 = w + 1.  The polynomial x^2 + x + (p-1) is
irreducible over GF(p) exactly when p is a prime with p % 5 in {2, 3}; only
those primes are accepted by the code constructions built on top of this
module, while generic operations (ranks, distances, bounds) work for any
prime modulus.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np


# Miller-Rabin on the first 13 prime bases is exact below psi_13, this bound.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# The largest modulus whose residue products (p - 1)^2 fit in int64.
MAX_MODULUS = 3_037_000_499


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; raises ValueError for n >= MR_EXACT_BELOW
    (about 3.3e24), where these bases no longer decide primality."""
    if n < 2 or any(n % b == 0 for b in MR_BASES):
        return n in MR_BASES
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"primality is decided exactly below {MR_EXACT_BELOW}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def is_construction_prime(p: int) -> bool:
    """True iff p is prime and p % 5 is 2 or 3 (so x^2 + x + (p-1) has no
    root mod p and the quadratic extension is a field).

    Returns False for non-primes; raises only past is_prime's exact range.
    """
    return is_prime(p) and p % 5 in (2, 3)


def require_construction_prime(p: int) -> None:
    """Raise ValueError unless p is usable by the code constructions."""
    if not is_construction_prime(p):
        raise ValueError(
            f"p={p} is not supported: the construction needs a prime p with "
            "p % 5 in {2, 3}, which makes x^2 + x + (p-1) irreducible over GF(p)"
        )


def check_modulus(p: int) -> None:
    """Raise ValueError unless p is an integer prime no larger than MAX_MODULUS."""
    # bool is an int subclass: refuse it here rather than as "not prime".
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
        raise ValueError(f"modulus must be an integer, got {p!r}")
    # The ceiling comes first: it refuses every p the int64 kernels cannot hold.
    if p > MAX_MODULUS:
        raise ValueError(f"modulus {p} exceeds the int64 ceiling {MAX_MODULUS}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


class ExtFieldElement:
    """Element a + b*w of GF(p^2), reduced with w^2 = 1 - w; p, a and b are
    taken through operator.index, so floats are refused and products exact."""

    __slots__ = ("a", "b", "p")

    def __init__(self, a: int, b: int, p: int):
        check_modulus(p)
        p = operator.index(p)
        self.a = operator.index(a) % p
        self.b = operator.index(b) % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, ExtFieldElement):
            if other.p != self.p:
                raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")
            return other
        if isinstance(other, int):
            return ExtFieldElement(other, 0, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtFieldElement(self.a + o.a, self.b + o.b, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtFieldElement(self.a - o.a, self.b - o.b, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 w)(a2 + b2 w) with w^2 = 1 - w
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        return ExtFieldElement(
            a1 * a2 + b1 * b2,
            a1 * b2 + b1 * a2 - b1 * b2,
            self.p,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return ExtFieldElement(-self.a, -self.b, self.p)

    def conjugate(self) -> "ExtFieldElement":
        """The other root image: a + b*w maps to (a - b) - b*w."""
        return ExtFieldElement(self.a - self.b, -self.b, self.p)

    def norm(self) -> int:
        """x * conj(x) collapses to the scalar a^2 - a*b - b^2 mod p."""
        return (self.a * self.a - self.a * self.b - self.b * self.b) % self.p

    def inverse(self) -> "ExtFieldElement":
        if self.is_zero():
            raise ValueError("0 has no multiplicative inverse")
        n = self.norm()
        if n == 0:
            raise ValueError(
                f"{self!r} is a zero divisor: x^2 + x + ({self.p}-1) is "
                f"reducible over GF({self.p}), so GF({self.p})[w] is not a field"
            )
        ninv = pow(n, -1, self.p)
        c = self.conjugate()
        return ExtFieldElement(c.a * ninv, c.b * ninv, self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def to_pair(self) -> list[int]:
        """Serialized form [a, b] meaning a + b*w."""
        return [self.a, self.b]

    @classmethod
    def from_pair(cls, pair, p: int) -> "ExtFieldElement":
        a, b = pair
        return cls(a, b, p)

    def __eq__(self, other):
        return (
            isinstance(other, ExtFieldElement)
            and self.p == other.p
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.p, self.a, self.b))

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        w = "w" if self.b == 1 else f"{self.b}w"
        return w if self.a == 0 else f"{self.a}+{w}"

    def __repr__(self):
        return f"ExtFieldElement({self}, p={self.p})"

