import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasslift import gf, matfp
from grasslift.gf import (
    ExtFieldElement,
    MAX_MODULUS,
    MR_EXACT_BELOW,
    is_construction_prime,
    is_prime,
    require_construction_prime,
)
from oracles import ext_elements, ext_one, ext_zero, reference_is_prime

CONSTRUCTION_PRIMES_50 = [2, 3, 7, 13, 17, 23, 37, 43, 47]


def brute_force_irreducible(p: int) -> bool:
    """Degree-2 irreducibility oracle: x^2 + x + (p-1) has no root mod p."""
    return all((x * x + x + (p - 1)) % p != 0 for x in range(p))


# ---------------------------------------------------------------------------
# construction-prime test
# ---------------------------------------------------------------------------

def test_construction_primes_small():
    assert is_construction_prime(2)
    assert is_construction_prime(3)
    assert not is_construction_prime(5)
    # x = 2 is a root of x^2 + x + 4 mod 5, so the polynomial splits
    assert (2 * 2 + 2 + 4) % 5 == 0


def test_construction_prime_agrees_with_root_search_up_to_1000():
    for p in range(2, 1001):
        expected = is_prime(p) and brute_force_irreducible(p)
        assert is_construction_prime(p) == expected, p


def test_construction_primes_up_to_50():
    found = [p for p in range(2, 51) if is_construction_prime(p)]
    assert found == CONSTRUCTION_PRIMES_50


def test_is_construction_prime_false_for_composites():
    for n in (0, 1, 4, 6, 12, 22, 27, 33):
        assert not is_construction_prime(n)


def test_is_prime_matches_trial_division_below_100000():
    # __wrapped__ skips the cache, which would keep 10^5 entries alive.
    for n in range(100_000):
        assert is_prime.__wrapped__(n) == reference_is_prime(n), n


def test_is_prime_large_inputs():
    # Carmichael 561 and the smallest strong pseudoprimes to the prime bases
    # 2..7, 2..23 and 2..37 (Miller-Rabin on fewer bases calls them prime).
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)
    assert not is_prime(1_000_000_007 * 998_244_353)
    with pytest.raises(ValueError, match="decided exactly below"):
        is_prime(MR_EXACT_BELOW + 6)  # no factor among the bases


def test_require_construction_prime_message():
    with pytest.raises(ValueError, match=r"p % 5 in \{2, 3\}"):
        require_construction_prime(5)
    require_construction_prime(13)


# ---------------------------------------------------------------------------
# extension field arithmetic
# ---------------------------------------------------------------------------

def test_w_squared_reduction():
    w = ExtFieldElement(0, 1, 2)
    assert w * w == ExtFieldElement(1, 1, 2)
    w = ExtFieldElement(0, 1, 3)
    assert w * w == ExtFieldElement(1, 2, 3)


def test_multiplicative_identity():
    for p in (2, 3, 7):
        one = ext_one(p)
        for x in ext_elements(p):
            assert one * x == x


def test_inverse_of_w_over_gf4_matches_exhaustive_search():
    # independent oracle: scan the full multiplication table for the inverse
    w = ExtFieldElement(0, 1, 2)
    one = ext_one(2)
    found = [y for y in ext_elements(2) if w * y == one]
    assert found == [ExtFieldElement(1, 1, 2)]
    assert w.inverse() == found[0]


def test_inverse_examples():
    assert ext_one(3).inverse() == ext_one(3)
    two = ExtFieldElement(2, 0, 3)
    assert two.inverse() == two  # 2*2 = 4 = 1 mod 3


def test_inverse_errors():
    with pytest.raises(ValueError, match="no multiplicative inverse"):
        ext_zero(7).inverse()
    # over GF(5) the defining polynomial splits, so zero divisors exist:
    # (2 + w) has norm 4 - 2 - 1 = 1, but (2 + 2w) has norm 4 - 4 - 4 = 1 mod 5;
    # the actual zero divisors are the elements of norm 0, e.g. 2 + 4w.
    bad = next(
        x for x in ext_elements(5) if not x.is_zero() and x.norm() == 0
    )
    with pytest.raises(ValueError, match="reducible"):
        bad.inverse()


def test_modulus_mismatch():
    with pytest.raises(ValueError, match="modulus mismatch"):
        ExtFieldElement(1, 0, 2) * ExtFieldElement(1, 0, 3)


def test_float_coefficients_are_refused():
    # a % p would keep a float: 1.5 % 2 reads 1.5
    for a, b in ((1.5, 0), (0, 1.0)):
        with pytest.raises(TypeError):
            ExtFieldElement(a, b, 2)


def test_float_modulus_is_refused():
    # is_prime(2.0) is True, and 1 % 2.0 would read 1.0
    with pytest.raises(ValueError, match="modulus must be an integer"):
        ExtFieldElement(1, 1, 2.0)


def test_prime_modulus_above_the_int64_ceiling_is_refused():
    # 3,037,000,507 is prime, and the first prime above MAX_MODULUS
    assert is_prime(3_037_000_507) and MAX_MODULUS < 3_037_000_507
    with pytest.raises(ValueError, match="int64 ceiling"):
        ExtFieldElement(1, 0, 3_037_000_507)


def test_numpy_integers_are_taken_as_python_ints():
    x = ExtFieldElement(np.int64(2), np.int64(1), np.int64(3))
    assert all(type(v) is int for v in (x.a, x.b, x.p))
    assert x == ExtFieldElement(2, 1, 3)


def test_matfp_reads_the_modulus_check_from_gf():
    assert matfp.check_modulus is gf.check_modulus
    assert matfp.MAX_MODULUS == gf.MAX_MODULUS


def _axioms_hold(x, y, z, one):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == one


def test_field_axioms_exhaustive_small():
    for p in (2, 3):
        one = ext_one(p)
        elems = list(ext_elements(p))
        for x, y, z in itertools.product(elems, repeat=3):
            _axioms_hold(x, y, z, one)


def test_unique_inverses_exhaustive_small():
    for p in (2, 3):
        one = ext_one(p)
        elems = list(ext_elements(p))
        for x in elems:
            if x.is_zero():
                continue
            assert sum(1 for y in elems if x * y == one) == 1


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from(CONSTRUCTION_PRIMES_50),
    coeffs=st.lists(st.integers(min_value=0, max_value=46), min_size=6, max_size=6),
)
def test_field_axioms_sampled_up_to_50(p, coeffs):
    x = ExtFieldElement(coeffs[0], coeffs[1], p)
    y = ExtFieldElement(coeffs[2], coeffs[3], p)
    z = ExtFieldElement(coeffs[4], coeffs[5], p)
    _axioms_hold(x, y, z, ext_one(p))


def test_unique_inverses_sampled_large():
    for p in (7, 13, 47):
        one = ext_one(p)
        elems = list(ext_elements(p))
        for x in elems[1:: max(1, len(elems) // 12)]:
            if x.is_zero():
                continue
            matches = [y for y in elems if x * y == one]
            assert matches == [x.inverse()]


# ---------------------------------------------------------------------------
# serialization and rendering
# ---------------------------------------------------------------------------

def test_pair_serialization_round_trip():
    for p in (2, 3, 7):
        for x in ext_elements(p):
            assert ExtFieldElement.from_pair(x.to_pair(), p) == x


def test_rendering():
    assert str(ExtFieldElement(0, 0, 3)) == "0"
    assert str(ExtFieldElement(2, 0, 3)) == "2"
    assert str(ExtFieldElement(0, 1, 3)) == "w"
    assert str(ExtFieldElement(0, 2, 3)) == "2w"
    assert str(ExtFieldElement(1, 1, 3)) == "1+w"
    assert str(ExtFieldElement(1, 2, 3)) == "1+2w"
