"""Field layer tests.

The extension-field arithmetic is cross-checked against sympy's galoistools
(an independent implementation of GF(p)[x] arithmetic), and the deterministic
choices — modulus polynomial, element encoding, generator — are frozen as
literals so an accidental re-ordering breaks loudly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_rem

from oracles import element_order
from squarecodes.errors import BudgetExceeded, InvalidOrder, InversionOfZero
from squarecodes.gf import MAX_FIELD_ORDER, FieldSpec, enumerate_points, field


def prime_powers(limit):
    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    out = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        pe = p
        while pe <= limit:
            out.append(pe)
            pe *= p
    return sorted(out)


# ---------------------------------------------------------------------------
# deterministic construction choices, frozen
# ---------------------------------------------------------------------------

FROZEN_IRREDUCIBLES = {
    # little-endian coefficients including the leading 1
    4: (1, 1, 1),       # x^2 + x + 1
    8: (1, 1, 0, 1),    # x^3 + x + 1
    9: (1, 0, 1),       # x^2 + 1
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
    25: (2, 0, 1),      # x^2 + 2
    27: (1, 2, 0, 1),   # x^3 + 2x + 1
    32: (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
}

# in GF(25) the scalars 2,3,4 have order <= 4 and x (index 5) has order 8,
# so the first generator is 1+x at index 6
FROZEN_PRIMITIVES = {2: 1, 3: 2, 4: 2, 5: 2, 7: 3, 8: 2, 9: 4, 11: 2, 13: 2, 16: 2, 25: 6}


def test_frozen_irreducibles():
    for q, coeffs in FROZEN_IRREDUCIBLES.items():
        assert field(q).irreducible == coeffs


def test_frozen_primitive_elements():
    for q, g in FROZEN_PRIMITIVES.items():
        assert field(q).primitive_element() == g


def test_prime_field_has_no_modulus():
    assert field(31).irreducible is None


# ---------------------------------------------------------------------------
# arithmetic against the sympy oracle
# ---------------------------------------------------------------------------

def _to_sympy(a, F):
    """Element index -> big-endian coefficient list (sympy's convention)."""
    digits = []
    for _ in range(F.e):
        digits.append(a % F.p)
        a //= F.p
    return [int(c) for c in reversed(digits)]


def _from_sympy(poly, F):
    k = 0
    for c in poly:
        k = k * F.p + int(c)
    return k


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_extension_arithmetic_matches_sympy(q):
    F = field(q)
    mod = [int(c) for c in reversed(F.irreducible)]
    for a in range(q):
        for b in range(q):
            sa, sb = _to_sympy(a, F), _to_sympy(b, F)
            want_add = _from_sympy(gf_add(sa, sb, F.p, ZZ), F)
            want_mul = _from_sympy(gf_rem(gf_mul(sa, sb, F.p, ZZ), mod, F.p, ZZ), F)
            assert F.add(a, b) == want_add
            assert F.mul(a, b) == want_mul


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9, 16, 23, 25, 27])
def test_inverses_and_identities(q):
    F = field(q)
    for a in range(q):
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(InversionOfZero):
        F.inv(0)


@settings(max_examples=200, deadline=None)
@given(
    q=st.sampled_from([4, 5, 9, 16, 25, 27, 49]),
    data=st.data(),
)
def test_distributivity(q, data):
    F = field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(a, b) == F.mul(b, a)


@pytest.mark.parametrize("q", [3, 4, 9, 11, 16])
def test_pow_folds_at_q(q):
    # x^q == x pointwise, and exponent folding keeps going above q
    F = field(q)
    for a in range(q):
        assert F.pow(a, q) == a
        assert F.pow(a, 0) == 1
        if a:
            assert F.pow(a, q - 1) == 1
        assert F.pow(a, 2 * q - 2) == F.mul(F.pow(a, q - 1), F.pow(a, q - 1))


def test_primitive_element_order_all_small_prime_powers():
    # every prime power up to 2^10: the pinned generator really generates
    for q in prime_powers(1 << 10):
        F = field(q)
        assert element_order(F, F.primitive_element()) == q - 1


def test_invalid_orders_rejected():
    for bad in [0, 1, 6, 12, 100]:
        with pytest.raises(InvalidOrder):
            FieldSpec(bad)
    with pytest.raises(InvalidOrder):
        FieldSpec(MAX_FIELD_ORDER * 2)


# ---------------------------------------------------------------------------
# bulk tables and point enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [4, 5, 9])
def test_tables_match_scalar_ops(q):
    F = field(q)
    t = F.tables()
    for a in range(q):
        for b in range(q):
            assert int(t.add[a, b]) == F.add(a, b)
            assert int(t.mul[a, b]) == F.mul(a, b)
        assert int(t.neg[a]) == F.neg(a)
        if a:
            assert int(t.inv[a]) == F.inv(a)


def test_power_column():
    F = field(9)
    for n in [0, 1, 2, 8, 9, 16]:
        col = F.power_column(n)
        assert [int(v) for v in col] == [F.pow(x, n) for x in range(9)]


def test_enumerate_points_order_frozen():
    pts = enumerate_points(field(3), 2)
    assert pts.tolist() == [
        [0, 0], [0, 1], [0, 2],
        [1, 0], [1, 1], [1, 2],
        [2, 0], [2, 1], [2, 2],
    ]


def test_enumerate_points_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_points(field(11), 8)
