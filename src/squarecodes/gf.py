"""Finite field arithmetic for GF(p^e) with a pinned, deterministic encoding.

Elements are plain integers 0..q-1.  For prime fields the integer IS the
residue.  For extension fields the integer's base-p digits are the
coefficients of the element written in the power basis {1, x, ..., x^(e-1)}
of F_p[x]/(f), constant coefficient in the least significant digit.  Under
this encoding index 0 is the additive identity and index 1 the multiplicative
identity, for every field.

The modulus f is the first monic irreducible polynomial of degree e in the
order induced by that same digit encoding of its non-leading coefficients
(so GF(4) uses x^2+x+1, GF(8) uses x^3+x+1, GF(9) uses x^2+1, ...).  Nothing
downstream depends on f being primitive; multiplication goes through exp/log
tables keyed to the smallest generator.

Everything here is deliberately dependency-free apart from numpy, which is
used only for the bulk operation tables consumed by the linear algebra layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, CrossCheckFailed, InvalidOrder, InversionOfZero, RangeError

MAX_FIELD_ORDER = 1 << 16
TABLE_LIMIT = 1 << 10  # largest q for which dense q*q numpy tables are built
POINT_BUDGET = 1 << 22  # cap on the number of grid points enumerated


def check_budget(size: int, cap: int, what: str) -> None:
    """Refuse work of ``size`` units over ``cap`` before any of it is done.

    Every budget in the package is enforced here, so every refusal is one
    BudgetExceeded whose message names the work, its size and the cap.
    """
    if size > cap:
        raise BudgetExceeded(f"{what}: {size} exceeds the budget {cap}")


def _prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e, or raise InvalidOrder."""
    if not isinstance(q, int) or q < 2:
        raise InvalidOrder(f"field order must be an integer >= 2, got {q!r}")
    if q > MAX_FIELD_ORDER:
        raise InvalidOrder(f"field order {q} exceeds the supported cap {MAX_FIELD_ORDER}")
    p = q
    for cand in range(2, q + 1):
        if cand * cand > q:
            break
        if q % cand == 0:
            p = cand
            break
    e = 0
    rem = q
    while rem % p == 0:
        rem //= p
        e += 1
    if rem != 1:
        raise InvalidOrder(f"{q} is not a prime power")
    return p, e


def _factorize(n: int) -> list[int]:
    """Distinct prime factors of n (trial division; n is tiny here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial scratch arithmetic over F_p, little-endian coefficient lists;
# only used while constructing a field (irreducible search, exp table build)
# ---------------------------------------------------------------------------

def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a, mod, p):
    """Remainder of a modulo the monic polynomial mod."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    while len(a) > dm:
        a.pop()
    while len(a) < dm:
        a.append(0)
    return a


def _digits(k: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(k % p)
        k //= p
    return out


def _undigits(coeffs, p: int) -> int:
    k = 0
    for c in reversed(coeffs):
        k = k * p + c
    return k


def _irreducible_poly(p: int, e: int) -> tuple[int, ...]:
    """First monic irreducible of degree e over F_p in the pinned order.

    Candidates x^e + c_{e-1} x^{e-1} + ... + c_0 are tried in increasing
    order of the integer with base-p digits (c_{e-1}, ..., c_0).  Tested by
    trial division against every monic polynomial of degree 1..e//2.
    """
    divisors = []
    for d in range(1, e // 2 + 1):
        for k in range(p ** d):
            divisors.append(_digits(k, p, d) + [1])
    for k in range(p ** e):
        cand = _digits(k, p, e) + [1]
        if cand[0] == 0:
            continue  # divisible by x
        ok = True
        for div in divisors:
            if not any(_poly_rem(cand, div, p)):
                ok = False
                break
        if ok:
            return tuple(cand)
    raise AssertionError(f"no irreducible polynomial of degree {e} over F_{p}")  # pragma: no cover


@dataclass(frozen=True)
class FieldTables:
    """Dense numpy operation tables for vectorized work over one field.

    ``add``/``mul`` are (q, q) arrays indexed as ``add[a, b]``; ``neg`` and
    ``inv`` are (q,) arrays.  ``inv[0]`` is 0 by convention and must never be
    used as an inverse.
    """

    q: int
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    inv: np.ndarray


class FieldSpec:
    """A finite field GF(p^e), q = p^e <= 2^16, with deterministic tables.

    Use the module-level :func:`field` factory, which caches one instance per
    order.  Scalar operations accept and return element indices (ints).
    """

    def __init__(self, q: int):
        self.p, self.e = _prime_power(q)
        self.q = q
        self.irreducible: tuple[int, ...] | None = None
        if self.e > 1:
            self.irreducible = _irreducible_poly(self.p, self.e)
        # exp/log tables keyed to the smallest generator; empty for e == 1,
        # where residue arithmetic is already the fast path
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._primitive: int | None = None
        self._tables: FieldTables | None = None
        self._power_columns: dict[int, np.ndarray] = {}
        if self.e > 1:
            self._build_exp_log()

    # -- construction helpers ------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """Multiplication by polynomial arithmetic; used only during setup."""
        if self.e == 1:
            return a * b % self.p
        prod = _poly_mul(_digits(a, self.p, self.e), _digits(b, self.p, self.e), self.p)
        return _undigits(_poly_rem(prod, self.irreducible, self.p), self.p)

    def _raw_pow(self, a: int, n: int) -> int:
        out = 1
        base = a
        while n:
            if n & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            n >>= 1
        return out

    def _find_primitive(self) -> int:
        if self.q == 2:
            return 1
        primes = _factorize(self.q - 1)
        for g in range(2, self.q):
            if all(self._raw_pow(g, (self.q - 1) // r) != 1 for r in primes):
                return g
        raise AssertionError("no generator found")  # pragma: no cover

    def _build_exp_log(self) -> None:
        g = self._find_primitive()
        self._primitive = g
        exp = [1] * (self.q - 1)
        log = [0] * self.q
        x = 1
        for i in range(self.q - 1):
            exp[i] = x
            log[x] = i
            x = self._raw_mul(x, g)
        if len(set(exp)) != self.q - 1:
            raise CrossCheckFailed(f"{g} does not generate the unit group of GF({self.q})")
        self._exp, self._log = exp, log

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        p, k, scale, out = self.p, a + 0, 1, 0
        bb = b
        for _ in range(self.e):
            out += ((k % p + bb % p) % p) * scale
            k //= p
            bb //= p
            scale *= p
        return out

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        p, scale, out = self.p, 1, 0
        for _ in range(self.e):
            out += ((-(a % p)) % p) * scale
            a //= p
            scale *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.e == 1:
            return a * b % self.p
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise InversionOfZero(f"no inverse of 0 in GF({self.q})")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        """a**n with 0**0 == 1; exponents may exceed q-1 (x^q == x holds)."""
        if n < 0:
            raise RangeError("negative exponents are not supported")
        if a == 0:
            return 1 if n == 0 else 0
        if self.e == 1:
            return pow(a, n, self.p)
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def primitive_element(self) -> int:
        """Smallest-index element of multiplicative order q-1."""
        if self._primitive is None:
            self._primitive = self._find_primitive()
        return self._primitive

    # -- bulk tables ---------------------------------------------------------

    def tables(self) -> FieldTables:
        """Dense add/mul/neg/inv tables for vectorized linear algebra."""
        if self._tables is not None:
            return self._tables
        q = self.q
        check_budget(q, TABLE_LIMIT, "the field order for dense operation tables")
        dtype = np.uint8 if q <= 256 else np.uint16
        if self.e == 1:
            v = np.arange(q, dtype=np.int64)
            add = (v[:, None] + v[None, :]) % q
            mul = (v[:, None] * v[None, :]) % q
            neg = (-v) % q
        else:
            digits = np.empty((q, self.e), dtype=np.int64)
            idx = np.arange(q)
            for t in range(self.e):
                digits[:, t] = (idx // self.p ** t) % self.p
            scales = self.p ** np.arange(self.e)
            add = np.empty((q, q), dtype=np.int64)
            for a in range(q):
                add[a] = ((digits[a][None, :] + digits) % self.p) @ scales
            neg = ((-digits) % self.p) @ scales
            logs = np.array(self._log, dtype=np.int64)
            exps = np.array(self._exp, dtype=np.int64)
            mul = exps[(logs[:, None] + logs[None, :]) % (q - 1)]
            mul[0, :] = 0
            mul[:, 0] = 0
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            inv[a] = self.inv(a)
        self._tables = FieldTables(
            q=q,
            add=add.astype(dtype),
            mul=mul.astype(dtype),
            neg=neg.astype(dtype),
            inv=inv.astype(dtype),
        )
        return self._tables

    def power_column(self, n: int) -> np.ndarray:
        """Vector of x**n over all field elements x, as element indices."""
        col = self._power_columns.get(n)
        if col is None:
            col = np.array([self.pow(x, n) for x in range(self.q)], dtype=np.int64)
            self._power_columns[n] = col
        return col

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover
        if self.e == 1:
            return f"GF({self.q})"
        return f"GF({self.p}^{self.e})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.q))


@lru_cache(maxsize=None)
def field(q: int) -> FieldSpec:
    """The canonical (cached) FieldSpec of order q."""
    return FieldSpec(q)


def enumerate_points(F: FieldSpec, m: int) -> np.ndarray:
    """All q^m points of F^m as a (q^m, m) array of element indices.

    The order is lexicographic in the element indices with the FIRST
    coordinate varying slowest — the same order itertools.product produces —
    and is part of the public contract: generator matrix columns use it.
    """
    if m < 1:
        raise RangeError(f"need at least one variable, got m = {m}")
    n = F.q ** m
    check_budget(n, POINT_BUDGET, f"the q^m points of GF({F.q})^{m}")
    idx = np.arange(n, dtype=np.int64)
    pts = np.empty((n, m), dtype=np.int64)
    for j in range(m):
        pts[:, j] = (idx // F.q ** (m - 1 - j)) % F.q
    return pts
