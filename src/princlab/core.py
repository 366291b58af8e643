"""The bases every ring family shares, and exact integer arithmetic: the
code every call over Z or Z[sqrt(d)] can use.

- `CertificateError`, a producer's failed "(bug)" guard, and
  `pairwise_json`, the encoding of pairwise Bezout certificates.
  Producers do not check their own certificates: `recheck` is the one
  checker, and `cli` runs it on every report.  A guard that remains fires
  only where a certificate cannot be built: a value it needs is None or
  not a unit, lies outside the ring, or is an odd inert norm valuation.
- `RingElem` derives binary ``-``, the reflected ``+``, ``-``, ``*`` and
  ``**`` (repeated squaring) from an element class's own ``+``, unary
  ``-``, ``*`` and `_one()`; a negative power is a power of `_invert()`.
  An element class owns its report form, `json()`, which `__repr__`
  prints.  Elements are immutable, so a report holds the element itself
  and builds this form only when it is written or rechecked (see `report`).
- `RingHandle`: same ring <=> same `to_json()`, the description `recheck`
  reads back.
- `xgcd`, `is_prime`, `factorint`, `sqrt_mod_prime`, the 2x2 Hermite form
  `hnf2_with_transform` and `solve_int_combination`.

Polynomials live in `poly` and Z[1/p] in `zloc`, which such a call never
loads.  `core.Poly` and `core.poly_extended_gcd` still resolve to the
objects in `poly`, through this module's `__getattr__`, because
perfbench's traced child wraps them by those paths.

Integer factorization (Cohen, GTM 138, sections 8.2 and 8.5) uses the
standard library alone: trial division by the primes below 1000,
Miller-Rabin to the first 13 prime bases, and Pollard-Brent rho (Brent,
BIT 20, 1980) on every cofactor that Miller-Rabin shows composite, of any
size, within `_RHO_STEPS` iterations: the budget is checked before each
doubling round, so a refused cofactor has run no more iterations than its
message names.  Miller-Rabin to those bases is proven exact below
`_MR_BOUND` (Sorenson and Webster, 2015).  `factorint` raises a ValueError
(exit 2) naming any cofactor it cannot finish: one at or above `_MR_BOUND`
that Miller-Rabin does not show composite, or one that rho does not split
within its budget.  So every prime it returns is proven, and `recheck`
proves it again.

Every CLI call is a fresh process, so the code it imports is part of each
call.  No module of the package imports `dataclasses`, which pulls in
`inspect`, `ast` and `dis` and `exec`s generated code per decorated class:
certificates are plain classes with an explicit `__init__`, compared by
identity.  Nor does any import the stdlib's `fractions`, which loads
`decimal` and `numbers` (about 0.45 MB of peak RSS): rationals are
`rational.Fraction`.
"""

from __future__ import annotations

from math import gcd, isqrt


class CertificateError(Exception):
    """An internal invariant of a producer failed (the "(bug)" guards): a
    bug, never bad input.  Deliberately not a ValueError, so the CLI exits
    3, not 2."""


class RingElem:
    """Base of every element class of a commutative ring.  A subclass
    defines ``+``, unary ``-``, ``*``, `_one()` and, if it has inverses,
    `_invert()`; the rest is derived here.
    ``__add__``/``__mul__`` may return NotImplemented for foreign operands,
    and the reflected forms pass that on."""

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if n < 0:
            return self._invert() ** -n
        if n == 0:
            return self._one()
        # repeated squaring from the low bit: x**1 takes no product, x**(2**k)
        # takes k, and the square after the top bit is never formed
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def _invert(self):
        """The inverse that negative powers take; a ValueError where there
        is none."""
        raise ValueError(f"negative power of a {type(self).__name__}")

    def __repr__(self):
        import json

        return f"{type(self).__name__}({json.dumps(self.json())})"


class RingHandle:
    """Base of every ring handle: two handles are the same ring exactly when
    their `to_json()` descriptions are equal."""

    def __eq__(self, other):
        return self is other or (isinstance(other, RingHandle) and self.to_json() == other.to_json())

    def __hash__(self):
        import json

        return hash(json.dumps(self.to_json(), sort_keys=True))



def pairwise_json(pairwise, enc):
    """[(i, j, lam, mu)] with lam*f_i + mu*f_j == 1, as report data."""
    return [{"i": i, "j": j, "lam": enc(lam), "mu": enc(mu)} for i, j, lam, mu in pairwise]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b), g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


def _primes_below(n: int) -> list[int]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


_SMALL_PRIMES = _primes_below(1000)
_MR_BASES = _SMALL_PRIMES[:13]
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_RHO_STEPS = 1 << 19


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES for odd n > 1: True for every
    prime, and exact for n < _MR_BOUND with no factor below 1000."""
    q, s = n - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, q, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Whether n is prime: exact below _MR_BOUND, a ValueError from there."""
    if n < 1_000_000:
        return n > 1 and all(n % p for p in _SMALL_PRIMES if p * p <= n)
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large to prove prime")
    return all(n % p for p in _SMALL_PRIMES) and _is_prime(n)


def _root(n: int, k: int) -> int:
    """The integer k-th root of n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _pollard_brent(n: int) -> int | None:
    """A proper factor of the odd composite n with no factor below 1000, or
    None when the next doubling round of x -> x^2 + c (c = 1, 2, ...) would
    take the iterations past _RHO_STEPS.  A perfect power, on which rho
    takes as long as on its root, gives its root first; a root of degree k
    is above 1000 > 2^9, so k is at most a ninth of n's bit length."""
    for k in range(2, n.bit_length() // 9 + 1):
        root = _root(n, k)
        if root**k == n:
            return root
    steps, batch = 0, 128
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            if steps + 2 * r > _RHO_STEPS:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            steps += 2 * r
            r <<= 1
        if g == n:
            # the batch overshot: step back one iteration at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of the integer n >= 1, primes ascending
    ({} for n == 1); a ValueError naming a cofactor it cannot finish."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        # trial division leaves no composite below 1000^2
        if m < 1_000_000 or _is_prime(m):
            if m >= _MR_BOUND:
                raise ValueError(f"{m} is too large to prove prime")
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_brent(m)
        if f is None:
            raise ValueError(f"no factor of the composite {m} found within {_RHO_STEPS} rho steps")
        pending += [f, m // f]
    return dict(sorted(out.items()))


def sqrt_mod_prime(a: int, p: int) -> int:
    """The root r <= p // 2 of r*r == a (mod p), p prime (Tonelli-Shanks,
    Cohen GTM 138, algorithm 1.5.1); raises ValueError for a non-residue."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square modulo {p}")
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def hnf2_with_transform(rows):
    """Hermite-style basis of the Z-span of integer 2-vectors.

    Returns ((n, 0), (c, m), e1, e2) where the two basis vectors span the
    same lattice as `rows`, n, m >= 0, 0 <= c < n when n > 0 and m > 0, and
    e1, e2 are integer coefficient vectors expressing the basis in terms of
    the input rows.  Degenerate (rank < 2) spans give zero entries.
    """
    vecs = [tuple(v) for v in rows]
    k = len(vecs)
    expr = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def combine(i, j):
        # makes vecs[j] have zero second component, keeping the span
        yi, yj = vecs[i][1], vecs[j][1]
        g, s, t = xgcd(yi, yj)
        a, b = yj // g, -yi // g
        vi = (s * vecs[i][0] + t * vecs[j][0], g)
        vj = (a * vecs[i][0] + b * vecs[j][0], 0)
        ei = [s * expr[i][l] + t * expr[j][l] for l in range(k)]
        ej = [a * expr[i][l] + b * expr[j][l] for l in range(k)]
        vecs[i], vecs[j] = vi, vj
        expr[i], expr[j] = ei, ej

    pivot = None
    for idx in range(k):
        if vecs[idx][1] == 0:
            continue
        if pivot is None:
            pivot = idx
        else:
            combine(pivot, idx)
    if pivot is not None and vecs[pivot][1] < 0:
        vecs[pivot] = (-vecs[pivot][0], -vecs[pivot][1])
        expr[pivot] = [-c for c in expr[pivot]]

    xpivot = None
    for idx in range(k):
        if idx == pivot or vecs[idx][0] == 0:
            continue
        if xpivot is None:
            xpivot = idx
        else:
            yi, yj = vecs[xpivot][0], vecs[idx][0]
            g, s, t = xgcd(yi, yj)
            a, b = yj // g, -yi // g
            vi = (g, 0)
            ei = [s * expr[xpivot][l] + t * expr[idx][l] for l in range(k)]
            ej = [a * expr[xpivot][l] + b * expr[idx][l] for l in range(k)]
            vecs[xpivot], vecs[idx] = vi, (0, 0)
            expr[xpivot], expr[idx] = ei, ej
    if xpivot is not None and vecs[xpivot][0] < 0:
        vecs[xpivot] = (-vecs[xpivot][0], 0)
        expr[xpivot] = [-c for c in expr[xpivot]]

    zero = [0] * k
    b1, e1 = ((0, 0), list(zero)) if xpivot is None else (vecs[xpivot], expr[xpivot])
    b2, e2 = ((0, 0), list(zero)) if pivot is None else (vecs[pivot], expr[pivot])
    n = b1[0]
    if n > 0 and b2[1] > 0:
        q = b2[0] // n
        b2 = (b2[0] - q * n, b2[1])
        e2 = [e2[l] - q * e1[l] for l in range(k)]
    return b1, b2, e1, e2


def solve_int_combination(rows, target):
    """Integer coefficients c with sum(c[i] * rows[i]) == target, or None."""
    if not rows:
        return None if tuple(target) != (0, 0) else []
    (n, _), (c, m), e1, e2 = hnf2_with_transform(rows)
    tx, ty = target
    if m == 0:
        if ty != 0:
            return None
        beta = 0
    else:
        if ty % m:
            return None
        beta = ty // m
    rx = tx - beta * c
    if n == 0:
        if rx != 0:
            return None
        alpha = 0
    else:
        if rx % n:
            return None
        alpha = rx // n
    return [alpha * e1[l] + beta * e2[l] for l in range(len(rows))]


def __getattr__(name):
    # For perfbench's traced child, which wraps `core.Poly.__mul__` and
    # `core.poly_extended_gcd` by these paths: both moved to `poly`, and
    # reading them here loads it.
    if name in ("Poly", "poly_extended_gcd"):
        from . import poly

        return getattr(poly, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
