"""Pseudo-irreducibility and complete comaximal factorization in Z and in
maximal imaginary quadratic orders.

In a Dedekind domain two elements are comaximal exactly when their prime
supports are disjoint, so a complete comaximal factorization of b is a set
partition of the prime support of (b) (each prime carrying its full
exponent) whose block products are principal, with every block admitting no
further both-principal split.  Enumerating partitions therefore enumerates
every complete comaximal factorization, which is what makes the uniqueness
analysis exhaustive.

The walk does not go through every set partition.  Each support prime
power carries its class in the class group (`ideal_class`), and a block is
principal exactly when its classes compose to the identity: a zero-sum
block.  A principal block is pseudo-irreducible exactly when no proper
nonempty sub-block is zero-sum, since the complement of a zero-sum
sub-block of a zero-sum block is zero-sum too.  So the complete comaximal
factorizations are the partitions of the support into minimal zero-sum
blocks (Geroldinger and Halter-Koch, Non-Unique Factorizations, 2006), and
the walk builds only those.

`walk` serves every comax command over Z and Z[sqrt(d)]: it returns the
support and the partitions as blocks and generators, with no certificate,
and `certify` builds the unit and Bezout pairs of those a report prints
(`comax factor` the first, `hunt` its witness's, `unique` all).  A prime
power of identity class is a minimal zero-sum block by itself and lies in
no larger one, so the walk sets each apart and combines only the others,
at most `PRINC_LAB_SUPPORT_CAP` (default 8) of them: over Z, none.

One `_BlockMemo` per element (never shared between elements) keys every
block by its bitmask.  It composes each block's class once, from the block
without its lowest prime and that prime, and memoizes compositions by pair
of classes.  A block of non-identity class has generator None with no
ideal product or principality test; a zero-sum block costs at most one ideal
product per prime and one principality test.

Everything that depends on the ring family (the prime support, classes, block
generators, Bezout certificates, factor order, the witness scan) is a hook
of the ring handle; see `rings`.

A `ComaxResult` holds b, its support and its factorizations.  A
`ComaxFactorization` certifies the product (u * f_1 * ... * f_m == b),
each pair's comaximality (a Bezout pair) and the unit, and lists each
factor's block, from which `recheck` re-derives every block's lattice.
Recheck is the one check of these identities; the producer does not
re-multiply its own certificate.  Recheck decides itself whether a block
splits into two principal blocks by walking the ideal classes its
sub-blocks reach: at most (k-1)*h ideal products for a block of k primes
and class number h, where the splits number 2^(k-1) - 1.  Recheck proves
each support prime by Miller-Rabin, which is exact only below
`core._MR_BOUND`; every support comes from `core.factorint`, which refuses a
cofactor at or above that bound, so no support lies over a larger rational
prime.  Both are plain classes with an explicit `__init__`; see `core` for
why not dataclasses.
"""

from __future__ import annotations

import os

from .core import CertificateError, pairwise_json

DEFAULT_SUPPORT_CAP = 8


class SupportBoundExceeded(ValueError):
    pass


class ComaxInputError(ValueError):
    pass


def support_cap_from_env() -> int:
    raw = os.environ.get("PRINC_LAB_SUPPORT_CAP")
    if raw is None:
        return DEFAULT_SUPPORT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ComaxInputError(f"PRINC_LAB_SUPPORT_CAP={raw!r} is not an integer") from exc
    if cap < 0:
        raise ComaxInputError(f"PRINC_LAB_SUPPORT_CAP={raw!r} is not a nonnegative integer")
    return cap


class ComaxFactorization:
    def __init__(self, factors: list, unit, pairwise: list, blocks: list):
        self.factors = factors
        self.unit = unit
        self.pairwise = pairwise  # (i, j, lam, mu) with lam*f_i + mu*f_j == 1
        self.blocks = blocks  # index blocks into the support, parallel to factors

    def to_json(self, enc):
        return {"factors": enc(self.factors), "unit": enc(self.unit), "pairwise": pairwise_json(self.pairwise, enc),
                "blocks": [list(b) for b in self.blocks]}


class ComaxResult:
    """The result of `comax factor`, `unique` and `hunt`: its JSON writes the
    element (under `key`) and the support once, then the factorizations the
    report prints, each certified (see `certify`)."""

    def __init__(self, element, support: list, factorizations: list[ComaxFactorization]):
        self.element = element
        self.support = support
        self.factorizations = factorizations

    def to_json(self, enc, key="element"):
        return {key: enc(self.element), "support": [{"prime": enc(p), "exponent": e} for p, e in self.support],
                "factorizations": [f.to_json(enc) for f in self.factorizations]}


def _support_of(b, ring):
    if not b or ring.is_unit(b):
        raise ComaxInputError(f"need a nonzero nonunit of {ring}")
    return ring.prime_support(b)


def _indices(mask) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class _BlockMemo:
    """Classes and generators of the blocks (subsets of support indices) of
    one support, each computed once and keyed by the subset's bitmask.  A
    block's class (and its ideal) is that of its mask without the lowest
    bit, composed with (times) that bit's prime power, so every class is one
    composition and every ideal one multiplication."""

    def __init__(self, support, ring):
        self.support = support
        self.ring = ring
        self._classes = {}
        self._compositions = {}
        self._generators = {}
        self._ideals = {}
        self._holds_zero_sum = {}

    def _compose(self, x, y):
        key = (x, y)
        if key not in self._compositions:
            self._compositions[key] = self.ring.class_compose(x, y)
        return self._compositions[key]

    def _class(self, mask):
        if mask not in self._classes:
            low = mask & -mask
            if mask == low:
                P, e = self.support[low.bit_length() - 1]
                cls = prime = self.ring.ideal_class(P)
                for _ in range(e - 1):
                    cls = self._compose(cls, prime)
            else:
                cls = self._compose(self._class(mask ^ low), self._class(low))
            self._classes[mask] = cls
        return self._classes[mask]

    def zero_sum(self, mask) -> bool:
        return self._class(mask) == self.ring.class_identity

    def _holds(self, mask) -> bool:
        # whether some nonempty sub-block of mask, mask itself included, is zero-sum
        if mask not in self._holds_zero_sum:
            self._holds_zero_sum[mask] = self.zero_sum(mask) or any(
                self._holds(mask ^ bit) for bit in _bits(mask) if mask != bit
            )
        return self._holds_zero_sum[mask]

    def minimal_zero_sum(self, mask) -> bool:
        """Whether the block is zero-sum and no proper nonempty sub-block is:
        exactly when the block is principal and pseudo-irreducible."""
        return self.zero_sum(mask) and not any(self._holds(mask ^ bit) for bit in _bits(mask) if mask != bit)

    def generator(self, mask):
        """Generator of the product of the masked prime powers, or None."""
        if mask not in self._generators:
            g = None
            if self.zero_sum(mask):
                g = self.ring.principal_generator(self._ideal(mask))
                if g is None:
                    raise CertificateError("a block of identity class has no generator")
            self._generators[mask] = g
        return self._generators[mask]

    def _ideal(self, mask):
        if mask not in self._ideals:
            low = mask & -mask
            if mask == low:
                P, e = self.support[low.bit_length() - 1]
                self._ideals[mask] = P**e
            else:
                self._ideals[mask] = self._ideal(mask ^ low) * self._ideal(low)
        return self._ideals[mask]


def _build_factorization(b, ring, blocks, factors) -> ComaxFactorization:
    prod = ring.one
    for f in factors:
        prod = prod * f
    unit = ring.divides(prod, b)
    if unit is None or not ring.is_unit(unit):
        raise CertificateError("factorization does not re-multiply to the input")
    pairwise = []
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            cert = ring.unit_bezout(factors[i], factors[j])
            if cert is None:
                raise CertificateError("factors are not comaximal")
            pairwise.append((i, j, *cert))
    return ComaxFactorization(factors, unit, pairwise, blocks)


def _minimal_zero_sum_partitions(memo: _BlockMemo, rest: int):
    """Each partition of the support indices in the bitmask `rest` into
    minimal zero-sum blocks, as a list of block bitmasks.  The block of the
    lowest index is chosen first, among the subsets of `rest` holding it."""
    if not rest:
        yield []
        return
    low = rest & -rest
    others = rest ^ low
    sub = others
    while True:
        block = sub | low
        if memo.minimal_zero_sum(block):
            for tail in _minimal_zero_sum_partitions(memo, rest ^ block):
                yield [block, *tail]
        if not sub:
            return
        sub = (sub - 1) & others


def walk(b, ring):
    """The support of b and its partitions into minimal zero-sum blocks, as
    (blocks, generators) in the order reports list them; no certificate."""
    cap = support_cap_from_env()
    support = _support_of(b, ring)
    memo = _BlockMemo(support, ring)
    bits = [1 << i for i in range(len(support))]
    alone = [bit for bit in bits if memo.zero_sum(bit)]
    combined = len(bits) - len(alone)
    if combined > cap:
        raise SupportBoundExceeded(f"{combined} support primes of non-identity class exceed the cap {cap}")
    partitions = []
    for partition in _minimal_zero_sum_partitions(memo, sum(bits) - sum(alone)):
        masks = sorted(alone + partition, key=lambda mask: ring.sort_key(memo.generator(mask)))
        partitions.append(([_indices(mask) for mask in masks], [memo.generator(mask) for mask in masks]))
    partitions.sort(key=lambda p: (len(p[1]), [ring.sort_key(g) for g in p[1]]))
    return support, partitions


def certify(b, ring, support, partitions) -> ComaxResult:
    """b, its support and each of the given partitions from `walk` built
    into a factorization: its unit and the Bezout pair of each two factors."""
    return ComaxResult(b, support, [_build_factorization(b, ring, *p) for p in partitions])


def enumerate_complete_factorizations(b, ring) -> ComaxResult:
    """Every complete comaximal factorization of b, certified; one
    factorization means it is unique."""
    return certify(b, ring, *walk(b, ring))


def find_nonunique_witness(ring, norm_bound: int) -> ComaxResult | None:
    """The complete comaximal factorizations of the smallest-norm element
    (scan order: norm, then the ring's order on one associate per element)
    that has at least two, certified, or None within the bound.  A bound
    below 2 scans no norm, so it is refused rather than answered with None."""
    if norm_bound < 2:
        raise ComaxInputError("need --bound >= 2")
    for n in range(2, norm_bound + 1):
        for b in ring.associates_of_norm(n):
            support, partitions = walk(b, ring)
            if len(partitions) > 1:
                return certify(b, ring, support, partitions)
    return None
