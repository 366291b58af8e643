"""Pseudo-irreducibility and complete comaximal factorization in Z and in
maximal imaginary quadratic orders.

In a Dedekind domain two elements are comaximal exactly when their prime
supports are disjoint, so a complete comaximal factorization of b is a set
partition of the prime support of (b) (each prime carrying its full
exponent) whose block products are principal, with every block admitting no
further both-principal split.  Enumerating partitions therefore enumerates
every complete comaximal factorization, which is what makes the uniqueness
analysis exhaustive.

Partitions and splits ask for the same blocks many times over, so the
generator of each block is memoized by its subset of the support (one
`_BlockMemo` per element, never shared between elements).  An element whose
support has k primes therefore costs at most 2^k - 1 principality tests,
however many partitions and splits are examined.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from .core import factorint, xgcd
from .quadring import (
    QuadElem,
    QuadError,
    QuadOrder,
    bezout_pair,
    divides,
    factor_principal,
    ideal_is_principal,
    norm_solutions,
)
from .rings import IntegerRing, ZZ

DEFAULT_SUPPORT_CAP = 8


class SupportBoundExceeded(ValueError):
    pass


class ComaxInputError(ValueError):
    pass


def support_cap_from_env(default: int = DEFAULT_SUPPORT_CAP) -> int:
    raw = os.environ.get("PRINC_LAB_SUPPORT_CAP")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ComaxInputError(f"PRINC_LAB_SUPPORT_CAP={raw!r} is not an integer") from exc


@dataclass
class SplitRecord:
    left: tuple[int, ...]
    right: tuple[int, ...]
    left_generator: Any
    right_generator: Any

    @property
    def comaximal_split(self) -> bool:
        return self.left_generator is not None and self.right_generator is not None


@dataclass
class IrreducibilityTranscript:
    element: Any
    support: list  # [(prime description, exponent)]
    splits: list[SplitRecord] = field(default_factory=list)
    pseudo_irreducible: bool = True
    witness_split: SplitRecord | None = None


@dataclass
class ComaxFactorization:
    ring: Any
    element: Any
    factors: list
    unit: Any
    pairwise: list  # (i, j, lam, mu) with lam*f_i + mu*f_j == 1
    transcripts: list[IrreducibilityTranscript]
    blocks: list  # index blocks into the support, parallel to factors
    support: list

    def verify(self) -> bool:
        ring = self.ring
        prod = ring.one
        for f in self.factors:
            prod = prod * f
        if prod * self.unit != self.element:
            return False
        if not ring.is_unit(self.unit):
            return False
        for i, j, lam, mu in self.pairwise:
            if lam * self.factors[i] + mu * self.factors[j] != ring.one:
                return False
        return all(t.pseudo_irreducible for t in self.transcripts)

    def factor_strs(self):
        return [str(f) for f in self.factors]


def _int_support(n: int):
    return list(factorint(abs(n)).items())


def _quad_support(b: QuadElem):
    fp = factor_principal(b)
    return sorted(fp, key=lambda pe: (pe[0].norm(), pe[0].key()))


def _support_of(b, ring):
    if isinstance(ring, IntegerRing):
        if b == 0 or b in (1, -1):
            raise ComaxInputError("need a nonzero nonunit of Z")
        return _int_support(b)
    if isinstance(ring, QuadOrder):
        if not b:
            raise ComaxInputError("need a nonzero element")
        if b.is_unit():
            raise ComaxInputError("need a nonunit")
        return _quad_support(b)
    raise ComaxInputError(f"comaximal factorization is not supported over {ring}")


class _BlockMemo:
    """Generators of the blocks (subsets of support indices) of one support,
    each computed once and keyed by the subset's bitmask.  A quadratic
    block's ideal is its mask's ideal without the lowest bit, times that
    bit's prime power, so every ideal is one multiplication."""

    def __init__(self, support, ring):
        self.support = support
        self.ring = ring
        self._generators = {}
        self._ideals = {}

    def generator(self, idxs):
        """Generator of the product of the chosen prime powers, or None."""
        mask = 0
        for i in idxs:
            mask |= 1 << i
        if mask not in self._generators:
            if isinstance(self.ring, IntegerRing):
                gen = 1
                for i in idxs:
                    p, e = self.support[i]
                    gen *= p**e
            else:
                verdict = ideal_is_principal(self._ideal(mask))
                gen = verdict.generator if verdict.principal else None
            self._generators[mask] = gen
        return self._generators[mask]

    def _ideal(self, mask):
        if mask not in self._ideals:
            low = mask & -mask
            if mask == low:
                P, e = self.support[low.bit_length() - 1]
                self._ideals[mask] = P.pow(e)
            else:
                self._ideals[mask] = self._ideal(mask ^ low).mul(self._ideal(low))
        return self._ideals[mask]


def _two_partitions(k: int):
    # each unordered split of range(k) into two nonempty parts, once
    for mask in range(1, 1 << (k - 1)):
        left = tuple(i for i in range(k) if mask >> i & 1)
        right = tuple(i for i in range(k) if not mask >> i & 1)
        yield left, right


def _irreducibility(element, memo: _BlockMemo, idxs) -> IrreducibilityTranscript:
    idxs = tuple(idxs)
    support = memo.support
    transcript = IrreducibilityTranscript(
        element, [(support[i][0], support[i][1]) for i in idxs]
    )
    for lpos, rpos in _two_partitions(len(idxs)):
        left = tuple(idxs[i] for i in lpos)
        right = tuple(idxs[i] for i in rpos)
        rec = SplitRecord(left, right, memo.generator(left), memo.generator(right))
        transcript.splits.append(rec)
        if rec.comaximal_split:
            transcript.pseudo_irreducible = False
            transcript.witness_split = rec
            break
    return transcript


def is_pseudo_irreducible(b, ring) -> IrreducibilityTranscript:
    support = _support_of(b, ring)
    return _irreducibility(b, _BlockMemo(support, ring), range(len(support)))


def _bezout_for(f, g, ring):
    if isinstance(ring, IntegerRing):
        gg, s, t = xgcd(f, g)
        if gg != 1:
            raise QuadError("factors are not comaximal")
        return s, t
    cert = bezout_pair(f, g)
    if cert is None:
        raise QuadError("factors are not comaximal")
    return cert


def _factor_sort_key(f, ring):
    if isinstance(ring, IntegerRing):
        return (abs(f), -f)
    return (f.norm(), f.x, f.y)


def _build_factorization(b, memo: _BlockMemo, blocks, generators) -> ComaxFactorization:
    ring = memo.ring
    order = sorted(range(len(blocks)), key=lambda i: _factor_sort_key(generators[i], ring))
    blocks = [tuple(blocks[i]) for i in order]
    factors = [generators[i] for i in order]
    prod = ring.one
    for f in factors:
        prod = prod * f
    if isinstance(ring, IntegerRing):
        unit = b // prod
    else:
        unit = divides(prod, b)
    if unit is None or not ring.is_unit(unit) or prod * unit != b:
        raise QuadError("factorization does not re-multiply to the input")
    pairwise = []
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            lam, mu = _bezout_for(factors[i], factors[j], ring)
            pairwise.append((i, j, lam, mu))
    transcripts = [_irreducibility(factors[i], memo, blocks[i]) for i in range(len(blocks))]
    fact = ComaxFactorization(ring, b, factors, unit, pairwise, transcripts, blocks, memo.support)
    if not fact.verify():
        raise QuadError("factorization certificates failed to verify")
    return fact


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def enumerate_complete_factorizations(b, ring, support_cap: int | None = None) -> list[ComaxFactorization]:
    """Every complete comaximal factorization of b, one per valid partition
    of the prime support; length 1 means the factorization is unique."""
    cap = support_cap if support_cap is not None else support_cap_from_env()
    support = _support_of(b, ring)
    if len(support) > cap:
        raise SupportBoundExceeded(
            f"support size {len(support)} exceeds the cap {cap}"
        )
    memo = _BlockMemo(support, ring)
    out = []
    for partition in _set_partitions(range(len(support))):
        generators = []
        ok = True
        for block in partition:
            g = memo.generator(block)
            if g is None:
                ok = False
                break
            generators.append(g)
        if not ok:
            continue
        if any(
            not _irreducibility(generators[i], memo, partition[i]).pseudo_irreducible
            for i in range(len(partition))
        ):
            continue
        out.append(_build_factorization(b, memo, partition, generators))
    out.sort(key=lambda f: (len(f.factors), [_factor_sort_key(x, ring) for x in f.factors]))
    return out


def comax_factor_int(n: int) -> ComaxFactorization:
    """The complete comaximal factorization of an integer |n| >= 2: its
    prime-power parts, with extended-Euclid comaximality certificates."""
    if n == 0 or n in (1, -1):
        raise ComaxInputError("need a nonzero nonunit of Z")
    support = _int_support(n)
    blocks = [(i,) for i in range(len(support))]
    generators = [p**e for p, e in support]
    return _build_factorization(n, _BlockMemo(support, ZZ), blocks, generators)


def find_nonunique_witness(ring, norm_bound: int, support_cap: int | None = None):
    """Smallest-norm element (scan order: norm, then lex (x, y)) with at
    least two complete comaximal factorizations, or None within the bound."""
    if isinstance(ring, IntegerRing):
        for n in range(2, norm_bound + 1):
            facts = enumerate_complete_factorizations(n, ring, support_cap)
            if len(facts) > 1:
                return n, facts
        return None
    if not isinstance(ring, QuadOrder):
        raise ComaxInputError(f"witness hunt is not supported over {ring}")
    for n in range(2, norm_bound + 1):
        # one associate of each element of norm n (y > 0, or y == 0 < x), in lex order
        reps = sorted((x, y) for x, y in norm_solutions(n, ring.d) if y > 0 or (y == 0 and x > 0))
        for x, y in reps:
            b = QuadElem(x, y, ring.d)
            if b.is_unit():
                continue
            facts = enumerate_complete_factorizations(b, ring, support_cap)
            if len(facts) > 1:
                return b, facts
    return None
