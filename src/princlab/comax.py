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
generator of each block, and the irreducibility transcript of that
generator, are memoized by the block's subset of the support (one
`_BlockMemo` per element, never shared between elements).  An element whose
support has k primes therefore costs at most 2^k - 1 principality tests and
2^k - 1 transcripts, however many partitions and splits are examined.

Everything that depends on the ring family (the prime support, block
generators, Bezout certificates, factor order, the witness scan) is a hook
of the ring handle; see `rings`.

The certificates (`SplitRecord`, `IrreducibilityTranscript`,
`ComaxFactorization`) are plain classes with an explicit `__init__`, built
per block and per partition; see `core` for why not dataclasses.
"""

from __future__ import annotations

import os

from .core import CertificateError, pairwise_json
from .rings import ZZ

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


class SplitRecord:
    def __init__(self, left: tuple[int, ...], right: tuple[int, ...], left_generator, right_generator):
        self.left = left
        self.right = right
        self.left_generator = left_generator
        self.right_generator = right_generator

    @property
    def comaximal_split(self) -> bool:
        return self.left_generator is not None and self.right_generator is not None

    def to_json(self, enc):
        return {
            "left": list(self.left),
            "right": list(self.right),
            "left_generator": enc(self.left_generator),
            "right_generator": enc(self.right_generator),
        }


class IrreducibilityTranscript:
    def __init__(self, element, support: list):
        self.element = element
        self.support = support  # [(prime description, exponent)]
        self.splits: list[SplitRecord] = []
        self.pseudo_irreducible = True
        self.witness_split: SplitRecord | None = None

    def to_json(self, enc):
        return {
            "element": enc(self.element),
            "pseudo_irreducible": self.pseudo_irreducible,
            "splits": enc(self.splits),
        }


class ComaxFactorization:
    def __init__(self, ring, element, factors: list, unit, pairwise: list,
                 transcripts: list[IrreducibilityTranscript], blocks: list, support: list):
        self.ring = ring
        self.element = element
        self.factors = factors
        self.unit = unit
        self.pairwise = pairwise  # (i, j, lam, mu) with lam*f_i + mu*f_j == 1
        self.transcripts = transcripts
        self.blocks = blocks  # index blocks into the support, parallel to factors
        self.support = support

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

    def to_json(self, enc):
        return {
            "element": enc(self.element),
            "factors": enc(self.factors),
            "unit": enc(self.unit),
            "pairwise": pairwise_json(self.pairwise, enc),
            "support": [{"prime": enc(p), "exponent": e} for p, e in self.support],
            "blocks": [list(b) for b in self.blocks],
            "transcripts": enc(self.transcripts),
        }


def _support_of(b, ring):
    if not hasattr(ring, "prime_support"):
        raise ComaxInputError(f"comaximal factorization is not supported over {ring}")
    if not b or ring.is_unit(b):
        raise ComaxInputError(f"need a nonzero nonunit of {ring}")
    return ring.prime_support(b)


def _mask(idxs) -> int:
    mask = 0
    for i in idxs:
        mask |= 1 << i
    return mask


class _BlockMemo:
    """Generators and irreducibility transcripts of the blocks (subsets of
    support indices) of one support, each computed once and keyed by the
    subset's bitmask.  A block's ideal is its mask's ideal without the
    lowest bit, times that bit's prime power, so every ideal is one
    multiplication."""

    def __init__(self, support, ring):
        self.support = support
        self.ring = ring
        self._generators = {}
        self._ideals = {}
        self._transcripts = {}

    def generator(self, idxs):
        """Generator of the product of the chosen prime powers, or None."""
        mask = _mask(idxs)
        if mask not in self._generators:
            self._generators[mask] = self.ring.principal_generator(self._ideal(mask))
        return self._generators[mask]

    def transcript(self, idxs) -> "IrreducibilityTranscript":
        """The transcript of a principal block's generator; idxs ascending,
        as every partition and factorization lists them."""
        mask = _mask(idxs)
        if mask not in self._transcripts:
            self._transcripts[mask] = _irreducibility(self.generator(idxs), self, idxs)
        return self._transcripts[mask]

    def _ideal(self, mask):
        if mask not in self._ideals:
            low = mask & -mask
            if mask == low:
                P, e = self.support[low.bit_length() - 1]
                self._ideals[mask] = P**e
            else:
                self._ideals[mask] = self._ideal(mask ^ low) * self._ideal(low)
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


def _build_factorization(b, memo: _BlockMemo, blocks, generators) -> ComaxFactorization:
    ring = memo.ring
    order = sorted(range(len(blocks)), key=lambda i: ring.sort_key(generators[i]))
    blocks = [tuple(blocks[i]) for i in order]
    factors = [generators[i] for i in order]
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
    transcripts = [memo.transcript(block) for block in blocks]
    fact = ComaxFactorization(ring, b, factors, unit, pairwise, transcripts, blocks, memo.support)
    if not fact.verify():
        raise CertificateError("factorization certificates failed to verify")
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
        if any(not memo.transcript(block).pseudo_irreducible for block in partition):
            continue
        out.append(_build_factorization(b, memo, partition, generators))
    out.sort(key=lambda f: (len(f.factors), [ring.sort_key(x) for x in f.factors]))
    return out


def comax_factor_int(n: int) -> ComaxFactorization:
    """The complete comaximal factorization of an integer |n| >= 2: its
    prime-power parts, with extended-Euclid comaximality certificates."""
    support = _support_of(n, ZZ)
    blocks = [(i,) for i in range(len(support))]
    generators = [p**e for p, e in support]
    return _build_factorization(n, _BlockMemo(support, ZZ), blocks, generators)


def find_nonunique_witness(ring, norm_bound: int, support_cap: int | None = None):
    """Smallest-norm element (scan order: norm, then the ring's order on one
    associate per element) with at least two complete comaximal
    factorizations, or None within the bound."""
    if not hasattr(ring, "associates_of_norm"):
        raise ComaxInputError(f"witness hunt is not supported over {ring}")
    for n in range(2, norm_bound + 1):
        for b in ring.associates_of_norm(n):
            facts = enumerate_complete_factorizations(b, ring, support_cap)
            if len(facts) > 1:
                return b, facts
    return None
