"""Seeded op generator for the princlab benchmark.

An op is the argv of one `python -m princlab.cli --recheck ...` call, without
the `--recheck` flag.  Each workload is a list of strata; a stratum is a list
of interchangeable variants of one input size.  A pass draws one variant per
stratum and shuffles them, so every pass of every seed has the same size mix
and the seed only changes which concrete inputs run and in what order.  That
keeps run-to-run spread low while still exercising seed-dependent inputs.

The variants are fixed (built from constant seeds), so every op any seed can
produce is known in advance and its outcome is pinned in `expected.json`.
"""

from __future__ import annotations

import random

WORKLOADS = ("poly-chains", "comax-quad", "cli-mix")

# Imaginary quadratic maximal orders (d = 2, 3 mod 4) used by comax-quad.
QUAD_RINGS = (-5, -6, -10, -14)
# Support 5 is drawn twice per ring, so the median of a pass's 20 calls falls
# inside the support-6 group instead of in the gap between supports 6 and 7.
SUPPORT_SIZES = (5, 5, 6, 7, 8)
VARIANTS_PER_STRATUM = 6
# Norms above this make one exhaustive norm search alone take 8-14 s, which
# would let a single draw dominate a pass.
NORM_CAP = 10**10
_SMALL_PRIMES = tuple(p for p in range(2, 60) if all(p % q for q in range(2, p)))


def op_key(op) -> str:
    return " ".join(op)


# ------------------------------------------------------------- poly-chains


def _poly_chain_strata():
    # m is stratified: each pass has two limitring chains at each m in 6..8
    # and two mring chains at each m in 8..10.  One size step up (limitring
    # 7..9, mring 9..11) raised the run-to-run spread of reports_per_s on a
    # shared 2-vCPU machine from 0.07 to 0.26 (six alternating runs each).
    strata = []
    for m in (6, 7, 8):
        variants = [["limitring", "chain", "--m", str(m), "--ring", f"limitring:{b}"] for b in ("Q", "Z")]
        strata += [variants, variants]
    for m in (8, 9, 10):
        variants = [
            ["mring", "chain", "--m", str(m), "--ring", ring, "--s", s]
            for ring in ("Q[X;S]", "Z[1/2][X;S]")
            for s in ("1", "3", "1/2", "5/4")
        ]
        strata += [variants, variants]
    return strata


# -------------------------------------------------------------- comax-quad


def split_type(d: int, p: int) -> str:
    """How the rational prime p factors in Z[sqrt(d)], d = 2, 3 mod 4."""
    if p == 2 or d % p == 0:
        return "ramified"
    return "split" if pow(d % p, (p - 1) // 2, p) == 1 else "inert"


def _norm_element(d: int, q: int):
    """(x, y) with y > 0 and x*x - d*y*y == q, or None."""
    y = 1
    while -d * y * y <= q:
        rem = q + d * y * y
        x = round(rem**0.5)
        if x * x == rem:
            return x, y
        y += 1
    return None


def quad_element(d: int, k: int, rng: random.Random) -> str:
    """An element of Z[sqrt(d)] whose prime-ideal support has exactly k primes.

    The element is a product of pieces over distinct rational primes p:
    p itself (support 1 if p is inert or ramified, 2 if p splits), or an
    element of norm p for a split p (support 1: one of the two primes).
    The support size is therefore known from the primes chosen.  Draws
    whose norm exceeds NORM_CAP are rejected.
    """
    pieces = []
    for p in _SMALL_PRIMES:
        kind = split_type(d, p)
        pieces.append((p, 2 if kind == "split" else 1, (p, 0)))
        if kind == "split":
            xy = _norm_element(d, p)
            if xy is not None:
                pieces.append((p, 1, (xy[0], rng.choice((1, -1)) * xy[1])))
    while True:
        rng.shuffle(pieces)
        used, size, chosen = set(), 0, []
        for p, weight, xy in sorted(pieces[:12]):
            if p in used or size + weight > k:
                continue
            used.add(p)
            size += weight
            chosen.append(xy)
        if size != k:
            continue
        x, y = 1, 0
        for a, b in chosen:
            x, y = x * a + d * y * b, x * b + y * a
        if x * x - d * y * y <= NORM_CAP:
            break
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y  # the associate without a leading minus, which argparse would take for an option
    if y == 0:
        return str(x)
    return f"{x}{'+' if y > 0 else '-'}{abs(y)}*sqrt({d})"


def _comax_quad_strata():
    strata = []
    for d in QUAD_RINGS:
        for k in SUPPORT_SIZES:
            rng = random.Random(f"comax-quad/{d}/{k}")
            variants = []
            while len(variants) < VARIANTS_PER_STRATUM:
                op = ["comax", "unique", "--ring", f"Z[sqrt({d})]", quad_element(d, k, rng)]
                if op not in variants:
                    variants.append(op)
            strata.append(variants)
    return strata


# ----------------------------------------------------------------- cli-mix


def _cli_mix_strata():
    # One stratum per subcommand (all 22).  Within a stratum every variant
    # takes the same import path (with or without sympy), so the draw does
    # not change the startup cost of a pass.
    quad = [("-5", "2", "1+sqrt(-5)"), ("-5", "3", "1-sqrt(-5)"), ("-6", "5", "2+sqrt(-6)"),
            ("-10", "7", "3+sqrt(-10)"), ("-14", "3", "1+sqrt(-14)"), ("-6", "2", "sqrt(-6)")]
    ring = lambda d: f"Z[sqrt({d})]"
    return [
        [["idem", "check", a, b] for a, b in (("-2", "-3"), ("2", "5"), ("4", "7"), ("0", "17"), ("3", "-2"), ("6", "-5"))],
        [["idem", "matrix", a, b] for a, b in (("-2", "-3"), ("0", "17"), ("2", "5"), ("-4", "-5"))],
        [["idem", "from-ideal", "--ring", ring(d), a, b] for d, a, b in quad],
        [["ideal", "frompair", "--ring", ring(d), a, b] for d, a, b in quad],
        [["ideal", "mul", "--ring", ring(d), a, b, a, b.replace("+", "-")] for d, a, b in quad if "+" in b],
        [["ideal", "invertible", "--ring", ring(d), a, b] for d, a, b in quad],
        [["ideal", "principal", "--ring", ring(d), a, b] for d, a, b in quad],
        [["ideal", "factor", "--ring", ring(d), b] for d, b in (("-5", "6"), ("-5", "1+sqrt(-5)"), ("-14", "15"),
                                                                ("-6", "10"), ("-10", "2+sqrt(-10)"), ("-5", "21"))],
        [["comax", "factor", *vals] for vals in (("360", "1001"), ("84",), ("990", "17"), ("5040",))],
        [["comax", "unique", "--ring", ring(d), b] for d, b in (("-5", "6"), ("-5", "21"), ("-6", "10"),
                                                               ("-10", "14"), ("-14", "15"))],
        [["comax", "hunt", "--ring", ring(d), "--bound", n] for d, n in (("-5", "100"), ("-5", "300"), ("-6", "100"),
                                                                        ("-10", "60"), ("-14", "60"))],
        [["pullback", "reduce", *args] for args in (("Y", "Y-Y^2", "1"), ("3+Y", "2"), ("1+Y", "Y"), ("Y", "1-Y"))],
        [["pullback", "nonufd", "Y", d, n] for d, n in (("2", "3"), ("3", "2"), ("5", "3"), ("2", "4"))],
        [["mring", "split", "--n", n, "--monoid", f"p-div:{n}", "--s", s] for n, s in (("2", "1"), ("3", "1"), ("2", "3"), ("5", "1"))],
        [["mring", "chain", "--m", m, "--ring", r] for m in ("3", "4") for r in ("Q[X;S]", "Z[1/2][X;S]")],
        [["mring", "juett", "--group", "--b", b, "--p", p, "--beta", beta] for b, p, beta in (("1", "2", "1"), ("4", "2", "2"),
                                                                                             ("16", "2", "4"), ("9", "2", "-3"))],
        [["limitring", "chain", "--m", m, "--ring", f"limitring:{b}"] for m in ("3", "4") for b in ("Q", "Z")],
        [["limitring", "eval", e, "--level", lvl] for e, lvl in (("x_2+x_3^2", "4"), ("x_1*x_2", "3"),
                                                                 ("1+x_1^2", "3"), ("x_2-x_1", "4"))],
        [["polyext", "witness", "--alpha", a] for a in ("y", "y^2", "2*y", "y+y^3")],
        [["polyext", "counterexample", "--alpha", a] for a in ("y", "2*y", "3*y", "5*y")],
        [["sphere", "projector"]],
        [["sphere", "reduce", e] for e in ("X0^3", "X0^2+X1^2+X2^2", "X1*X2^2", "X0*X1-X2")],
    ]


_STRATA = {
    "poly-chains": _poly_chain_strata,
    "comax-quad": _comax_quad_strata,
    "cli-mix": _cli_mix_strata,
}

# The smallest Z[sqrt(-5)] op: one fresh interpreter, package import and the
# lazy sympy import, with almost no arithmetic.
SETUP_OP = ["ideal", "frompair", "2", "1+sqrt(-5)"]


def strata(workload: str):
    if workload not in _STRATA:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _STRATA[workload]()


def pool(workload: str) -> list[list[str]]:
    """Every op the generator can emit for this workload, for any seed."""
    out = []
    for stratum in strata(workload):
        for op in stratum:
            if op not in out:
                out.append(op)
    return out


def generate(workload: str, seed: int) -> list[list[str]]:
    """The op list of one pass: one seeded variant per stratum, seeded order."""
    rng = random.Random(f"{workload}/{seed}")
    ops = [list(rng.choice(stratum)) for stratum in strata(workload)]
    rng.shuffle(ops)
    return ops
