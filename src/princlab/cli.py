"""Command-line front end: ring grammar, subcommand dispatch, JSON reports.

Exit codes: 0 = success, 1 = negative mathematical verdict (non-principal,
non-unique, not a pair, no witness found), 2 = input error (any
`ValueError`), 3 = an internal certificate failure: a producer's self-check
(`core.CertificateError`) or a failed `--recheck` pass.  Reports go to
stdout; errors and recheck failures go to stderr.

Handlers parse, call and return: each certificate serializes itself
(`report.enc` falls through to its `to_json`), and one ring-kind guard
(`_ring`, driven by `RING_KINDS`) checks `--ring` for every command.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .comax import (
    ComaxInputError,
    comax_factor_int,
    enumerate_complete_factorizations,
    find_nonunique_witness,
)
from .core import CertificateError
from .exprparse import parse_element, parse_ypoly
from .idem import bezout_in_inverse, complement_identity, idem_matrix, is_idempotent_pair, pair_from_invertible
from .limitring import LimitRing, lr_chain, lr_lift
from .monoidring import MonoidDesc, MonoidRing, juett_split, mr_comax_chain, mr_split
from .polyext import SubringDesc, nonprinc_pair_from_alpha, seminormal_witness
from .pullback import PullbackRing, pb_nonufd_chain, pb_reduce_idem_pair
from .quadring import (
    QuadOrder,
    factor_principal,
    ideal_from_pair,
    ideal_is_invertible,
    ideal_is_principal,
)
from .recheck import verify_report
from .report import dump, enc, make_report
from .rings import QQ, QQ_POLY, ZZ, IntegerRing, LocalizedIntegers
from .sphere import B2, tangent_projector


class CliError(ValueError):
    pass


def parse_monoid_desc(spec: str, group: bool) -> MonoidDesc:
    m = re.fullmatch(r"p-div:(\d+)", spec)
    if m:
        return MonoidDesc(primes=(int(m.group(1)),), group=group)
    m = re.fullmatch(r"mult:\{(\d+(?:,\d+)*)\}", spec)
    if m:
        return MonoidDesc(primes=tuple(int(p) for p in m.group(1).split(",")), group=group)
    raise CliError(f"bad --monoid spec {spec!r}: use p-div:P or mult:{{P1,P2}}")


def _parse_base(text: str):
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    m = re.fullmatch(r"Z\[sqrt\((-?\d+)\)\]", text)
    if m:
        return QuadOrder(int(m.group(1)))
    m = re.fullmatch(r"Z\[1/(\d+(?:,1/\d+)*)\]", text.replace(" ", ""))
    if m:
        primes = [int(p) for p in re.findall(r"\d+", m.group(1))]
        return LocalizedIntegers(primes)
    raise CliError(f"unknown base ring {text!r}")


def parse_ring_spec(text: str, monoid: str | None = None, group: bool = False):
    text = text.strip()
    if text == "B2":
        return B2
    if text == "Q[X]":
        return QQ_POLY
    m = re.fullmatch(r"pullback:(.+)", text)
    if m:
        return PullbackRing(_parse_base(m.group(1)))
    m = re.fullmatch(r"limitring:(.+)", text)
    if m:
        return LimitRing(_parse_base(m.group(1)))
    m = re.fullmatch(r"(.+)\[X;S\]", text)
    if m:
        desc = parse_monoid_desc(monoid or "p-div:2", group)
        return MonoidRing(_parse_base(m.group(1)), desc)
    return _parse_base(text)


# The ring kinds each command group accepts, with the error for any other.
RING_KINDS = {
    "ideal": (QuadOrder, "this command needs --ring 'Z[sqrt(d)]'"),
    "comax": ((QuadOrder, IntegerRing), "comax commands run over Z or Z[sqrt(d)]"),
    "pullback": (PullbackRing, "this command needs --ring 'pullback:BASE'"),
    "mring": (MonoidRing, "this command needs --ring 'BASE[X;S]'"),
    "limitring": (LimitRing, "this command needs --ring 'limitring:BASE'"),
}


def _ring(args):
    """The command's --ring, rejected (exit 2) unless its group accepts it."""
    ring = parse_ring_spec(args.ring, getattr(args, "monoid", None), getattr(args, "group_mode", False))
    kinds, need = RING_KINDS.get(args.group, (object, None))
    if not isinstance(ring, kinds):
        raise CliError(need)
    return ring


# ------------------------------------------------------------ subcommands


def cmd_idem_check(args):
    ring = _ring(args)
    a = parse_element(args.a, ring)
    b = parse_element(args.b, ring)
    pair = is_idempotent_pair(a, b, ring)
    result = {"a": enc(a), "b": enc(b), "pair": None, "complement": None}
    if pair is None:
        return "not_idempotent_pair", ring, result, 1
    result["pair"] = enc(pair)
    result["complement"] = enc(complement_identity(pair))
    return "idempotent_pair", ring, result, 0


def cmd_idem_matrix(args):
    ring = _ring(args)
    a = parse_element(args.a, ring)
    b = parse_element(args.b, ring)
    pair = is_idempotent_pair(a, b, ring)
    result = {"a": enc(a), "b": enc(b), "pair": None}
    if pair is None:
        return "not_idempotent_pair", ring, result, 1
    m = idem_matrix(pair)
    result["pair"] = enc(pair)
    result["matrix"] = enc(m)
    return "idempotent_pair", ring, result, 0


def cmd_idem_from_ideal(args):
    ring = _ring(args)
    a = parse_element(args.a, ring)
    b = parse_element(args.b, ring)
    cert = bezout_in_inverse(a, b, ring)
    result = {"a": enc(a), "b": enc(b)}
    if cert is None:
        return "not_invertible", ring, result, 1
    pair = pair_from_invertible(a, b, cert, ring)
    result["bezout"] = enc(cert)
    result["pair"] = enc(pair)
    result["complement"] = enc(complement_identity(pair))
    return "pair_derived", ring, result, 0


def cmd_ideal_frompair(args):
    ring = _ring(args)
    a = parse_element(args.a, ring)
    b = parse_element(args.b, ring)
    ideal = ideal_from_pair(a, b)
    result = {"a": enc(a), "b": enc(b), "ideal": enc(ideal), "norm": str(ideal.norm())}
    return "normal_form", ring, result, 0


def cmd_ideal_mul(args):
    ring = _ring(args)
    gens = [parse_element(t, ring) for t in (args.a, args.b, args.c, args.e)]
    i = ideal_from_pair(gens[0], gens[1])
    j = ideal_from_pair(gens[2], gens[3])
    p = i.mul(j)
    result = {
        "i": enc(i),
        "j": enc(j),
        "product": enc(p),
        "norms": {"i": str(i.norm()), "j": str(j.norm()), "product": str(p.norm())},
    }
    return "product", ring, result, 0


def cmd_ideal_invertible(args):
    ring = _ring(args)
    ideal = ideal_from_pair(parse_element(args.a, ring), parse_element(args.b, ring))
    cert = ideal_is_invertible(ideal)
    result = {"ideal": enc(ideal), **enc(cert)}
    return ("invertible", ring, result, 0) if cert.invertible else ("not_invertible", ring, result, 1)


def cmd_ideal_principal(args):
    ring = _ring(args)
    ideal = ideal_from_pair(parse_element(args.a, ring), parse_element(args.b, ring))
    v = ideal_is_principal(ideal)
    return v.status, ring, enc(v), 0 if v.principal else 1


def cmd_ideal_factor(args):
    ring = _ring(args)
    b = parse_element(args.b, ring)
    fp = factor_principal(b)
    result = {
        "element": enc(b),
        "factors": [{"prime": enc(p), "exponent": e} for p, e in fp],
    }
    return "factored", ring, result, 0


def _comax_factor_one(ring, text):
    b = parse_element(text, ring)
    if ring == ZZ:
        fact = comax_factor_int(b)
    else:
        facts = enumerate_complete_factorizations(b, ring)
        if not facts:
            raise ComaxInputError(f"{text}: no complete comaximal factorization found")
        fact = facts[0]
    return {"element": enc(b), "factorization": enc(fact)}


def cmd_comax_factor(args):
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise CliError(f"--jobs must be between 1 and {cpus} (the CPU count), got {args.jobs}")
    ring = _ring(args)
    if len(args.values) == 1:
        return "factored", ring, _comax_factor_one(ring, args.values[0]), 0
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_batch_factor_worker, [(args.ring, t) for t in args.values]))
    else:
        results = [_comax_factor_one(ring, t) for t in args.values]
    return "factored", ring, {"batch": results}, 0


def _batch_factor_worker(job):
    ring_text, value_text = job
    return _comax_factor_one(parse_ring_spec(ring_text), value_text)


def cmd_comax_unique(args):
    ring = _ring(args)
    b = parse_element(args.b, ring)
    facts = enumerate_complete_factorizations(b, ring)
    result = {
        "element": enc(b),
        "count": len(facts),
        "factorizations": enc(facts),
    }
    if len(facts) == 1:
        return "unique", ring, result, 0
    return "non_unique", ring, result, 1


def cmd_comax_hunt(args):
    ring = _ring(args)
    hit = find_nonunique_witness(ring, args.bound)
    if hit is None:
        return "no_witness", ring, {"bound": args.bound, "witness": None, "factorizations": []}, 1
    b, facts = hit
    result = {
        "bound": args.bound,
        "witness": enc(b),
        "factorizations": enc(facts),
    }
    return "witness_found", ring, result, 0


def cmd_pullback_reduce(args):
    ring = _ring(args)
    a = parse_element(args.a, ring)
    b = parse_element(args.b, ring)
    if args.witness is not None:
        r = parse_element(args.witness, ring)
        orientation = args.orientation
    else:
        pair = is_idempotent_pair(a, b, ring)
        if pair is None:
            raise CliError("(a, b) is not an idempotent pair and no witness was given")
        r, orientation = pair.witness, pair.orientation
    red = pb_reduce_idem_pair(a, b, r, orientation)
    return red.status, ring, enc(red), 0 if red.status == "principal" else 1


def cmd_pullback_nonufd(args):
    ring = _ring(args)
    z = parse_element(args.z, ring)
    d = parse_element(args.d, ring)
    chain = pb_nonufd_chain(z, d, args.n)
    result = {
        "z": enc(z),
        "d": enc(d),
        "n": args.n,
        "chain": enc(chain),
    }
    return "chain", ring, result, 0


def cmd_mring_split(args):
    ring = _ring(args)
    sp = mr_split(Fraction(args.s), args.n, ring)
    return "split", ring, enc(sp), 0


def cmd_mring_chain(args):
    ring = _ring(args)
    ch = mr_comax_chain(Fraction(args.s), args.m, ring, args.n)
    return "chain", ring, enc(ch), 0


def cmd_mring_juett(args):
    ring = _ring(args)
    js = juett_split(Fraction(args.t), Fraction(args.b), args.p, Fraction(args.beta), ring)
    return "split", ring, enc(js), 0


def cmd_limitring_chain(args):
    ring = _ring(args)
    ch = lr_chain(args.m, ring)
    return "chain", ring, enc(ch), 0


def cmd_limitring_eval(args):
    ring = _ring(args)
    e = parse_element(args.expr, ring)
    if args.level is not None:
        e = lr_lift(e, args.level)
    return "value", ring, {"element": enc(e), "level": e.level}, 0


def _subring(args):
    excluded = {int(t) for t in args.exclude.split(",")} if args.exclude else {1}
    return SubringDesc(excluded)


def cmd_polyext_witness(args):
    desc = _subring(args)
    alpha = parse_ypoly(args.alpha)
    ok = seminormal_witness(alpha, desc)
    result = {
        "alpha": enc(alpha),
        "excluded": sorted(desc.excluded),
        "witness": ok,
    }
    return ("witness", None, result, 0) if ok else ("not_a_witness", None, result, 1)


def cmd_polyext_counterexample(args):
    desc = _subring(args)
    alpha = parse_ypoly(args.alpha)
    ce = nonprinc_pair_from_alpha(alpha, desc)
    return "non_principal_pair", None, enc(ce), 0


def cmd_sphere_projector(args):
    rep = tangent_projector()
    return "projector", B2, enc(rep), 0


def cmd_sphere_reduce(args):
    e = parse_element(args.expr, B2)
    return "reduced", B2, {"element": enc(e)}, 0


# -------------------------------------------------------------- dispatch


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="princlab",
        description="Exact idempotent-pair, ideal, and comaximal-factorization lab "
        "with re-checkable JSON certificates.",
    )
    top.add_argument("--recheck", action="store_true", help="re-verify every certificate with the independent checker")
    top.add_argument("--jobs", type=int, default=1, help="parallel workers for batch inputs")
    groups = top.add_subparsers(dest="group", required=True)

    def add(group, name, fn, ring_default=None, monoid_opts=False):
        p = group.add_parser(name)
        p.set_defaults(handler=fn)
        if ring_default is not None:
            p.add_argument("--ring", default=ring_default)
            if monoid_opts:
                p.add_argument("--monoid", default=None, help="p-div:P or mult:{P1,P2}")
                p.add_argument("--group", dest="group_mode", action="store_true", help="Laurent exponents (group algebra)")
        return p

    idem = groups.add_parser("idem").add_subparsers(dest="cmd", required=True)
    p = add(idem, "check", cmd_idem_check, "Z", monoid_opts=True)
    p.add_argument("a")
    p.add_argument("b")
    p = add(idem, "matrix", cmd_idem_matrix, "Z", monoid_opts=True)
    p.add_argument("a")
    p.add_argument("b")
    p = add(idem, "from-ideal", cmd_idem_from_ideal, "Z", monoid_opts=True)
    p.add_argument("a")
    p.add_argument("b")

    ideal = groups.add_parser("ideal").add_subparsers(dest="cmd", required=True)
    p = add(ideal, "frompair", cmd_ideal_frompair, "Z[sqrt(-5)]")
    p.add_argument("a")
    p.add_argument("b")
    p = add(ideal, "mul", cmd_ideal_mul, "Z[sqrt(-5)]")
    for name in "abce":
        p.add_argument(name)
    p = add(ideal, "invertible", cmd_ideal_invertible, "Z[sqrt(-5)]")
    p.add_argument("a")
    p.add_argument("b")
    p = add(ideal, "principal", cmd_ideal_principal, "Z[sqrt(-5)]")
    p.add_argument("a")
    p.add_argument("b")
    p = add(ideal, "factor", cmd_ideal_factor, "Z[sqrt(-5)]")
    p.add_argument("b")

    comax = groups.add_parser("comax").add_subparsers(dest="cmd", required=True)
    p = add(comax, "factor", cmd_comax_factor, "Z")
    p.add_argument("values", nargs="+")
    p = add(comax, "unique", cmd_comax_unique, "Z")
    p.add_argument("b")
    p = add(comax, "hunt", cmd_comax_hunt, "Z[sqrt(-5)]")
    p.add_argument("--bound", type=int, required=True)

    pullback = groups.add_parser("pullback").add_subparsers(dest="cmd", required=True)
    p = add(pullback, "reduce", cmd_pullback_reduce, "pullback:Z")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("witness", nargs="?", default=None)
    p.add_argument("--orientation", choices=("ab", "ba"), default="ab")
    p = add(pullback, "nonufd", cmd_pullback_nonufd, "pullback:Z")
    p.add_argument("z")
    p.add_argument("d")
    p.add_argument("n", type=int)

    mring = groups.add_parser("mring").add_subparsers(dest="cmd", required=True)
    p = add(mring, "split", cmd_mring_split, "Q[X;S]", monoid_opts=True)
    p.add_argument("--s", default="1")
    p.add_argument("--n", type=int, required=True)
    p = add(mring, "chain", cmd_mring_chain, "Q[X;S]", monoid_opts=True)
    p.add_argument("--s", default="1")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p = add(mring, "juett", cmd_mring_juett, "Q[X;S]", monoid_opts=True)
    p.add_argument("--t", default="1")
    p.add_argument("--b", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--beta", required=True)

    limitring = groups.add_parser("limitring").add_subparsers(dest="cmd", required=True)
    p = add(limitring, "chain", cmd_limitring_chain, "limitring:Q")
    p.add_argument("--m", type=int, required=True)
    p = add(limitring, "eval", cmd_limitring_eval, "limitring:Q")
    p.add_argument("expr")
    p.add_argument("--level", type=int, default=None)

    polyext = groups.add_parser("polyext").add_subparsers(dest="cmd", required=True)
    p = add(polyext, "witness", cmd_polyext_witness)
    p.add_argument("--alpha", required=True)
    p.add_argument("--exclude", default=None, help="comma-separated excluded degrees (default 1)")
    p = add(polyext, "counterexample", cmd_polyext_counterexample)
    p.add_argument("--alpha", required=True)
    p.add_argument("--exclude", default=None)

    sphere = groups.add_parser("sphere").add_subparsers(dest="cmd", required=True)
    add(sphere, "projector", cmd_sphere_projector)
    p = add(sphere, "reduce", cmd_sphere_reduce)
    p.add_argument("expr")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = f"{args.group} {args.cmd}"
    try:
        verdict, ring, result, code = args.handler(args)
    except ValueError as exc:
        print(f"princlab: error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"princlab: internal error: certificate failed its self-check: {exc}", file=sys.stderr)
        return 3
    report = make_report(command, ring, verdict, result)
    if args.recheck:
        failures = verify_report(report)
        if failures:
            print(dump(report))
            for f in failures:
                print(f"princlab: recheck FAILED: {f}", file=sys.stderr)
            return 3
        report["recheck"] = "passed"
    print(dump(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
