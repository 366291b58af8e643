"""Command-line front end: ring grammar, subcommand dispatch, JSON reports.

Exit codes: 0 = success, 1 = negative mathematical verdict (non-principal,
non-unique, not a pair, no witness found), 2 = input error (any
`ValueError`), 3 = an internal certificate failure on any call: a
producer's "(bug)" guard (`core.CertificateError`) or a report that fails
`recheck`, 141 = stdout's reader closed the pipe before the report was
written (`... | head -c 1`; 141 is what a shell shows for a process SIGPIPE
ended, and a failed recheck still exits 3).  Reports go to stdout; errors
and recheck failures go to stderr.

`main` runs `recheck.verify_report` on every report; producers do not check
their own certificates.  A failing report is printed, its failures go to
stderr, and the call exits 3.  `--recheck` selects no code path: it only
writes `"recheck": "passed"` into a report that passed.

Writing a report.  Handlers encode their results with `enc`, which is
`report.tree`: certificates become dicts and lists, and every ring element
and ideal stays the producer's immutable object.  So the report that
`verify_report` checks and `report.dump` writes holds no JSON of a value;
each of them builds a value's JSON when it reaches it and drops it after.
`main` calls `report.dump` once, with `sys.stdout.write` as its writer, so
each batch of the text goes to stdout as soon as it is joined (see
`report`): the text is never held whole, and writing a report holds a few
kB, and one value's JSON, on top of the report tree.

One row of `COMMANDS` per subcommand gives its group, name, handler, ring
and operands; `GROUPS` gives the ring families each group accepts.  From
these `main` reads argv, checks `--ring` and converts the operands, then
calls `handler(ring, **operands)`, which returns the verdict, the result and
the exit code.  Each certificate serializes itself (`enc` falls through to
its `to_json`).

Reading argv.  `_TOP` and `_arguments(row)` describe each flag and operand
once, in argparse's keywords.  `build_parser` hands them to argparse, and
`_read` reads from them the plain grammar: top-level flags, the group and
command names, then the command's flags around one run of operands.  A flag
is spelled in full, its value the next word or after "=", and the last of a
repeated flag wins.  An operand is a word that does not start with "-", or a
negative number; the run fills the operands by their nargs (None, `?`, `+`).
`type`, `choices`, `required` and `default` act as in argparse.  Any other
argv (help, an abbreviated or unknown flag, `--`, a second run of operands,
a type, choice or count error) goes to `build_parser(argv).parse_args(argv)`.
`argparse` (and with it `gettext` and `locale`) is imported only inside
`build_parser`, so a plain call never loads it.

Imports.  At import this module runs only `core`, `rings`, `report` and
the `recheck` package's `__init__`.  Each family module (`comax`, `idem`,
`quadring`, ...), the polynomial code `poly`, Z[1/p]'s `zloc` and the
operand parser `exprparse` is put in `sys.modules` by importlib's
`LazyLoader` and runs on its first attribute access: the first handler,
ring spec or converter that reads it, or a family module that imports
from it.  So a call over Z or Z[sqrt(d)] runs neither `poly` nor `zloc`,
only element and y-polynomial operands run `exprparse`, and a tool that
rebinds module functions after `import princlab.cli` (perfbench's traced
child) still finds every module.  `GROUPS` names ring families by their
`to_json()` family, so checking `--ring` loads nothing either.
`verify_report` imports the checker's `values` part and the one verifier
part its command needs (`recheck.orders`, `recheck.pairs` or
`recheck.examples`) when it first runs, and `values` imports `polys` only
for a value outside Z and Z[sqrt(d)].

A shell call (`python -m princlab.cli`, or the installed `princlab` script)
enters through `run`.  Once `main` has returned and stdout and stderr are
flushed, the report is complete, so `run` ends the process with
`os._exit`: the interpreter's teardown (a full garbage collection, freeing
every module and object, the `atexit` hooks) writes no byte and would cost
every call about 16 ms of CPU (CPython 3.11, shared 2-vCPU Linux machine).
`main` still returns its code, so in-process callers exit normally.
Anything but a normal return from `main` (argparse's `SystemExit` after help
or a usage error, an uncaught exception) propagates as usual, and so does a
flush that fails, through `sys.exit`, unless it fails on a closed pipe: that
call exits 141.
"""

from __future__ import annotations

import importlib.util
import os
import re
import sys
from types import SimpleNamespace

from .core import CertificateError
from .rational import Fraction
from .recheck import verify_report
from .report import dump, make_report
from .report import tree as enc
from .rings import QQ, ZZ


def _family(name):
    """The package module `name`: in `sys.modules` from now on, run on its
    first attribute access."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


comax, exprparse, idem, limitring, monoidring, poly, polyext, pullback, quadring, sphere, zloc = map(
    _family, "comax exprparse idem limitring monoidring poly polyext pullback quadring sphere zloc".split())


# 128 + SIGPIPE: the status a shell shows for a process a closed pipe ended
EXIT_CLOSED_PIPE = 141


class CliError(ValueError):
    pass


def parse_monoid_desc(spec: str, group: bool):
    m = re.fullmatch(r"p-div:(\d+)", spec)
    if m:
        return monoidring.MonoidDesc(primes=(int(m.group(1)),), group=group)
    m = re.fullmatch(r"mult:\{(\d+(?:,\d+)*)\}", spec)
    if m:
        return monoidring.MonoidDesc(primes=tuple(int(p) for p in m.group(1).split(",")), group=group)
    raise CliError(f"bad --monoid spec {spec!r}: use p-div:P or mult:{{P1,P2}}")


def _parse_base(text: str):
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    m = re.fullmatch(r"Z\[sqrt\((-?\d+)\)\]", text)
    if m:
        return quadring.QuadOrder(int(m.group(1)))
    m = re.fullmatch(r"Z\[1/(\d+(?:,1/\d+)*)\]", text.replace(" ", ""))
    if m:
        primes = [int(p) for p in re.findall(r"\d+", m.group(1))]
        return zloc.LocalizedIntegers(primes)
    raise CliError(f"unknown base ring {text!r}")


def parse_ring_spec(text: str, monoid: str | None = None, group: bool = False):
    text = text.strip()
    if text == "B2":
        return sphere.B2
    if text == "Q[X]":
        return poly.QQ_POLY
    m = re.fullmatch(r"pullback:(.+)", text)
    if m:
        return pullback.PullbackRing(_parse_base(m.group(1)))
    m = re.fullmatch(r"limitring:(.+)", text)
    if m:
        return limitring.LimitRing(_parse_base(m.group(1)))
    m = re.fullmatch(r"(.+)\[X;S\]", text)
    if m:
        desc = parse_monoid_desc(monoid or "p-div:2", group)
        return monoidring.MonoidRing(_parse_base(m.group(1)), desc)
    return _parse_base(text)


# ------------------------------------------------------------ subcommands
# Each handler takes the ring and its converted operands and returns
# (verdict, result, exit code).


def cmd_idem_check(ring, a, b):
    pair = idem.is_idempotent_pair(a, b, ring)
    result = {"a": enc(a), "b": enc(b), "pair": None, "complement": None}
    if pair is None:
        return "not_idempotent_pair", result, 1
    result.update(pair=enc(pair), complement=enc(idem.complement_identity(pair)))
    return "idempotent_pair", result, 0


def cmd_idem_matrix(ring, a, b):
    pair = idem.is_idempotent_pair(a, b, ring)
    result = {"a": enc(a), "b": enc(b), "pair": None}
    if pair is None:
        return "not_idempotent_pair", result, 1
    m = idem.idem_matrix(pair)
    result.update(pair=enc(pair), matrix=enc(m))
    return "idempotent_pair", result, 0


def cmd_idem_from_ideal(ring, a, b):
    cert = idem.bezout_in_inverse(a, b, ring)
    result = {"a": enc(a), "b": enc(b)}
    if cert is None:
        return "not_invertible", result, 1
    pair = idem.pair_from_invertible(a, b, cert, ring)
    result.update(bezout=enc(cert), pair=enc(pair), complement=enc(idem.complement_identity(pair)))
    return "pair_derived", result, 0


def cmd_ideal_frompair(ring, a, b):
    ideal = quadring.ideal_from_pair(a, b)
    result = {"a": enc(a), "b": enc(b), "ideal": enc(ideal), "norm": str(ideal.norm())}
    return "normal_form", result, 0


def cmd_ideal_mul(ring, a, b, c, e):
    i, j = quadring.ideal_from_pair(a, b), quadring.ideal_from_pair(c, e)
    p = i.mul(j)
    norms = {"i": str(i.norm()), "j": str(j.norm()), "product": str(p.norm())}
    return "product", {"i": enc(i), "j": enc(j), "product": enc(p), "norms": norms}, 0


def cmd_ideal_invertible(ring, a, b):
    ideal = quadring.ideal_from_pair(a, b)
    cert = quadring.ideal_is_invertible(ideal)
    result = {"ideal": enc(ideal), **enc(cert)}
    return ("invertible", result, 0) if cert.invertible else ("not_invertible", result, 1)


def cmd_ideal_principal(ring, a, b):
    v = quadring.ideal_is_principal(quadring.ideal_from_pair(a, b))
    return v.status, enc(v), 0 if v.principal else 1


def cmd_ideal_factor(ring, b):
    fp = quadring.factor_principal(b)
    return "factored", {"element": enc(b), "factors": [{"prime": enc(p), "exponent": e} for p, e in fp]}, 0


def _comax_factor_one(ring, b):
    # the first of a complete list: the whole support is zero-sum, so it
    # always splits into minimal zero-sum blocks
    found = comax.comax_factor_int(b) if ring == ZZ else comax.enumerate_complete_factorizations(b, ring)
    result = found.to_json(enc)
    result["factorization"] = result.pop("factorizations")[0]
    return result


def cmd_comax_factor(ring, values, jobs):
    if len(values) == 1:
        return "factored", _comax_factor_one(ring, values[0]), 0
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_comax_factor_one, [ring] * len(values), values))
    else:
        results = [_comax_factor_one(ring, b) for b in values]
    return "factored", {"batch": results}, 0


def cmd_comax_unique(ring, b):
    found = comax.enumerate_complete_factorizations(b, ring)
    result = {"count": len(found.factorizations), **enc(found)}
    return ("unique", result, 0) if result["count"] == 1 else ("non_unique", result, 1)


def cmd_comax_hunt(ring, bound):
    found = comax.find_nonunique_witness(ring, bound)
    if found is None:
        return "no_witness", {"bound": bound, "witness": None, "factorizations": []}, 1
    return "witness_found", {"bound": bound, **found.to_json(enc, "witness")}, 0


def cmd_pullback_reduce(ring, a, b, witness, orientation):
    if witness is None:
        pair = idem.is_idempotent_pair(a, b, ring)
        if pair is None:
            raise CliError("(a, b) is not an idempotent pair and no witness was given")
        witness, orientation = pair.witness, pair.orientation
    red = pullback.pb_reduce_idem_pair(a, b, witness, orientation)
    return red.status, enc(red), 0 if red.status == "principal" else 1


def cmd_pullback_nonufd(ring, z, d, n):
    chain = pullback.pb_nonufd_chain(z, d, n)
    return "chain", {"z": enc(z), "d": enc(d), "n": n, "chain": enc(chain)}, 0


def cmd_mring_split(ring, s, n):
    return "split", enc(monoidring.mr_split(s, n, ring)), 0


def cmd_mring_chain(ring, s, m, n):
    return "chain", enc(monoidring.mr_comax_chain(s, m, ring, n)), 0


def cmd_mring_juett(ring, t, b, p, beta):
    return "split", enc(monoidring.juett_split(t, b, p, beta, ring)), 0


def cmd_limitring_chain(ring, m):
    return "chain", enc(limitring.lr_chain(m, ring)), 0


def cmd_limitring_eval(ring, expr, level):
    if level is not None:
        expr = limitring.lr_lift(expr, level)
    return "value", {"element": enc(expr), "level": expr.level}, 0


def cmd_polyext_witness(ring, alpha, exclude):
    ok = polyext.seminormal_witness(alpha, exclude)
    result = {"alpha": enc(alpha), "excluded": sorted(exclude.excluded), "witness": ok}
    return ("witness", result, 0) if ok else ("not_a_witness", result, 1)


def cmd_polyext_counterexample(ring, alpha, exclude):
    return "non_principal_pair", enc(polyext.nonprinc_pair_from_alpha(alpha, exclude)), 0


def cmd_sphere_projector(ring):
    return "projector", enc(sphere.tangent_projector()), 0


def cmd_sphere_reduce(ring, expr):
    return "reduced", {"element": enc(expr)}, 0


# ---------------------------------------------------------- command table
# Operand converters run inside main's error handling, so bad input exits 2.
# They reach the parsers through the `exprparse` module, whose functions a
# tracer may rebind after import.


def _elem(text, ring):
    return text if text is None else exprparse.parse_element(text, ring)


def _elems(texts, ring):
    return [_elem(t, ring) for t in texts]


def _frac(text, ring):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise CliError(f"{text}: division by zero") from None


def _ypoly(text, ring):
    return exprparse.parse_ypoly(text)


def _excluded(text, ring):
    """The monomial subring without the listed degrees (absent: degree 1)."""
    return polyext.SubringDesc({1} if text is None else map(int, text.split(",")) if text else ())


def _b2():
    return sphere.B2


def _arg(flag, convert=None, **kwargs):
    """An operand: its argparse flag and keywords, and the converter from
    the parsed text to the handler's value (None keeps argparse's value)."""
    return flag, convert, kwargs


_AB = (_arg("a", _elem), _arg("b", _elem))
# the top-level --jobs, which the subcommand parser does not take
_JOBS = ("jobs", None, None)

# group: (the ring families it accepts, or None for any; the error for any
# other ring; whether --monoid/--group apply)
GROUPS = {
    "idem": (None, None, True),
    "ideal": ({"quad"}, "this command needs --ring 'Z[sqrt(d)]'", False),
    "comax": ({"quad", "int"}, "comax commands run over Z or Z[sqrt(d)]", False),
    "pullback": ({"pullback"}, "this command needs --ring 'pullback:BASE'", False),
    "mring": ({"monoid"}, "this command needs --ring 'BASE[X;S]'", True),
    "limitring": ({"limit"}, "this command needs --ring 'limitring:BASE'", False),
    "polyext": (None, None, False),
    "sphere": (None, None, False),
}

# (group, name, handler, ring, operands).  The ring is the --ring default,
# None, or a function that gives a fixed ring when the command runs.
# Handlers are named, not held, and looked up when called, so a tracer that
# rebinds `cmd_*` sees the call.
COMMANDS = (
    ("idem", "check", "cmd_idem_check", "Z", _AB),
    ("idem", "matrix", "cmd_idem_matrix", "Z", _AB),
    ("idem", "from-ideal", "cmd_idem_from_ideal", "Z", _AB),
    ("ideal", "frompair", "cmd_ideal_frompair", "Z[sqrt(-5)]", _AB),
    ("ideal", "mul", "cmd_ideal_mul", "Z[sqrt(-5)]", tuple(_arg(n, _elem) for n in "abce")),
    ("ideal", "invertible", "cmd_ideal_invertible", "Z[sqrt(-5)]", _AB),
    ("ideal", "principal", "cmd_ideal_principal", "Z[sqrt(-5)]", _AB),
    ("ideal", "factor", "cmd_ideal_factor", "Z[sqrt(-5)]", (_arg("b", _elem),)),
    ("comax", "factor", "cmd_comax_factor", "Z", (_arg("values", _elems, nargs="+"), _JOBS)),
    ("comax", "unique", "cmd_comax_unique", "Z", (_arg("b", _elem),)),
    ("comax", "hunt", "cmd_comax_hunt", "Z[sqrt(-5)]", (_arg("--bound", type=int, required=True),)),
    ("pullback", "reduce", "cmd_pullback_reduce", "pullback:Z", (
        *_AB, _arg("witness", _elem, nargs="?", default=None),
        _arg("--orientation", choices=("ab", "ba"), default="ab"),
    )),
    ("pullback", "nonufd", "cmd_pullback_nonufd", "pullback:Z", (
        _arg("z", _elem), _arg("d", _elem), _arg("n", type=int),
    )),
    ("mring", "split", "cmd_mring_split", "Q[X;S]", (
        _arg("--s", _frac, default="1"), _arg("--n", type=int, required=True),
    )),
    ("mring", "chain", "cmd_mring_chain", "Q[X;S]", (
        _arg("--s", _frac, default="1"), _arg("--m", type=int, required=True), _arg("--n", type=int, default=None),
    )),
    ("mring", "juett", "cmd_mring_juett", "Q[X;S]", (
        _arg("--t", _frac, default="1"), _arg("--b", _frac, required=True),
        _arg("--p", type=int, required=True), _arg("--beta", _frac, required=True),
    )),
    ("limitring", "chain", "cmd_limitring_chain", "limitring:Q", (_arg("--m", type=int, required=True),)),
    ("limitring", "eval", "cmd_limitring_eval", "limitring:Q", (
        _arg("expr", _elem), _arg("--level", type=int, default=None),
    )),
    ("polyext", "witness", "cmd_polyext_witness", None, (
        _arg("--alpha", _ypoly, required=True),
        _arg("--exclude", _excluded, default=None, help="comma-separated excluded degrees (default 1)"),
    )),
    ("polyext", "counterexample", "cmd_polyext_counterexample", None, (
        _arg("--alpha", _ypoly, required=True), _arg("--exclude", _excluded, default=None),
    )),
    ("sphere", "projector", "cmd_sphere_projector", _b2, ()),
    ("sphere", "reduce", "cmd_sphere_reduce", _b2, (_arg("expr", _elem),)),
)

# ----------------------------------------------------------- reading argv

# the top-level flags, as (flag, argparse keywords)
_TOP = (
    ("--recheck", {"action": "store_true", "help": 'write "recheck": "passed" (every call rechecks its report)'}),
    ("--jobs", {"type": int, "default": 1, "help": "parallel workers for batch inputs"}),
)
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _arguments(row):
    """The (flag, argparse keywords) of each argument of the row's parser."""
    group, _, _, ring, operands = row
    if isinstance(ring, str):
        yield "--ring", {"default": ring}
        if GROUPS[group][2]:
            yield "--monoid", {"default": None, "help": "p-div:P or mult:{P1,P2}"}
            yield "--group", {"dest": "group_mode", "action": "store_true", "help": "Laurent exponents (group algebra)"}
    for flag, _, kwargs in operands:
        if kwargs is not None:
            yield flag, kwargs


def _operand(word):
    return not word.startswith("-") or _NEGATIVE.match(word)


def _value(kwargs, text):
    """An argument's value from its text, through `type` and `choices`;
    ValueError where argparse reads it otherwise or not at all."""
    value = kwargs.get("type", str)(text)
    if text == "--" or value not in kwargs.get("choices", (value,)):
        raise ValueError
    return value


def _flags(words, i, flags, values):
    """Read the flags from words[i] on into values, the last of a repeated
    flag winning; the index of the first word that is no flag."""
    while i < len(words):
        flag, eq, text = words[i].partition("=")
        kwargs = flags.get(flag)
        if kwargs is None:
            return i
        i += 1
        if kwargs.get("action") == "store_true":
            if eq:
                raise ValueError
            value = True
        else:
            if not eq:
                if i == len(words) or not _operand(words[i]):
                    raise ValueError
                text, i = words[i], i + 1
            value = _value(kwargs, text)
        values[kwargs.get("dest", flag.lstrip("-"))] = value
    return i


def _defaults(arguments, values):
    """values with the default of each argument not given; ValueError for a
    required one."""
    for flag, kwargs in arguments:
        dest = kwargs.get("dest", flag.lstrip("-"))
        if dest not in values:
            if kwargs.get("required"):
                raise ValueError
            default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
            values[dest] = _value(kwargs, default) if isinstance(default, str) else default
    return values


def _command(words, arguments):
    """{dest: value} for a command's words: flags, one run of operands, flags.
    The run fills the operands in turn; a "?" takes a word only if one is
    spare, a "+" takes every spare word."""
    flags = {flag: kwargs for flag, kwargs in arguments if flag.startswith("-")}
    values = {}
    start = _flags(words, 0, flags, values)
    end = next((i for i in range(start, len(words)) if not _operand(words[i])), len(words))
    if _flags(words, end, flags, values) < len(words):
        raise ValueError  # an unknown word, or a second run of operands
    run = words[start:end]
    operands = [(flag, kwargs) for flag, kwargs in arguments if flag not in flags]
    for k, (dest, kwargs) in enumerate(operands):
        nargs = kwargs.get("nargs")
        spare = len(run) - sum(kw.get("nargs") != "?" for _, kw in operands[k:])
        if spare < 0:
            raise ValueError
        n = {None: 1, "?": min(1, spare), "+": 1 + spare}[nargs]
        texts, run = run[:n], run[n:]
        if texts:
            values[dest] = [_value(kwargs, t) for t in texts] if nargs == "+" else _value(kwargs, texts[0])
    if run:
        raise ValueError
    return _defaults(arguments, values)


def _read(argv):
    """The namespace `build_parser().parse_args(argv)` gives an argv in the
    plain grammar; None for any other argv, and on a CPython this reader was
    not checked against (3.10 to 3.13 were)."""
    if not (3, 10) <= sys.version_info[:2] <= (3, 13):
        return None
    top = {}
    try:
        at = _flags(argv, 0, dict(_TOP), top)
        row = next((row for row in COMMANDS if row[:2] == tuple(argv[at : at + 2])), None)
        values = row and _command(argv[at + 2 :], tuple(_arguments(row)))
        top = _defaults(_TOP, top)
    except ValueError:
        return None
    return row and SimpleNamespace(**top, group=row[0], cmd=row[1], row=row, **values)


# -------------------------------------------------------------- dispatch


def _reachable(argv):
    """The rows argparse can enter for argv: those of the first group argv
    names, narrowed to the command the next token names, if it names one;
    every row when argv names no group."""
    at = next((i for i, word in enumerate(argv) if word in GROUPS), None)
    if at is None:
        return COMMANDS
    rows = [row for row in COMMANDS if row[0] == argv[at]]
    return [row for row in rows if row[1] in argv[at + 1 : at + 2]] or rows


def build_parser(argv=()):
    """The argparse parser of every command, or, given argv, of the commands
    argv can reach; the other groups stay bare.  Usage and help read the
    same.  The one place `argparse` is imported."""
    import argparse

    top = argparse.ArgumentParser(
        prog="princlab",
        description="Exact idempotent-pair, ideal, and comaximal-factorization lab "
        "with re-checkable JSON certificates.",
    )
    for flag, kwargs in _TOP:
        top.add_argument(flag, **kwargs)
    groups = top.add_subparsers(dest="group", required=True)
    rows = _reachable(argv)
    entered = {row[0] for row in rows}
    parsers = {g: groups.add_parser(g, add_help=g in entered) for g in GROUPS}
    subs = {g: parsers[g].add_subparsers(dest="cmd", required=True) for g in entered}
    for row in rows:
        p = subs[row[0]].add_parser(row[1])
        p.set_defaults(row=row)
        for flag, kwargs in _arguments(row):
            p.add_argument(flag, **kwargs)
    return top


def _command_ring(args, ring):
    """The row's fixed ring, or its --ring, rejected (exit 2) unless the
    group accepts it."""
    if not isinstance(ring, str):
        return ring and ring()
    monoid, group_mode = getattr(args, "monoid", None), getattr(args, "group_mode", False)
    ring = parse_ring_spec(args.ring, monoid, group_mode)
    families, need, _ = GROUPS[args.group]
    family = ring.to_json()["family"]
    if families is not None and family not in families:
        raise CliError(need)
    if (monoid is not None or group_mode) and family != "monoid":
        raise CliError("--monoid and --group need --ring 'BASE[X;S]'")
    return ring


def _no_empty_values(args):
    """Refuse a flag or operand whose value argparse gave as [] where it
    takes one value: on CPython 3.10 to 3.12 argparse drops the `--` of
    `--ring=--` and of an operand spelled `--` after the first `--`."""
    for flag, kwargs in (*_TOP, *_arguments(args.row)):
        if kwargs.get("nargs") != "+" and getattr(args, kwargs.get("dest", flag.lstrip("-"))) == []:
            raise CliError(f"argument {flag}: expected one value, not '--'")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or build_parser(argv).parse_args(argv)
    _, _, handler, ring, operands = args.row
    command = f"{args.group} {args.cmd}"
    try:
        _no_empty_values(args)
        cpus = os.cpu_count() or 1
        if not 1 <= args.jobs <= cpus:
            raise CliError(f"--jobs must be between 1 and {cpus} (the CPU count), got {args.jobs}")
        ring = _command_ring(args, ring)
        values = {}
        for flag, convert, _ in operands:
            dest = flag.lstrip("-")
            value = getattr(args, dest)
            values[dest] = value if convert is None else convert(value, ring)
        verdict, result, code = globals()[handler](ring, **values)
    except ValueError as exc:
        print(f"princlab: error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"princlab: internal error: certificate failed its self-check: {exc}", file=sys.stderr)
        return 3
    report = make_report(command, ring, verdict, result)
    failures = verify_report(report)
    if failures:
        _print_report(report)
        for f in failures:
            print(f"princlab: recheck FAILED: {f}", file=sys.stderr)
        return 3
    if args.recheck:
        report["recheck"] = "passed"
    return code if _print_report(report) else EXIT_CLOSED_PIPE


def _print_report(report) -> bool:
    """Stream the report's text to stdout, batch by batch, then a newline,
    and flush: the bytes of `print(json.dumps(report, indent=2))`.  False when stdout's
    reader has closed the pipe; stdout then goes to os.devnull, so no later
    flush (run's, or the interpreter's at exit) raises again."""
    try:
        dump(report, sys.stdout.write)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def run() -> None:
    """The entry point of a shell call: `main`, both flushes, then a hard
    exit with main's code (see the module docstring).  The `--jobs` pool is
    shut down before `main` returns, so no worker or join is skipped."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(EXIT_CLOSED_PIPE)
    except OSError:
        # the normal exit reports any other failed flush
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
