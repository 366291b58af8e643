"""Command-line front end: ring grammar, subcommand dispatch, JSON reports.

Exit codes: 0 = success, 1 = negative mathematical verdict (non-principal,
non-unique, not a pair, no witness found), 2 = input error (any
`ValueError`), 3 = an internal certificate failure: a producer's self-check
(`core.CertificateError`) or a failed `--recheck` pass, 141 = stdout's
reader closed the pipe before the report was written (`... | head -c 1`;
141 is what a shell shows for a process SIGPIPE ended, and a failed recheck
still exits 3).  Reports go to stdout; errors and recheck failures go to
stderr.

Writing a report.  `main` calls `report.dump` once, with `sys.stdout.write`
as its writer, so each batch of the text goes to stdout as soon as it is
joined (see `report`): the text is never held whole, and writing a report
holds a few kB on top of the report tree.

One row of `COMMANDS` per subcommand gives its group, name, handler, ring
and operands; `GROUPS` gives the ring families each group accepts.  From
these `main` reads argv, checks `--ring` and converts the operands, then
calls `handler(ring, **operands)`, which returns the verdict, the result and
the exit code.  Each certificate serializes itself (`report.enc` falls
through to its `to_json`).

Reading argv.  `_read` gives the namespace argparse would, straight from the
table: `_TOP` and `_arguments(row)` describe each flag and operand once, in
argparse's keywords, and `build_parser` hands the same descriptions to
argparse.  `_read` runs argparse's own algorithm on them, so it takes every
spelling argparse takes: `--flag value` and `--flag=value`, unique
prefixes (`--rech`), repeated flags (the last one wins), `--` and
negative-number operands, nargs `?`/`+`, `type`, `choices`, `required` and
`default`.  It turns down exactly the argv argparse answers with help
(`-h`, `--help`, `--he`, ...) or a usage error; only those reach
`build_parser(argv).parse_args(argv)`, which prints the help or the usage
error and exits.  `argparse` (and with it `gettext` and `locale`) is imported only
inside `build_parser`, so a valid call never loads it.

Imports.  At import this module runs only `core`, `rings`, `exprparse`,
`report` and `recheck`.  Each family module (`comax`, `idem`, `quadring`,
...) is put in `sys.modules` by importlib's `LazyLoader` and runs on its
first attribute access, which is the first handler, ring spec or converter
that reads it.  A call loads only what its command uses, and a tool that
rebinds module functions after `import princlab.cli` (perfbench's traced
child) still finds every family module.  `GROUPS` names ring families by
their `to_json()` family, so checking `--ring` loads nothing either.

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
from fractions import Fraction
from types import SimpleNamespace

from .core import CertificateError
from .exprparse import parse_element, parse_ypoly
from .recheck import verify_report
from .report import dump, enc, make_report
from .rings import QQ, QQ_POLY, ZZ, LocalizedIntegers


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


comax, idem, limitring, monoidring, polyext, pullback, quadring, sphere = map(
    _family, ("comax", "idem", "limitring", "monoidring", "polyext", "pullback", "quadring", "sphere"))


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
        return LocalizedIntegers(primes)
    raise CliError(f"unknown base ring {text!r}")


def parse_ring_spec(text: str, monoid: str | None = None, group: bool = False):
    text = text.strip()
    if text == "B2":
        return sphere.B2
    if text == "Q[X]":
        return QQ_POLY
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
    fact = comax.comax_factor_int(b) if ring == ZZ else comax.enumerate_complete_factorizations(b, ring)[0]
    return {"factorization": enc(fact)}


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
    facts = comax.enumerate_complete_factorizations(b, ring)
    result = {"element": enc(b), "count": len(facts), "factorizations": enc(facts)}
    return ("unique", result, 0) if len(facts) == 1 else ("non_unique", result, 1)


def cmd_comax_hunt(ring, bound):
    hit = comax.find_nonunique_witness(ring, bound)
    if hit is None:
        return "no_witness", {"bound": bound, "witness": None, "factorizations": []}, 1
    b, facts = hit
    return "witness_found", {"bound": bound, "witness": enc(b), "factorizations": enc(facts)}, 0


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
# They reach the parsers through the module globals, which a tracer may
# rebind after import.


def _elem(text, ring):
    return text if text is None else parse_element(text, ring)


def _elems(texts, ring):
    return [_elem(t, ring) for t in texts]


def _frac(text, ring):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise CliError(f"{text}: division by zero") from None


def _ypoly(text, ring):
    return parse_ypoly(text)


def _excluded(text, ring):
    """The monomial subring without the listed degrees (default: degree 1)."""
    return polyext.SubringDesc({int(t) for t in text.split(",")} if text else {1})


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
# `_read` runs argparse's own algorithm (`ArgumentParser._parse_known_args`
# of CPython 3.10 to 3.13) on the descriptions `build_parser` gives argparse.
# A parser sees its words as flags ("O"), operands ("A") and the first "--"
# ("-"; every word after it is an operand), and fills its operands by
# matching their nargs patterns against that string.

# the top-level flags, as (flag, argparse keywords)
_TOP = (
    ("--recheck", {"action": "store_true", "help": "re-verify every certificate with the independent checker"}),
    ("--jobs", {"type": int, "default": 1, "help": "parallel workers for batch inputs"}),
)
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")
# a group's or a command's name and every word after it (argparse's PARSER)
_REST = "A..."
_NARGS = {None: "(-*A-*)", "?": "(-*A?-*)", "+": "(-*A[A-]*)", _REST: "(-*A[-AO]*)"}


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


class _Refused(Exception):
    """argparse answers the argv with help or a usage error."""


def _option(word, flags):
    """How a parser with these flags reads word: None for an operand, else
    (the flag, or None for an unknown one; the text after "=", or None)."""
    if not word.startswith("-"):
        return None
    if word in flags:
        return word, None
    if len(word) == 1:
        return None
    flag, eq, text = word.partition("=")
    if eq and flag in flags:
        return flag, text
    if word[1] == "-":  # a prefix of a flag, perhaps with "=text"
        found = [(f, text if eq else None) for f in flags if f.startswith(flag)]
    else:  # -h with its text glued on, or a prefix of a flag
        found = [(f, word[2:] if f == word[:2] else None) for f in flags if f == word[:2] or f.startswith(word)]
    if len(found) > 1:
        raise _Refused  # an ambiguous prefix
    if found:
        return found[0]
    return None if _NEGATIVE.match(word) or " " in word else (None, None)


def _typed(kwargs, text):
    try:
        return kwargs.get("type", str)(text)
    except (TypeError, ValueError):
        raise _Refused from None


def _default(kwargs):
    if kwargs.get("action") == "store_true":
        return False
    default = kwargs.get("default")
    return _typed(kwargs, default) if isinstance(default, str) else default


def _values(kwargs, texts, of_flag=False):
    """An argument's value from its words: all of them for a name with the
    words after it; else without the first "--", through `type` and
    `choices`, one value (nargs None or "?") or a list ("+").  From 3.13 on,
    argparse keeps a "--" that a flag's value is (`--ring=--`)."""
    nargs = kwargs.get("nargs")
    if nargs == _REST:
        return texts
    if "--" in texts and not (of_flag and sys.version_info >= (3, 13)):
        texts.remove("--")
    if not texts and nargs == "?":
        return _default(kwargs)
    values = [_typed(kwargs, text) for text in texts]
    if any(value not in kwargs.get("choices", (value,)) for value in values):
        raise _Refused
    return values[0] if len(values) == 1 and nargs in (None, "?") else values


def _consume(words, arguments):
    """{dest: value} for one parser's words, as argparse assigns them: flags
    and their values, runs of operands between them, the last given value of
    a repeated flag, defaults for the rest.  Raises _Refused where argparse
    prints help or an error."""
    flags = {flag: kwargs for flag, kwargs in arguments if flag.startswith("-")}
    flags.update(dict.fromkeys(_HELP))
    operands = [(flag, kwargs) for flag, kwargs in arguments if flag not in flags]
    found, pattern = {}, ""
    for i, word in enumerate(words):
        if word == "--":
            pattern += "-" + "A" * (len(words) - i - 1)
            break
        option = _option(word, flags)
        if option:
            found[i] = option
        pattern += "O" if option else "A"
    values, seen = {}, set()

    def take(i):
        # as many operands as the words from i on fill, each its share
        for k in range(len(operands), 0, -1):
            match = re.match("".join(_NARGS[kwargs.get("nargs")] for _, kwargs in operands[:k]), pattern[i:])
            if match:
                for (dest, kwargs), part in zip(operands, match.groups()):
                    values[dest] = _values(kwargs, words[i : i + len(part)])
                    i += len(part)
                del operands[:k]
                break
        return i

    i, last = 0, max(found, default=-1)
    while i <= last:
        if i not in found:
            end = take(i)
            if end == i:
                raise _Refused  # a word no operand takes
            i = end
            continue
        flag, text = found[i]
        kwargs = flags.get(flag)
        if kwargs is None:
            raise _Refused  # help, or an unknown flag
        i += 1
        if kwargs.get("action") == "store_true":
            if text is not None:
                raise _Refused
            value = True
        else:
            if text is None:
                if pattern[i : i + 1] != "A":
                    raise _Refused  # no value after the flag
                text, i = words[i], i + 1
            value = _values(kwargs, [text], of_flag=True)
        values[kwargs.get("dest", flag.lstrip("-"))] = value
        seen.add(flag)
    if take(i) < len(words) or any(kwargs.get("nargs") != "?" for _, kwargs in operands):
        raise _Refused  # words left over, or an operand missing
    for flag, kwargs in [*flags.items(), *operands]:
        if kwargs is not None and flag not in seen:
            if kwargs.get("required"):
                raise _Refused
            values[kwargs.get("dest", flag.lstrip("-"))] = _default(kwargs)
    return values


def _read(argv):
    """The namespace `build_parser().parse_args(argv)` gives, read from the
    command table; None where argparse prints help or a usage error, and on
    a CPython whose argparse `_read` was not checked against (3.10 to 3.13
    were)."""
    if not (3, 10) <= sys.version_info[:2] <= (3, 13):
        return None
    try:
        top = _consume(argv, (*_TOP, ("group", {"nargs": _REST})))
        group, *words = top.pop("group")
        name, *words = _consume(words, (("cmd", {"nargs": _REST}),))["cmd"]
        row = next((row for row in COMMANDS if row[:2] == (group, name)), None)
        values = row and _consume(words, tuple(_arguments(row)))
    except _Refused:
        return None
    return row and SimpleNamespace(**top, group=group, cmd=name, row=row, **values)


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
    if args.recheck:
        failures = verify_report(report)
        if failures:
            _print_report(report)
            for f in failures:
                print(f"princlab: recheck FAILED: {f}", file=sys.stderr)
            return 3
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
