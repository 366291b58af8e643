"""Command-line front end: ring grammar, subcommand dispatch, JSON reports.

Exit codes: 0 = success or help, 1 = negative mathematical verdict
(non-principal, non-unique, not a pair, no witness found), 2 = input error
(a usage error, or any `ValueError`), 3 = an internal certificate failure
on any call: a report that fails `recheck`, or a producer's "(bug)" guard
(`core.CertificateError`) where a certificate could not be built, 141 = stdout's reader closed the pipe before
the report was written (`... | head -c 1`; 141 is what a shell shows for a
process SIGPIPE ended, and a failed recheck still exits 3).  Reports and
help go to stdout; errors and recheck failures go to stderr.

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
once, by the keywords `type`, `choices`, `nargs`, `required`, `default`,
`dest`, `action` and `help`, and `_read` is the one reader of argv (see its
docstring for the grammar).  `-h` or `--help` before any `--` writes the
usage and help of the level named so far (the top, a group or a command) to
stdout, and `main` returns 0; any other argv it cannot read writes that
level's usage line and one "princlab: error: ..." line to stderr, and `main`
returns 2.  Neither raises `SystemExit`, and reading argv imports nothing.

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
Anything but a normal return from `main` (an uncaught exception) propagates
as usual, and so does a flush that fails, through `sys.exit`, unless it
fails on a closed pipe: that call exits 141.
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


def cmd_comax_factor(ring, values):
    results = []
    for b in values:
        # only the first partition is certified: the whole support is
        # zero-sum, so it always splits into minimal zero-sum blocks
        support, partitions = comax.walk(b, ring)
        results.append(comax.certify(b, ring, support, partitions[:1]).to_json(enc))
        results[-1]["factorization"] = results[-1].pop("factorizations")[0]
    return "factored", results[0] if len(results) == 1 else {"batch": results}, 0


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
    """An argument: its flag (an operand's name), its keywords for the
    reader, and the converter from the value read to the handler's (None
    keeps the value read)."""
    return flag, convert, kwargs


_AB = (_arg("a", _elem), _arg("b", _elem))

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
    ("comax", "factor", "cmd_comax_factor", "Z", (_arg("values", _elems, nargs="+"),)),
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
_ROWS = {row[:2]: row for row in COMMANDS}

# ----------------------------------------------------------- reading argv

# the top-level flag, as (flag, keywords)
_TOP = (
    ("--recheck", {"action": "store_true", "help": 'write "recheck": "passed" (every call rechecks its report)'}),
)
_HELP = {"action": "help", "help": "show this help and exit"}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _arguments(row):
    """The (flag, keywords) of each argument of the row's command."""
    group, _, _, ring, operands = row
    if isinstance(ring, str):
        yield "--ring", {"default": ring}
        if GROUPS[group][2]:
            yield "--monoid", {"default": None, "help": "p-div:P or mult:{P1,P2}"}
            yield "--group", {"dest": "group_mode", "action": "store_true", "help": "Laurent exponents (group algebra)"}
    for flag, _, kwargs in operands:
        yield flag, kwargs


def _level(names):
    """The arguments of the level `names` names (the top, a group or a
    command), help aside.  The top and a group end in the operand that names
    the next level."""
    if not names:
        return (*_TOP, ("group", {"choices": tuple(GROUPS)}))
    if len(names) == 1:
        return (("command", {"choices": tuple(cmd for group, cmd in _ROWS if group == names[0])}),)
    return tuple(_arguments(_ROWS[names]))


def _flags(arguments):
    """{flag: keywords} of a level's flags, help among them."""
    return {"-h": _HELP, "--help": _HELP, **{flag: kwargs for flag, kwargs in arguments if flag.startswith("-")}}


class _Stop(Exception):
    """Help (args: names) or a usage error (args: names, message) at the
    level `names` names."""


def _operand(word):
    """Whether a word is an operand, not a flag: it does not start with "-",
    or it is "-", a negative number or holds a space."""
    return not word.startswith("-") or word == "-" or " " in word or _NEGATIVE.match(word)


def _value(names, flag, kwargs, text):
    """An argument's value from its text, through `type` and `choices`."""
    try:
        value = kwargs.get("type", str)(text)
    except ValueError:
        raise _Stop(names, f"argument {flag}: invalid {kwargs['type'].__name__} value: {text!r}") from None
    if value not in kwargs.get("choices", (value,)):
        raise _Stop(names, f"argument {flag}: invalid choice: {text!r} (choose from {', '.join(kwargs['choices'])})")
    return value


def _read(argv):
    """The namespace of argv: `recheck`, the `group` and `cmd` names, the
    command's `row` and each of its arguments by dest; _Stop for help or a
    usage error.  A flag is spelled in full or by a prefix no other flag of its
    level has, its value the next word or after "=", and the last of a
    repeated flag wins.  Flags and operands come in any order, and every word
    after the first "--" is an operand.  A command's operands fill its
    arguments by their nargs: a "?" takes a word only if one is spare, a "+"
    takes every spare word."""
    names, values, run, dashed = (), {}, [], False
    arguments = _level(names)
    flags = _flags(arguments)
    words = iter(argv)
    for word in words:
        if not dashed and word.startswith("-"):
            if word == "--":
                dashed = True
                continue
            name, eq, text = word.partition("=")
            found = [name] if name in flags else [f for f in flags if name[2:] and f.startswith(name)]
            if len(found) > 1:
                raise _Stop(names, f"ambiguous option: {name} could match {', '.join(found)}")
            if found:
                flag, kwargs = found[0], flags[found[0]]
                action = kwargs.get("action")
                if eq and action:
                    raise _Stop(names, f"argument {flag}: ignored explicit argument {text!r}")
                if action == "help":
                    raise _Stop(names)
                if not action and not eq:
                    text = next(words, "--")
                    if not _operand(text):
                        raise _Stop(names, f"argument {flag}: expected one argument")
                values[kwargs.get("dest", flag.lstrip("-"))] = True if action else _value(names, flag, kwargs, text)
                continue
            if not _operand(word):
                raise _Stop(names, f"unrecognized arguments: {word}")
        if len(names) == 2:
            run.append(word)
        else:
            names = (*names, _value(names, *arguments[-1], word))
            arguments = _level(names)
            flags = _flags(arguments)
    if len(names) < 2:
        raise _Stop(names, f"the following arguments are required: {arguments[-1][0]}")
    operands = [(dest, kwargs) for dest, kwargs in arguments if dest not in flags]
    for k, (dest, kwargs) in enumerate(operands):
        nargs = kwargs.get("nargs")
        spare = max(0, len(run) - sum(kw.get("nargs") != "?" for _, kw in operands[k:]))
        n = {None: 1, "?": min(1, spare), "+": 1 + spare}[nargs]
        texts, run = run[:n], run[n:]
        if not texts and nargs != "?":
            raise _Stop(names, f"the following arguments are required: {dest}")
        if texts:
            value = [_value(names, dest, kwargs, t) for t in texts]
            values[dest] = value if nargs == "+" else value[0]
    if run:
        raise _Stop(names, f"unrecognized arguments: {' '.join(run)}")
    for flag, kwargs in (*_TOP, *arguments):
        dest = kwargs.get("dest", flag.lstrip("-"))
        if dest not in values:
            if kwargs.get("required"):
                raise _Stop(names, f"the following arguments are required: {flag}")
            default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
            values[dest] = _value(names, flag, kwargs, default) if isinstance(default, str) else default
    return SimpleNamespace(**values, group=names[0], cmd=names[1], row=_ROWS[names])


def _spelling(flag, kwargs):
    """How usage and help write an argument, and whether usage brackets it."""
    choices = kwargs.get("choices")
    metavar = "{" + ",".join(choices) + "}" if choices else flag.lstrip("-").upper()
    if flag.startswith("-"):
        return flag if kwargs.get("action") else f"{flag} {metavar}", not kwargs.get("required")
    name = metavar if choices else flag
    return f"{name} [{name} ...]" if kwargs.get("nargs") == "+" else name, kwargs.get("nargs") == "?"


def _usage(names):
    """The usage line of the level `names` names."""
    words = (f"[{w}]" if optional else w for w, optional in (_spelling(*a) for a in _level(names)))
    return " ".join(["usage: princlab", *names, "[-h]", *words] + ["..."] * (len(names) < 2))


def _help(names):
    """The help of the level `names` names: its usage line, and a line for
    each argument with its help."""
    rows = [("-h, --help", _HELP["help"])] + [(_spelling(*a)[0], a[1].get("help", "")) for a in _level(names)]
    width = max(len(spelling) for spelling, text in rows if text)
    about = "" if names else "\nIdempotent pairs, ideals and comaximal factorizations, with rechecked JSON reports.\n"
    return "\n".join([_usage(names), about, *(f"  {s:<{width}}  {h}".rstrip() for s, h in rows)]) + "\n"


# -------------------------------------------------------------- dispatch


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read(argv)
    except _Stop as stop:
        names, *message = stop.args
        if not message:
            sys.stdout.write(_help(names))
            return 0
        print(_usage(names), f"princlab: error: {message[0]}", sep="\n", file=sys.stderr)
        return 2
    _, _, handler, ring, operands = args.row
    command = f"{args.group} {args.cmd}"
    try:
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
    exit with main's code (see the module docstring)."""
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
