"""Traced princlab child: wrap each layer's public functions, run
`princlab.cli.main(argv)`, and write the spans as JSON when it returns.

Usage: python perfbench/traced.py SPAN_FILE OP_ID [princlab argv ...]

The wrappers return results and raise exceptions unchanged, so stdout and
the exit code are those of `python -m princlab.cli argv`.  Spans stay in
memory until main returns.  A span is [name, start, end, parent, raised],
with times from `time.perf_counter` (CLOCK_MONOTONIC, shared with the parent
process) and parent the index of the enclosing span, or -1.  One child runs
one op, so all its spans share the document's op id.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute path, span name).  Every binding of the same function
# object in any princlab module is replaced, so `from .core import f` copies
# are traced too.
WRAPPED = (
    ("core", "Poly.__mul__", "core.Poly.mul"),
    ("core", "poly_extended_gcd", "core.poly_extended_gcd"),
    ("core", "hnf2_with_transform", "core.hnf2_with_transform"),
    ("quadring", "ideal_is_principal", "quadring.ideal_is_principal"),
    ("quadring", "QuadIdeal.mul", "quadring.QuadIdeal.mul"),
    ("quadring", "factor_principal", "quadring.factor_principal"),
    ("limitring", "lr_lift", "limitring.lr_lift"),
    ("limitring", "lr_chain", "limitring.lr_chain"),
    ("monoidring", "mr_comax_chain", "monoidring.mr_comax_chain"),
    ("comax", "enumerate_complete_factorizations", "comax.enumerate_complete_factorizations"),
    ("idem", "is_idempotent_pair", "idem.is_idempotent_pair"),
    ("pullback", "pb_reduce_idem_pair", "pullback.pb_reduce_idem_pair"),
    ("polyext", "nonprinc_pair_from_alpha", "polyext.nonprinc_pair_from_alpha"),
    ("sphere", "tangent_projector", "sphere.tangent_projector"),
    ("exprparse", "parse_element", "exprparse.parse_element"),
    ("report", "dump", "report.dump"),
    ("recheck", "verify_report", "recheck.verify_report"),
)
SPAN_NAMES = tuple(name for _, _, name in WRAPPED) + ("report.enc", "cli.handler", "cli.main")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.counters = {
            "core.Poly.mul.max_degree": 0,
            "limitring.lr_lift.levels": 0,
            "quadring.ideal_is_principal.principal": 0,
            "quadring.ideal_is_principal.norm_candidates": 0,
            "report.bytes": 0,
        }
        self.ideal_keys = set()

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, time.perf_counter(), parent, True)
                stack.pop()
                raise
            spans[idx] = (name, start, time.perf_counter(), parent, False)
            stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------ counters

    def _poly_mul(self, args, result):
        c = self.counters
        c["core.Poly.mul.max_degree"] = max(c["core.Poly.mul.max_degree"], result.degree)

    def _lr_lift(self, args, result):
        self.counters["limitring.lr_lift.levels"] += args[1] - args[0].level

    def _principal(self, args, verdict):
        self.ideal_keys.add(args[0].key())
        self.counters["quadring.ideal_is_principal.principal"] += verdict.principal
        self.counters["quadring.ideal_is_principal.norm_candidates"] += len(verdict.search)

    def _dump(self, args, text):
        self.counters["report.bytes"] += len(text.encode())

    # ------------------------------------------------------------- install

    def install(self):
        """Wrap every function in WRAPPED, `enc` at the cli binding only (so
        its recursion is not traced), and every `cmd_*` handler as
        cli.handler.  Returns the wrapped `cli.main`."""
        cli = importlib.import_module("princlab.cli")
        modules = [m for n, m in sys.modules.items() if n.startswith("princlab.") and m is not None]
        observers = {
            "core.Poly.mul": self._poly_mul,
            "limitring.lr_lift": self._lr_lift,
            "quadring.ideal_is_principal": self._principal,
            "report.dump": self._dump,
        }
        for module, path, name in WRAPPED:
            owner = importlib.import_module(f"princlab.{module}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                original = owner.__dict__[attr]
                targets = [owner]
            else:
                original = getattr(owner, attr)
                targets = modules
            wrapped = self.wrap(name, original, observers.get(name))
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapped)
        cli.enc = self.wrap("report.enc", cli.enc)
        for key, value in list(vars(cli).items()):
            if key.startswith("cmd_"):
                setattr(cli, key, self.wrap("cli.handler", value))
        return self.wrap("cli.main", cli.main)

    def document(self, op_id):
        return {
            "op": op_id,
            "spans": self.spans,
            "counters": dict(self.counters, **{"quadring.ideal_is_principal.distinct": len(self.ideal_keys)}),
        }


def main(argv) -> int:
    span_file, op_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    cli_main = tracer.install()
    try:
        return cli_main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(span_file, "w") as fh:
            json.dump(tracer.document(op_id), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
