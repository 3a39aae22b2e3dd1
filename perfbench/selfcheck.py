"""Self-checks of the benchmark's own machinery; exits non-zero on failure.

    python3 perfbench/selfcheck.py

1. The layer tracer, on a toy package of two layers a and b: stdlib time
   (fractions, json) is charged to the layer that called it, a nested
   layer's time is not counted again in its caller, and calls are counted
   only where they cross into a layer.
2. The oracles: a deliberately wrong pinned result digest, and a named
   Cameron-Liebler query whose line set is not a class, each make an
   operation fail, so the error rate rises above 0.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import run
import tracer
import workloads

TOY_DIR = Path(__file__).resolve().parent / "toypkg"

TOY_A = '''
from fractions import Fraction

def spin(n):
    s = 0
    for i in range(n):
        s += i * i % 7
    return s

def fractions_only(n):
    x = Fraction(0)
    for i in range(1, n):
        x += Fraction(1, i)
    return x

def outer(n):
    spin(n)
    for _ in range(3):
        b.inner(n)
    return fractions_only(n // 10)
'''

TOY_B = '''
import json
from fractions import Fraction

def spin(n):
    s = 0
    for i in range(n):
        s += i * i % 7
    return s

def tag(obj):
    return "tagged"

def inner(n):
    spin(n)
    json.dumps([object()] * (n // 20), default=tag)
    x = Fraction(0)
    for i in range(1, n // 20):
        x += Fraction(1, i)
    return x
'''


def _toy_module(name: str, source: str) -> types.ModuleType:
    module = types.ModuleType(f"toypkg.{name}")
    exec(compile(source, str(TOY_DIR / f"{name}.py"), "exec"), module.__dict__)
    return module


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_tracer(failures: list[str]) -> None:
    a = _toy_module("a", TOY_A)
    b = _toy_module("b", TOY_B)
    a.b = b
    profile = tracer.LayerProfile(TOY_DIR)
    with profile:
        a.outer(200_000)
    self_s, calls = profile.layers()
    _, outer_s = profile.function("a", "outer")
    _, inner_s = profile.function("b", "inner")
    _, fractions_s = profile.function("a", "fractions_only")
    own_a = sum(profile.stats[f][2] for f in profile.stats if profile.layer_of(f) == "a")
    total = sum(self_s.values())
    print(f"     a {self_s.get('a', 0):.3f}s b {self_s.get('b', 0):.3f}s "
          f"outside {self_s.get(tracer.OUTSIDE, 0):.3f}s; outer {outer_s:.3f}s "
          f"inner {inner_s:.3f}s fractions_only {fractions_s:.3f}s calls {calls}")
    check(abs(self_s.get("a", 0) + self_s.get("b", 0) - outer_s) < 0.03 * outer_s,
          "layer self times add up to the outermost call: nothing counted twice", failures)
    check(abs(self_s.get("b", 0) - inner_s) < 0.03 * inner_s,
          "the nested layer b keeps its own time, json and fractions included", failures)
    check(self_s.get("a", 0) - own_a > 0.8 * fractions_s,
          "Fraction arithmetic called from a is charged to a", failures)
    check(self_s.get(tracer.OUTSIDE, 0) < 0.03 * total,
          "stdlib time is not left outside the layers", failures)
    check(calls == {"a": 1, "b": 3},
          f"only crossing calls are counted: {calls} == {{'a': 1, 'b': 3}}", failures)


def check_oracles(failures: list[str]) -> None:
    sys.path.insert(0, str(run.SRC))
    mods = workloads.fresh_import()
    case = workloads.CONSTRUCTIONS[2]
    wrong = workloads.run_cli(mods["cli"], case, digest="0" * 64)
    print(f"     {case.argv[0]} with a wrong pinned digest: {wrong.problems}")
    check(len(wrong.problems) == 1 and "digest" in wrong.problems[0],
          "a wrong pinned digest fails the operation, and nothing else does", failures)

    state = workloads.Queries.setup(mods, seed=1)
    named = next(q for q in state.queries if q.kind == "star")
    other = min(set(range(len(state.space.lines))) - set(named.lines))
    bogus = workloads.Query("star", named.lines[:-1] + (other,), named.part, named.sign_function)
    outcomes = [workloads.run_query(state, q) for q in (named, bogus)] + [wrong]
    rate = run.error_rate(outcomes)
    print(f"     queries: {[o.problems for o in outcomes[:2]]}; error rate {rate}")
    check(not outcomes[0].problems and outcomes[1].problems,
          "a named line set that is not a class fails its query", failures)
    check(rate == 2 / 3, "the error rate counts the failed operations: 2 of 3", failures)


def main() -> int:
    failures: list[str] = []
    check_tracer(failures)
    check_oracles(failures)
    print(f"{len(failures)} self-check(s) failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
