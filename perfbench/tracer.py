"""Per-layer attribution of a profiled run.

A layer is one module of a package: functions defined in
``steinergraphs/gf.py`` belong to layer ``gf``.  The run is recorded with
``cProfile`` (C-level hooks, without separate entries for builtins, whose
time stays with the Python function that called them), and the per-
function records are folded into layers:

  * a package function's own time goes to its layer;
  * a function from anywhere else (stdlib ``fractions``, ``json``,
    ``multiprocessing`` waits, the benchmark) is charged to the layers of
    its callers, caller by caller, using the time cProfile measured on
    each caller edge; a caller that is itself outside the package passes
    the charge up in proportion to the time each of its own callers spent
    in it.  So ``linalg`` carries the Fraction arithmetic of its kernels
    and ``cli`` the JSON encoding of its certificates;
  * every function's own time is charged exactly once, so nested layers
    are not double-counted and the layer times sum to the profiled time;
  * ``calls[m]`` counts calls into layer m whose caller is not in m,
    calls coming through non-package frames being split by the same
    caller shares.

The profiler switches itself off in processes forked while it runs:
worker processes show up as the time their parent waits for them.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import defaultdict

OUTSIDE = "<outside>"


class LayerProfile:
    def __init__(self, package_dir: str):
        self._dir = os.path.realpath(package_dir) + os.sep
        self._profile = cProfile.Profile(builtins=False)
        self._running = False
        self._layers: dict[str, str | None] = {}
        self._stats: dict | None = None
        os.register_at_fork(after_in_child=self._forked)

    def __enter__(self) -> LayerProfile:
        self._stats = None
        self._running = True
        self._profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self._profile.disable()
        self._running = False

    def _forked(self) -> None:
        if self._running:
            self._profile.disable()
            self._running = False

    # -- folding ---------------------------------------------------------------------

    @property
    def stats(self) -> dict:
        """pstats records: func -> (prim calls, calls, own s, cum s, callers),
        where callers maps func -> (calls, prim calls, own s, cum s)."""
        if self._stats is None:
            self._stats = pstats.Stats(self._profile).stats
        return self._stats

    def layer_of(self, func) -> str | None:
        filename = func[0]
        if filename not in self._layers:
            path = os.path.realpath(filename) if os.path.isabs(filename) else filename
            inside = path.startswith(self._dir) and path.endswith(".py")
            self._layers[filename] = os.path.basename(path)[:-3] if inside else None
        return self._layers[filename]

    def _shares(self, func, memo: dict) -> dict[str, float]:
        """Which layers a call of ``func`` is made on behalf of."""
        layer = self.layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {OUTSIDE: 1.0}  # a cycle through non-package frames ends here
        callers = self.stats[func][4] if func in self.stats else {}
        weight = {caller: edge[3] for caller, edge in callers.items()}
        total = sum(weight.values())
        if total <= 0:
            weight = {caller: edge[0] for caller, edge in callers.items()}
            total = sum(weight.values())
        if total > 0:
            shares: dict[str, float] = defaultdict(float)
            for caller, w in weight.items():
                for name, s in self._shares(caller, memo).items():
                    shares[name] += s * w / total
            memo[func] = dict(shares)
        return memo[func]

    def layers(self) -> tuple[dict[str, float], dict[str, int]]:
        """(own seconds per layer, calls into each layer from elsewhere)."""
        memo: dict = {}
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        for func, (_, ncalls, own, _, callers) in self.stats.items():
            layer = self.layer_of(func)
            if layer is not None:
                self_s[layer] += own
                # calls from a frame that was running before profiling began
                calls[layer] += ncalls - sum(edge[0] for edge in callers.values())
            elif not callers:
                self_s[OUTSIDE] += own
            for caller, edge in callers.items():
                shares = self._shares(caller, memo)
                if layer is None:
                    for name, s in shares.items():
                        self_s[name] += edge[2] * s
                else:
                    calls[layer] += edge[0] * (1.0 - shares.get(layer, 0.0))
        return dict(self_s), {name: round(n) for name, n in calls.items()}

    def function(self, layer: str, name: str) -> tuple[int, float]:
        """(calls, cumulative seconds) of the functions called ``name`` in a
        layer, recursion counted once."""
        calls, cum = 0, 0.0
        for func, (_, nc, _, ct, _) in self.stats.items():
            if func[2] == name and self.layer_of(func) == layer:
                calls += nc
                cum += ct
        return calls, cum

    def called_from(self, filename_suffix: str, name: str, layer: str) -> float:
        """Cumulative seconds of a function outside the package, such as
        ``json.dumps``, when called directly from a layer."""
        cum = 0.0
        for func, (_, _, _, _, callers) in self.stats.items():
            if func[2] == name and func[0].endswith(filename_suffix):
                cum += sum(e[3] for c, e in callers.items() if self.layer_of(c) == layer)
        return cum
