"""Trace recorder: wraps each layer's functions from outside the program.

A layer is a module of the twotor package.  ``Recorder.install`` replaces
every public function of each layer, plus the few private hooks named in
``PRIVATE_HOOKS``, by a wrapper that records one span per call.  The wrapper
is bound at the module attribute and at every name another twotor module
imported (``census`` imports ``avg_szpiro``, ``tate_algorithm`` and
``kodaira_symbol_large_p`` by name, for example).  ``uninstall`` puts the
original objects back.

Spans (name, start, end, parent, op id) are kept in flat arrays in memory
and written out by ``dump``, with wall-clock times, when the job ends.  The
per-layer times are computed on the child's host-speed-scaled clock
(``hostspeed.py``), like the end-to-end times.  A span's self time is its
duration minus the part of it that its child spans cover; a layer's self
time is the sum of self times of its spans.

``uniformity`` is deliberately not a layer: no CLI path reaches it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "census", "curve_core", "arithmetic", "local_density",
          "real_density", "lp_bounds")

# Private functions wrapped because a per-layer metric needs them:
# (layer, attribute path).
PRIVATE_HOOKS = (
    ("arithmetic", "_SpfSieve._build"),   # sieve builds and their array sizes
    ("census", "_census_records"),        # region sweeps and records swept
    ("local_density", "_factor_values"),  # primes multiplied in closed-form products
)

_MARK = "__perfbench_wrapper__"


def _module(layer: str):
    return importlib.import_module(f"twotor.{layer}")


def targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original object) for every wrapped function.

    The owner is a module or, for a static method, its class; the original
    object is what ``owner.__dict__[attribute]`` held before wrapping.
    """
    out = []
    for layer in LAYERS:
        mod = _module(layer)
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    for layer, path in PRIVATE_HOOKS:
        owner = _module(layer)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out.append((f"{layer}.{path}", owner, attr, vars(owner)[attr]))
    return out


def _function(obj):
    return obj.__func__ if isinstance(obj, staticmethod) else obj


def profile_ncalls(stats) -> dict[str, int]:
    """cProfile total call counts (``ncalls``) for every function ``targets`` lists."""
    by_code = {}
    for (filename, line, name), row in stats.stats.items():
        by_code[(filename, line, name)] = row[1]
    out = {}
    for span, _owner, _attr, obj in targets():
        code = _function(obj).__code__
        out[span] = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
    return out


class Recorder:
    """Install wrappers, keep spans in memory, derive per-layer metrics."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._op = [-1]
        self._installed: list[tuple[object, str, object]] = []
        # counters filled by hooks on return values
        self.sweep_sizes: list[int] = []
        self.sieve_bytes = 0
        self.factor_values_primes = 0
        self.euler_cutoffs: list[int] = []
        self.census_window = 0
        self._last_records = None
        self._tail_windows: list[tuple[int, list]] = []

    # -- wrapping ---------------------------------------------------------

    def set_op(self, op_id: int) -> None:
        self._op[0] = op_id

    def _hooks(self):
        def sweep(args, kwargs, result):
            records = result[0]
            self.sweep_sizes.append(len(records))
            self._last_records = records

        def tail(args, kwargs, result):
            if self._last_records is not None:  # None: returned before sweeping
                X = args[0] if args else kwargs["X"]
                self._tail_windows.append((X, self._last_records))
                self._last_records = None

        def run_census(args, kwargs, result):
            self.census_window += result.total_curves
            self._last_records = None

        def sieve_build(args, kwargs, result):
            self.sieve_bytes += result.nbytes

        def factor_values(args, kwargs, result):
            self.factor_values_primes += len(args[0])

        def euler_product(args, kwargs, result):
            self.euler_cutoffs.append(int(result[1]))

        return {
            "census._census_records": sweep,
            "census.tail_count_index": tail,
            "census.tail_count_szpiro": tail,
            "census.run_census": run_census,
            "arithmetic._SpfSieve._build": sieve_build,
            "local_density._factor_values": factor_values,
            "local_density.euler_product": euler_product,
        }

    def _wrap(self, fn, nid: int, hook):
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        stack, op = self._stack, self._op
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_op.append(op[0])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                span_start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("wrappers already installed")
        hooks = self._hooks()
        replacement = {}
        for span, owner, attr, obj in targets():
            nid = len(self.names)
            self.names.append(span)
            self.layer_of.append(span.split(".", 1)[0])
            fn = _function(obj)
            w = self._wrap(fn, nid, hooks.get(span))
            new = staticmethod(w) if isinstance(obj, staticmethod) else w
            self._installed.append((owner, attr, obj))
            setattr(owner, attr, new)
            replacement[id(fn)] = (fn, w)
        # names other modules imported with "from .x import f"
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("twotor") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                hit = replacement.get(id(val))
                if hit is not None and hit[0] is val:
                    self._installed.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._installed):
            setattr(owner, attr, obj)
        self._installed = []

    @staticmethod
    def verify_removed() -> bool:
        """True when no twotor module or class still holds a wrapper."""
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("twotor") or mod is None:
                continue
            for val in vars(mod).values():
                holders = [val]
                if inspect.isclass(val):
                    holders = [_function(v) for v in vars(val).values()]
                if any(getattr(h, _MARK, False) for h in holders):
                    return False
        return True

    # -- results ----------------------------------------------------------

    def call_counts(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self.span_name, dtype=np.int32),
                             minlength=len(self.names))
        return {name: int(n) for name, n in zip(self.names, counts)}

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )

    def layer_metrics(self, ops: list, clock) -> dict:
        """Per-layer metrics of the job, as {name: (value, unit, note or None)}.

        ``clock`` (``hostspeed.Sampler.clock``) maps the spans' wall times to
        the scaled clock before any time is computed.
        """
        from twotor import arithmetic

        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = (clock(np.frombuffer(self.span_end, dtype=np.float64))
               - clock(np.frombuffer(self.span_start, dtype=np.float64)))
        has_parent = parent >= 0
        cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - cover
        layer_idx = {layer: i for i, layer in enumerate(LAYERS)}
        span_layer = np.array([layer_idx[lay] for lay in self.layer_of], dtype=np.int64)[name]
        layer_self = np.bincount(span_layer, weights=self_time, minlength=len(LAYERS))
        nid = {n: i for i, n in enumerate(self.names)}
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))

        def n_calls(fn):
            return int(calls[nid[fn]])

        def seconds(fn):
            return float(total[nid[fn]])

        m = {}

        def put(key, value, unit, note=None):
            m[key] = (value, unit, note)

        def per_call(key, fn):
            n = n_calls(fn)
            if n:
                put(key, seconds(fn) / n * 1e6, "us")
            else:
                put(key, 0.0, "us", f"absent: no {fn} calls on this workload")

        def total_s(key, fn):
            put(key, seconds(fn), "s",
                None if n_calls(fn) else f"absent: no {fn} calls on this workload")

        def ratio(key, num, den, why):
            if den:
                put(key, num / den, "ratio")
            else:
                put(key, 0.0, "ratio", f"absent: {why}")

        layer_spans = np.bincount(span_layer, minlength=len(LAYERS))
        for layer in LAYERS:
            i = layer_idx[layer]
            put(f"{layer}.self_s", float(layer_self[i]), "s",
                None if layer_spans[i] else f"absent: no call into {layer} on this workload")

        swept = sum(self.sweep_sizes)
        window = self.census_window + sum(
            sum(1 for r in records if r[3] <= X) for X, records in self._tail_windows)
        put("census.sweep_calls", len(self.sweep_sizes), "count")
        put("census.records_swept", swept, "count")
        ratio("census.sweep_redundancy", swept, max(self.sweep_sizes, default=0),
              "no region sweep on this workload")
        ratio("census.tail_use_ratio", window, swept, "no region sweep on this workload")

        put("curve_core.tate_calls", n_calls("curve_core.tate_on_model"), "count")
        per_call("curve_core.tate_us_per_call", "curve_core.tate_on_model")
        put("curve_core.kodaira_large_p_calls",
            n_calls("curve_core.kodaira_symbol_large_p"), "count")
        per_call("curve_core.kodaira_large_p_us_per_call", "curve_core.kodaira_symbol_large_p")
        put("curve_core.avg_szpiro_calls", n_calls("curve_core.avg_szpiro"), "count")
        per_call("curve_core.avg_szpiro_us_per_call", "curve_core.avg_szpiro")

        curves = swept + sum(1 for argv in ops if argv and argv[0] == "classify")
        put("arithmetic.factorize_calls", n_calls("arithmetic.factorize"), "count")
        per_call("arithmetic.factorize_us_per_call", "arithmetic.factorize")
        ratio("arithmetic.factorize_per_curve", n_calls("arithmetic.factorize"), curves,
              "no curve is swept or classified on this workload")
        total_s("arithmetic.sieve_build_s", "arithmetic._SpfSieve._build")
        put("arithmetic.sieve_limit", arithmetic._sieve.limit, "count")
        put("arithmetic.sieve_mb_computed", self.sieve_bytes / 1e6, "MB")
        total_s("arithmetic.primes_up_to_s", "arithmetic.primes_up_to")

        q4_primes = n_calls("local_density.dirichlet_local_sum_q4")
        put("local_density.euler_product_calls", n_calls("local_density.euler_product"), "count")
        put("local_density.primes_multiplied", self.factor_values_primes + q4_primes, "count")
        put("local_density.euler_cutoff", max(self.euler_cutoffs, default=0), "count",
            None if self.euler_cutoffs else "absent: no euler_product call on this workload")
        total_s("local_density.dirichlet_sum_s", "local_density.dirichlet_index_sum")

        parent_layer = np.full(len(name), -1, dtype=np.int64)
        parent_layer[has_parent] = span_layer[parent[has_parent]]
        entering = span_layer != parent_layer  # calls into a layer from another one
        put("real_density.calls",
            int(np.count_nonzero(entering & (span_layer == layer_idx["real_density"]))), "count")
        put("lp_bounds.simplex_calls", n_calls("lp_bounds.solve_simplex"), "count")
        per_call("lp_bounds.simplex_us_per_call", "lp_bounds.solve_simplex")
        return m
