"""Spans and counters around the public calls of each bessel_tr layer.

The benchmark's traced run installs these wrappers from outside the
package; nothing in `src/` knows about them. Each hook names one function or
method and how it is observed:

* SPAN: every call is a span (name, start, end, parent span id) and counted.
* OUTER: every call is counted and its truthy results are counted; only the
  outermost call of a recursion is a span, so recursive calls are neither
  timed nor double counted in the inclusive time.
* COUNT: every call and every truthy result is counted, and nothing is
  timed. For calls that run hundreds of thousands of times per pass, where
  a clock read would cost more than the call.
* TARGET: a span named after the verify target given as first argument.

A layer's self time is the time its spans cover minus the time covered by
their child spans. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

SPAN, OUTER, COUNT, TARGET = "span", "outer", "count", "target"

LAYERS = ("cli", "verify", "correlators", "pseries", "operators", "spectral", "formal", "wave")

# Fixed here, not read from the package, because they are part of metric names.
TARGETS = (
    "virasoro",
    "commutator",
    "cutjoin",
    "kdv",
    "quantum-curve",
    "string-dilaton",
    "oracle-equivalence",
    "sk-identity",
)

# (module, attribute path, kind, span or counter name). Generators
# (odd_partitions, support_keys, stable_pairs) and per-term helpers
# (mono_*, in_support, canonical_parts, wave_coeff) are not hooked: a
# generator's call returns before its work is done, and a helper's time
# belongs to the layer calling it.
HOOKS = (
    ("cli", "main", SPAN, "cli.main"),
    ("verify", "run_target", TARGET, "verify"),
    ("correlators", "CorrelatorTable.__init__", COUNT, "correlators.table"),
    ("correlators", "CorrelatorTable.value", OUTER, "correlators.value"),
    ("correlators", "CorrelatorTable.recursion_step", COUNT, "correlators.recursion_step"),
    ("correlators", "closed_form", SPAN, "correlators.closed_form"),
    ("correlators", "string_dilaton_holds", SPAN, "correlators.string_dilaton_holds"),
    ("pseries", "free_energy", SPAN, "pseries.free_energy"),
    ("pseries", "partition_function", SPAN, "pseries.partition_function"),
    ("pseries", "PSeries.exp", SPAN, "pseries.exp"),
    ("pseries", "PSeries.log", SPAN, "pseries.log"),
    ("pseries", "PSeries.__mul__", SPAN, "pseries.mul"),
    ("pseries", "PSeries.__rmul__", SPAN, "pseries.mul"),
    ("operators", "virasoro_apply", SPAN, "operators.virasoro_apply"),
    ("operators", "virasoro_residual_terms", SPAN, "operators.virasoro_residual_terms"),
    ("operators", "virasoro_annihilation_check", SPAN, "operators.virasoro_annihilation_check"),
    ("operators", "virasoro_commutator_holds", SPAN, "operators.virasoro_commutator_holds"),
    ("operators", "cut_and_join", SPAN, "operators.cut_and_join"),
    ("operators", "evolve", SPAN, "operators.evolve"),
    ("operators", "kdv_initial_series", SPAN, "operators.kdv_initial_series"),
    ("operators", "kdv_field", SPAN, "operators.kdv_field"),
    ("operators", "kdv_residual", SPAN, "operators.kdv_residual"),
    ("spectral", "CorrelationEngine.__init__", COUNT, "spectral.engine"),
    ("spectral", "CorrelationEngine.omega", OUTER, "spectral.omega"),
    ("spectral", "symmetric_table", SPAN, "spectral.symmetric_table"),
    ("spectral", "kernel_coeffs", SPAN, "spectral.kernel_coeffs"),
    ("spectral", "compute_omega", SPAN, "spectral.compute_omega"),
    ("spectral", "omega_records", SPAN, "spectral.omega_records"),
    ("formal", "LaurentPoly.__mul__", COUNT, "formal.laurent_mul"),
    ("formal", "LaurentPoly.__rmul__", COUNT, "formal.laurent_mul"),
    ("formal", "LaurentPoly.coefficient", COUNT, "formal.coefficient"),
    ("formal", "LaurentPoly.inverse", SPAN, "formal.inverse"),
    ("wave", "principal_specialize", SPAN, "wave.principal_specialize"),
    ("wave", "wave_series", SPAN, "wave.wave_series"),
    ("wave", "quantum_curve_residual", SPAN, "wave.quantum_curve_residual"),
    ("wave", "conjugated_residual", SPAN, "wave.conjugated_residual"),
    ("wave", "sk_identity_check", SPAN, "wave.sk_identity_check"),
)


class Tracer:
    """Installs the hooks on the imported `bessel_tr` package and collects
    spans and counters until `uninstall` restores the original objects."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span id, parent id or None, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.nonzero: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _timed(self, name, fn, args, kwargs):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else None
        frame = [span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            self.spans.append((span_id, parent, name, start, end))

    def _wrap(self, fn, kind: str, name: str):
        calls, nonzero, timed = self.calls, self.nonzero, self._timed

        if kind == COUNT:

            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if result:
                    nonzero[name] += 1
                return result

        elif kind == OUTER:
            active = [False]

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if active[0]:
                    result = fn(*args, **kwargs)
                else:
                    active[0] = True
                    try:
                        result = timed(name, fn, args, kwargs)
                    finally:
                        active[0] = False
                if result:
                    nonzero[name] += 1
                return result

        elif kind == TARGET:

            def wrapper(*args, **kwargs):
                span_name = f"{name}.{args[0] if args else kwargs['name']}"
                calls[span_name] += 1
                return timed(span_name, fn, args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return timed(name, fn, args, kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Patch every hook. A module-level function is replaced in every
        `bessel_tr` module that bound it with `from .x import f`; a method is
        replaced on its class, so recursive calls through `self` are seen."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "bessel_tr" or n.startswith("bessel_tr.")]
        for module_name, path, kind, name in HOOKS:
            owner = sys.modules.get(f"bessel_tr.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                continue  # gone from the package; its metrics read 0
            wrapper = self._wrap(original, kind, name)
            if classes:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def raw(self) -> dict:
        """Counters and per-span-name times, in a form that adds across passes."""
        return {
            "calls": dict(self.calls),
            "nonzero": dict(self.nonzero),
            "total": dict(self.total),
            "self": dict(self.self_time),
        }


def merge_raw(parts) -> dict:
    """Sum the raw counters of several children of one pass."""
    merged = {key: defaultdict(float) for key in ("calls", "nonzero", "total", "self")}
    for part in parts:
        for key, values in part.items():
            for name, value in values.items():
                merged[key][name] += value
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict[str, float]:
    """The per-layer metrics of one pass, from merged raw counters."""
    calls, nonzero, total, self_time = (
        defaultdict(float, raw[k]) for k in ("calls", "nonzero", "total", "self")
    )
    metrics = {
        "correlators.tables_built": calls["correlators.table"],
        "correlators.value_calls": calls["correlators.value"],
        "correlators.recursion_steps": calls["correlators.recursion_step"],
        "correlators.value_s": total["correlators.value"],
        "correlators.nonzero_ratio": _ratio(nonzero["correlators.value"], calls["correlators.value"]),
        "pseries.free_energy_calls": calls["pseries.free_energy"],
        "pseries.free_energy_self_s": self_time["pseries.free_energy"],
        "pseries.exp_calls": calls["pseries.exp"],
        "pseries.exp_s": total["pseries.exp"],
        "pseries.mul_calls": calls["pseries.mul"],
        "pseries.mul_s": total["pseries.mul"],
        "operators.virasoro_apply_calls": calls["operators.virasoro_apply"],
        "operators.virasoro_apply_s": total["operators.virasoro_apply"],
        "operators.cut_and_join_s": total["operators.cut_and_join"],
        "operators.kdv_field_self_s": self_time["operators.kdv_field"],
        "spectral.engines_built": calls["spectral.engine"],
        "spectral.omega_calls": calls["spectral.omega"],
        "spectral.omega_s": total["spectral.omega"],
        "spectral.symmetric_table_s": total["spectral.symmetric_table"],
        "formal.laurent_mul_calls": calls["formal.laurent_mul"],
        "formal.coefficient_calls": calls["formal.coefficient"],
        "formal.coefficient_nonzero_ratio": _ratio(nonzero["formal.coefficient"], calls["formal.coefficient"]),
        "formal.inverse_calls": calls["formal.inverse"],
        "wave.principal_specialize_s": total["wave.principal_specialize"],
        "wave.sk_identity_self_s": self_time["wave.sk_identity_check"],
    }
    for target in TARGETS:
        metrics[f"verify.{target}_s"] = total[f"verify.{target}"]
    metrics["cli.self_s"] = self_time["cli.main"]
    metrics["cli.invocations"] = calls["cli.main"]
    for layer in LAYERS[1:]:
        metrics[f"{layer}.self_s"] = sum(
            v for k, v in self_time.items() if k.split(".", 1)[0] == layer
        )
    return metrics
