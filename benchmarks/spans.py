"""Span tracing from outside the program.

The traced run wraps the public functions of each flowmark module and
records one span (name, start, end, parent) per call.  A wrapper is bound
in every flowmark module namespace (and module-level dict) that holds the
original function, so a call is caught whichever module it is made from.
The Flow constructor is traced by patching ``Flow.__init__`` on the class
itself, which keeps ``isinstance(x, Flow)`` true.

Spans stay in memory; ``Tracer.reduce`` turns them into per-name call
counts and self time (a span's duration minus that of its direct children).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

# (metric name, module, attribute).  The metric name is the layer (module)
# and function; "Flow" is the class whose constructor is traced.
TRACED = (
    ("seeds.derive_seed", "flowmark.seeds", "derive_seed"),
    ("flow_model.generate_flow", "flowmark.flow_model", "generate_flow"),
    ("flow_model.Flow", "flowmark.flow_model", "Flow"),
    ("flow_model.estimate_clear_probability", "flowmark.flow_model", "estimate_clear_probability"),
    ("flow_model.write_flow", "flowmark.flow_model", "write_flow"),
    ("flow_model.read_flow", "flowmark.flow_model", "read_flow"),
    ("watermark.embed", "flowmark.watermark", "embed"),
    ("watermark.detect", "flowmark.watermark", "detect"),
    ("watermark.derive_pattern", "flowmark.watermark", "derive_pattern"),
    ("mfa.mfa_varied_offset_bnb", "flowmark.mfa", "mfa_varied_offset_bnb"),
    ("mfa.mfa_varied_offset_exhaustive", "flowmark.mfa", "mfa_varied_offset_exhaustive"),
    ("mfa.mfa_fixed_offset", "flowmark.mfa", "mfa_fixed_offset"),
    ("mfa.read_manifest", "flowmark.mfa", "read_manifest"),
    ("analysis.fp_bound", "flowmark.analysis", "fp_bound"),
    ("analysis.min_flows", "flowmark.analysis", "min_flows"),
    ("config.load_config", "flowmark.config", "load_config"),
    ("repro.monte_carlo_case", "flowmark.repro", "monte_carlo_case"),
    ("cli.main", "flowmark.cli", "main"),
)

GENERATION = ("seeds.derive_seed", "flow_model.generate_flow", "flow_model.Flow")

# Time a hook spends collecting counts is booked under this name, so it is
# neither part of the traced function nor of its caller's self time.
HOOK = "trace.hook"


def _attack_hook(counts, args, kwargs, finding) -> None:
    flows = args[0] if args else kwargs["flows"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    counts["attack_calls"] += 1
    counts["present"] += bool(finding.present)
    counts["configurations_searched"] += finding.configurations_searched
    for flow in flows:
        edges = np.concatenate(([0.0], flow.timestamps, [flow.duration]))
        counts["windows"] += int(np.count_nonzero(np.diff(edges) >= cfg.min_length))
        counts["attacked_flows"] += 1


def _flow_hook(counts, args, kwargs, result) -> None:
    counts["flows"] += 1
    counts["packets"] += len(args[0])


def _write_hook(counts, args, kwargs, result) -> None:
    counts["io_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _read_hook(counts, args, kwargs, result) -> None:
    counts["io_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _detect_hook(counts, args, kwargs, result) -> None:
    counts["detect_calls"] += 1
    counts["detect_hits"] += bool(result.detected)


HOOKS: dict[str, Callable] = {
    name: _attack_hook for name, _, _ in TRACED if name.startswith("mfa.mfa_")
} | {
    "flow_model.Flow": _flow_hook,
    "flow_model.write_flow": _write_hook,
    "flow_model.read_flow": _read_hook,
    "watermark.detect": _detect_hook,
}


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket each traced op."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, kwargs, result)
                spans.append((HOOK, end, clock(), parent))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "flowmark" and m]
        for name, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            hook = HOOKS.get(name)
            if isinstance(original, type):
                init = original.__init__
                self._patches.append((setattr, original, "__init__", init))
                original.__init__ = self._wrap(name, init, hook)
                continue
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((setattr, module, key, value))
                        setattr(module, key, wrapper)
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patches.append((dict.__setitem__, value, dkey, dvalue))
                                value[dkey] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            setter, target, key, value = self._patches.pop()
            setter(target, key, value)

    def reduce(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name; the reduced spans are dropped."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - covered
        self.spans.clear()
        return dict(calls), dict(self_s)
