"""Span recording for the traced benchmark run.

The benchmark never edits the library: it wraps each layer's public entry
point *where its caller looks it up* (a module global such as
``repro.api.solver.make_mixer``, or a method on the class the caller
instantiates) with a thin timing wrapper.  While the recorder is disabled a
wrapper costs one attribute test; while enabled it records a span
``(name, start, end, parent, run_id, attrs)`` in memory.  Spans are written to
disk only when the run ends.

Self time is a span's duration minus the durations of its direct children.
Children always run on the parent's thread and inside its interval, so the
subtraction never double counts.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

import numpy as np

__all__ = ["Recorder", "Patcher", "install_layer_wrappers", "summarize", "array_bytes"]


class Recorder:
    """In-memory span store with one span stack per thread."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        """This thread's open spans as ``(index, name)`` pairs, innermost last."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def call(self, name, fn, args, kwargs, attrs_fn):
        stack = self._stack()
        if stack and stack[-1][1] == name:
            # A subclass override delegating to ``super()``: one span, not two.
            return fn(*args, **kwargs)
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        parent = stack[-1][0] if stack else -1
        # A root span (one solve, one service batch) names the run its
        # descendants belong to.
        run_id = stack[0][0] if stack else index
        stack.append((index, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.spans[index] = (name, start, time.perf_counter(), parent, run_id, {"error": 1})
            raise
        finally:
            stack.pop()
        end = time.perf_counter()
        attrs = attrs_fn(args, kwargs, result) if attrs_fn is not None else None
        self.spans[index] = (name, start, end, parent, run_id, attrs)
        return result

    def root(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span the benchmark itself opens (a call site)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self.call(name, fn, args, kwargs, None)

    def records(self) -> list[dict]:
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "run_id": s[4],
             "attrs": s[5]}
            for s in self.spans
            if s is not None
        ]


class Patcher:
    """Replaces attributes with span wrappers and puts the originals back."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str, attrs_fn=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            return recorder.call(name, original, args, kwargs, attrs_fn)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# attribute extractors (run after the wrapped call returned)
# ---------------------------------------------------------------------------

def array_bytes(obj) -> int:
    """Bytes of the NumPy arrays held directly by ``obj`` (or inside tuples)."""
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, tuple) else (value,)
        total += sum(item.nbytes for item in items if isinstance(item, np.ndarray))
    return total


def _working_set(ansatz) -> int:
    """Computed bytes an ansatz touches per evaluation: cost, workspaces, mixers."""
    total = ansatz.cost.values.nbytes
    for workspace in (ansatz.workspace, ansatz._batched_workspace,
                      getattr(ansatz.workspace, "_batched", None)):
        if workspace is not None:
            total += array_bytes(workspace)
    for mixer in {id(m): m for m in ansatz.schedule.layers}.values():
        total += array_bytes(mixer)
    return total


def _core_attrs(args, kwargs, result):
    return {"working_set": _working_set(args[0])}


def _kernel_attrs(args, kwargs, result):
    mixer, psi = args[0], args[1]
    dim = psi.shape[0]
    batch = psi.shape[1] if psi.ndim == 2 else 1
    # state read + state written (complex128), plus every dense basis factor
    # the diagonalized path streams through its two GEMMs.
    moved = 2 * dim * batch * 16
    for factor in ("_V", "_Vdag"):
        basis = getattr(mixer, factor, None)
        if basis is not None:
            moved += basis.nbytes
    return {"bytes": moved, "dim": dim, "M": batch}


def _mixer_build_attrs(args, kwargs, result):
    return {"key": [type(result).__name__, result.n, getattr(result, "k", None)]}


def _strategy_attrs(args, kwargs, result):
    return {"evaluations": int(result.evaluations)}


def _cache_get_attrs(args, kwargs, result):
    return {"hit": result is not None}


def _solve_many_attrs(args, kwargs, result):
    specs = args[1] if len(args) > 1 else kwargs["specs"]
    return {"size": len(result), "spec_ids": [id(spec) for spec in specs]}


def install_layer_wrappers(patcher: Patcher) -> None:
    """Wrap every measured layer's entry point where its caller looks it up."""
    mod = importlib.import_module
    solver = mod("repro.api.solver")
    registry = mod("repro.problems.registry")
    ansatz = mod("repro.core.ansatz").QAOAAnsatz
    xmixer = mod("repro.mixers.xmixer")
    xy = mod("repro.mixers.xy")
    base = mod("repro.mixers.base")
    pools = mod("repro.service.pools")
    service_core = mod("repro.service.core")
    coalesce = mod("repro.service.coalesce")
    cache = mod("repro.io.cache")

    # api: routing and solver construction
    patcher.wrap(solver, "select_execution_path", "api.routing.select")
    patcher.wrap(pools, "select_execution_path", "api.routing.select")
    patcher.wrap(solver.QAOASolver, "__init__", "api.build")
    # problems and hilbert
    patcher.wrap(solver, "make_problem", "problems.build")
    patcher.wrap(registry.ProblemInstance, "objective_values", "problems.objective")
    patcher.wrap(registry, "FullSpace", "hilbert.space")
    patcher.wrap(registry, "DickeSpace", "hilbert.space")
    patcher.wrap(xmixer, "FullSpace", "hilbert.space")
    patcher.wrap(xy, "DickeSpace", "hilbert.space")
    # mixers: construction and the four batched kernels
    patcher.wrap(solver, "make_mixer", "mixers.build", _mixer_build_attrs)
    for kernel in ("apply_batch", "apply_hamiltonian_batch"):
        patcher.wrap(xmixer.XMixer, kernel, f"mixers.x.{kernel}", _kernel_attrs)
        patcher.wrap(base.DiagonalizedMixer, kernel, f"mixers.diag.{kernel}", _kernel_attrs)
        patcher.wrap(xy.XYMixer, kernel, f"mixers.diag.{kernel}", _kernel_attrs)
    # angles: the strategy call of solve() and the service's coalesced batch
    patcher.wrap(solver, "run_strategy", "angles.search", _strategy_attrs)
    patcher.wrap(coalesce, "multistart_minimize", "angles.search", _strategy_attrs)
    # core: the ansatz evaluation surface the strategies call
    for method in ("expectation_batch", "value_and_gradient_batch", "simulate"):
        patcher.wrap(ansatz, method, f"core.{method}", _core_attrs)
    # service
    patcher.wrap(service_core.SolverService, "solve_many", "service.solve_many",
                 _solve_many_attrs)
    patcher.wrap(pools.WarmPool, "entry_for", "service.pool_entry")
    patcher.wrap(service_core, "solve_group", "service.group_solve")
    patcher.wrap(cache.ResultCache, "get", "service.cache_get", _cache_get_attrs)
    patcher.wrap(cache.ResultCache, "put", "service.cache_put")


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def summarize(spans: list) -> dict:
    """Per-name totals: ``time``, ``self``, ``calls``, summed ``bytes``, spans."""
    child_time = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict = defaultdict(lambda: {"time": 0.0, "self": 0.0, "calls": 0, "bytes": 0})
    for position, (name, start, end, _parent, _run, attrs) in enumerate(spans):
        entry = out[name]
        duration = end - start
        entry["time"] += duration
        entry["self"] += duration - child_time[position]
        entry["calls"] += 1
        if attrs and "bytes" in attrs:
            entry["bytes"] += attrs["bytes"]
    return dict(out)
