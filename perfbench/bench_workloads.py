"""The four benchmark workloads.

Every workload derives all of its inputs from the ``--seed`` it is given and
drives the public API the way a user would: ``repro.solve`` in a closed loop
(one call at a time, each on a distinct graph), or ``SolverService.submit``
from one asyncio loop on a seeded open-loop Poisson schedule.

A workload exposes ``setup()`` (repeatable; the last call's state is the one
measured), ``measure(seconds)`` (runs ops until ``seconds`` have passed and
returns a :class:`Pass`), ``replay(pass_)`` (runs exactly the same inputs
again — the traced half of a ``--trace 1`` run) and ``check(pass_)``.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench_checks import check_result, within_tolerance

#: A seed for instances no run's inputs can collide with (draws are < 2**31).
_WARM_SEED = 2**31 + 7


@dataclass
class Op:
    """One timed operation: a ``solve()`` call or one service request."""

    spec: object
    due: float  # when it was (scheduled to be) sent, perf_counter seconds
    sent: float
    done: float
    result: object = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Pass:
    """The ops of one measured (or replayed) pass plus its wall time."""

    ops: list
    start: float
    end: float
    extra: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


def _spec(problem, n, problem_seed, problem_params, mixer, strategy, strategy_params, p, seed):
    from repro.api.spec import SolveSpec

    return SolveSpec.build(
        problem, n, problem_seed=int(problem_seed), problem_params=problem_params,
        mixer=mixer, strategy=strategy, strategy_params=strategy_params, p=p, seed=int(seed),
    )


def _clear_memos() -> None:
    from repro.api.routing import clear_routing_memo
    from repro.api.solver import clear_problem_memo

    clear_problem_memo()
    clear_routing_memo()


def _oracle_failures(pass_: Pass) -> list[tuple[int, str]]:
    """``(op index, reason)`` for every op that raised or disagrees with its oracle."""
    failures = []
    for i, op in enumerate(pass_.ops):
        if op.error is not None:
            failures.append((i, op.error))
        elif not check_result(op.result):
            failures.append((i, f"value {op.result.value!r} disagrees with the oracle"))
    return failures


class SolveWorkload:
    """Closed loop of ``repro.solve`` calls, one distinct graph per call."""

    kind = "solve"

    def __init__(self, name, *, problem, n, problem_params, mixer, strategy,
                 strategy_params, warm_params, p, quality_ops, slo_s, why):
        self.name = name
        self.config = dict(problem=problem, n=n, problem_params=problem_params, mixer=mixer,
                           strategy=strategy, strategy_params=strategy_params, p=p)
        self.warm_params = warm_params
        self.quality_ops = quality_ops
        self.slo_s = slo_s
        self.why = why
        self.recorder = None

    def describe(self) -> dict:
        return {**self.config, "loop": "closed, one client", "quality_ops": self.quality_ops,
                "slo_s": self.slo_s}

    def _make(self, problem_seed, seed, strategy_params=None):
        c = self.config
        return _spec(c["problem"], c["n"], problem_seed, c["problem_params"], c["mixer"],
                     c["strategy"], strategy_params or c["strategy_params"], c["p"], seed)

    def inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            problem_seed, strategy_seed = rng.integers(0, 2**31, size=2)
            yield self._make(problem_seed, strategy_seed)

    def setup(self, seed: int, scratch: Path) -> None:
        """Warm-up: one reduced-effort solve of an instance outside the inputs."""
        from repro import solve

        _clear_memos()
        self.seed = seed
        solve(self._make(_WARM_SEED, _WARM_SEED, self.warm_params))

    def _run(self, specs, seconds: float | None) -> Pass:
        """Solve ``specs`` in order until ``seconds`` have passed (``None``: all of
        them), and never fewer than the ``quality_ops`` that quality is averaged over."""
        from repro import solve

        ops = []
        start = time.perf_counter()
        for spec in specs:
            sent = time.perf_counter()
            try:
                if self.recorder is not None:
                    result = self.recorder.root("api.solve", solve, spec)
                else:
                    result = solve(spec)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, repr(exc)
            done = time.perf_counter()
            ops.append(Op(spec, sent, sent, done, result, error))
            if seconds is not None and done - start >= seconds and len(ops) >= self.quality_ops:
                break
        return Pass(ops, start, ops[-1].done)

    def measure(self, seconds: float) -> Pass:
        return self._run(self.inputs(self.seed), seconds)

    def replay(self, previous: Pass) -> Pass:
        _clear_memos()  # the replay rebuilds every instance, as the first pass did
        return self._run([op.spec for op in previous.ops], None)

    def check(self, pass_: Pass) -> list[tuple[int, str]]:
        return _oracle_failures(pass_)

    def properties(self, pass_: Pass) -> dict:
        """Input-property shares: how often a mixer (family, n, k) repeats."""
        keys = [(op.spec.mixer.name, op.spec.problem.n, op.spec.problem.params.get("k"))
                for op in pass_.ops]
        return {"mixer_repeat_share": 1.0 - len(set(keys)) / len(keys)}


class ServiceWorkload:
    """Open-loop Poisson stream into ``SolverService.submit`` from one event loop."""

    kind = "service"

    #: Quality is averaged over every request: the schedule fixes them all.
    quality_ops = None

    def __init__(self, name, *, fingerprints, rate, repeat_share, repeat_lag_s, slo_s,
                 sample_checks, why):
        self.name = name
        self.fingerprints = fingerprints
        self.rate = rate
        self.repeat_share = repeat_share
        self.repeat_lag_s = repeat_lag_s
        self.slo_s = slo_s
        self.sample_checks = sample_checks
        self.why = why
        self.recorder = None
        self.service = None

    def describe(self) -> dict:
        return {
            "fingerprints": self.fingerprints, "rate_per_s": self.rate,
            "repeat_share": self.repeat_share, "repeat_lag_s": self.repeat_lag_s,
            "window_s": self.service.window_s, "loop": "open, Poisson, one event loop",
            "slo_s": self.slo_s,
        }

    def _make(self, which: int, seed: int):
        c = self.fingerprints[which]
        return _spec(c["problem"], c["n"], c["problem_seed"], c["problem_params"], c["mixer"],
                     c["strategy"], c["strategy_params"], c["p"], seed)

    def schedule(self, seconds: float) -> list[tuple[float, dict, int, bool]]:
        """``(offset_s, spec dict, fingerprint, is_repeat)`` for every request.

        The fingerprint split and the repeat count are exact, not sampled:
        the fingerprints' solve times differ and latency is bimodal (hit or
        solve), so sampled shares would move the percentiles with the seed.
        """
        rng = np.random.default_rng([self.seed, 1])
        count = max(1, int(round(self.rate * seconds)))
        # A Poisson process conditioned on ``count`` arrivals in ``seconds``:
        # sorted uniform times, so every seed offers exactly the stated rate.
        offsets = np.sort(rng.uniform(0.0, seconds, size=count))
        fingerprints = rng.permutation(np.arange(count) % len(self.fingerprints))

        def sources(i):  # earlier same-fingerprint requests at least the lag older
            return [j for j in range(i) if fingerprints[j] == fingerprints[i]
                    and offsets[j] <= offsets[i] - self.repeat_lag_s]

        eligible = [i for i in range(count) if sources(i)]
        repeats = min(len(eligible), int(round(self.repeat_share * count)))
        repeat_at = set(rng.choice(eligible, size=repeats, replace=False).tolist())
        out = []
        for i, offset in enumerate(offsets):
            fingerprint = int(fingerprints[i])
            if i in repeat_at:
                candidates = sources(i)
                spec = out[candidates[int(rng.integers(len(candidates)))]][1]
            else:
                spec = self._make(fingerprint, int(rng.integers(0, 2**31))).to_dict()
            out.append((float(offset), spec, fingerprint, i in repeat_at))
        return out

    def setup(self, seed: int, scratch: Path) -> None:
        """Build the service and fill its warm pool (one entry per fingerprint)."""
        from repro.service import SolverService

        _clear_memos()
        self.seed = seed
        self.scratch = scratch
        # The shipped coalescing window (10 ms) is left as it is.
        self.service = SolverService(result_cache=None, max_entries=8)
        warm = [self._make(which, _WARM_SEED) for which in range(len(self.fingerprints))]
        self.service.solve_many(warm)  # builds both pool entries and their workspaces

    def _fresh_cache(self):
        from repro.io.cache import ResultCache

        return ResultCache(tempfile.mkdtemp(prefix="results-", dir=self.scratch))

    def _run(self, schedule) -> Pass:
        from repro.api.spec import SolveSpec

        self.service.result_cache = self._fresh_cache()
        stats_before = self.service.stats()
        ops: list[Op | None] = [None] * len(schedule)

        async def request(i, spec, due):
            sent = time.perf_counter()
            try:
                result, error = await self.service.submit(spec), None
            except Exception as exc:  # a failed request is counted, not fatal
                result, error = None, repr(exc)
            ops[i] = Op(spec, due, sent, time.perf_counter(), result, error)

        async def drive():
            start = time.perf_counter()
            tasks = []
            for i, (offset, spec_dict, _, _) in enumerate(schedule):
                delay = start + offset - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                spec = SolveSpec.from_dict(spec_dict)  # one object per request
                tasks.append(asyncio.create_task(request(i, spec, start + offset)))
            await asyncio.gather(*tasks)
            return start

        start = asyncio.run(drive())
        stats_after = self.service.stats()
        delta = {key: stats_after[key] - stats_before[key]
                 for key in ("requests", "cache_hits", "solved", "coalesced_requests")}
        delta["pool_builds"] = stats_after["pool"]["misses"] - stats_before["pool"]["misses"]
        return Pass(ops, start, max(op.done for op in ops), extra={"stats": delta})

    def measure(self, seconds: float) -> Pass:
        self._schedule = self.schedule(seconds)
        return self._run(self._schedule)

    def replay(self, previous: Pass) -> Pass:
        return self._run(self._schedule)

    def check(self, pass_: Pass) -> list[tuple[int, str]]:
        """Oracle on every result, plus a seeded sample re-solved one-shot."""
        from repro import solve

        failures = _oracle_failures(pass_)
        rng = np.random.default_rng([self.seed, 2])
        ok = [i for i, op in enumerate(pass_.ops) if op.error is None]
        sample = rng.choice(ok, size=min(self.sample_checks, len(ok)), replace=False)
        for i in sorted(int(i) for i in sample):
            op = pass_.ops[i]
            one_shot = solve(op.spec)
            if not within_tolerance(op.result.value, one_shot.value):
                failures.append((i, f"service value {op.result.value!r} != one-shot "
                                    f"solve() {one_shot.value!r}"))
        return failures

    def properties(self, pass_: Pass) -> dict:
        repeats = sum(1 for r in self._schedule if r[3])
        first = sum(1 for r in self._schedule if r[2] == 0)
        stats = pass_.extra["stats"]
        return {
            "repeat_share": repeats / len(self._schedule),
            "fingerprint_a_share": first / len(self._schedule),
            "coalesced_ratio": stats["coalesced_requests"] / max(1, stats["solved"]),
            "cache_hit_ratio": stats["cache_hits"] / max(1, stats["requests"]),
        }


# One fixed problem instance per fingerprint, as a warm pool serves a fixed set
# of problems; the seed draws the schedule and every request's strategy seed.
_SERVICE_FINGERPRINTS = [
    # The service-throughput configuration: constrained, diagonalized mixer.
    dict(problem="densest_subgraph", n=11, problem_seed=1, problem_params={"k": 5}, mixer="clique",
         strategy="random", strategy_params={"iters": 4}, p=2),
    # Unconstrained companion on the X (Walsh-Hadamard) mixer.
    dict(problem="maxcut", n=12, problem_seed=1, problem_params={}, mixer="x",
         strategy="random", strategy_params={"iters": 4}, p=2),
]

WORKLOADS = {
    "x-anglefind": lambda: SolveWorkload(
        "x-anglefind", problem="maxcut", n=12, problem_params={"edge_probability": 0.5},
        mixer="x", strategy="multistart", strategy_params={"iters": 8},
        warm_params={"iters": 8, "maxiter": 1}, p=3, quality_ops=16, slo_s=1.5,
        why="unconstrained angle finding: WHT forward/adjoint kernels and BFGS dominate",
    ),
    "clique-anglefind": lambda: SolveWorkload(
        "clique-anglefind", problem="densest_subgraph", n=12, problem_params={"k": 6},
        mixer="clique", strategy="multistart", strategy_params={"iters": 8},
        warm_params={"iters": 8, "maxiter": 1}, p=2, quality_ops=8, slo_s=3.0,
        why="constrained angle finding: clique eigendecomposition plus real-GEMM search",
    ),
    "x-sweep": lambda: SolveWorkload(
        "x-sweep", problem="maxcut", n=18, problem_params={}, mixer="x",
        strategy="grid", strategy_params={"resolution": 8},
        warm_params={"resolution": 2}, p=1, quality_ops=4, slo_s=6.0,
        why="batched expectations at dim 2^18: space/objective set-up and a working set past L2",
    ),
    "service-stream": lambda: ServiceWorkload(
        "service-stream", fingerprints=_SERVICE_FINGERPRINTS, rate=2.5,
        repeat_share=0.25, repeat_lag_s=2.0, slo_s=1.0, sample_checks=4,
        why="open-loop traffic through the coalescing window, warm pool and result cache",
    ),
}
