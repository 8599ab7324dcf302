"""Tests for the solver service: pools, coalescing, result cache, HTTP front.

The load-bearing property is *equivalence*: whatever path a spec takes
through the service — warm pool, coalesced multi-start batch, result-cache
hit, HTTP round trip — the answer must match a one-shot ``solve()`` of the
same spec (bit-identical on sequential paths, ≤1e-10 on coalesced ones,
where only the GEMM batch composition differs).
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import SolveSpec, solve
from repro.api.solver import SolveResult, clear_problem_memo, memoized_problem
from repro.hpc.memory import warm_entry_bytes
from repro.io.cache import ResultCache, cached_eigendecomposition
from repro.service import (
    SolverService,
    WarmPool,
    coalesce_key,
    coalescible,
    default_service,
    pool_fingerprint,
    reset_default_service,
)
from repro.service.server import run_server


def _spec(seed=0, *, problem="maxcut", n=6, mixer="x", strategy="random",
          strategy_params=None, p=2, k=None):
    problem_params = {} if k is None else {"k": k}
    return SolveSpec.build(
        problem=problem,
        n=n,
        problem_params=problem_params,
        mixer=mixer,
        strategy=strategy,
        strategy_params={"iters": 4} if strategy_params is None else strategy_params,
        p=p,
        seed=seed,
    )


def _rows_equal(a: dict, b: dict) -> bool:
    """Row equality ignoring wall time (the only nondeterministic field)."""
    a = {key: value for key, value in a.items() if key != "wall_time_s"}
    b = {key: value for key, value in b.items() if key != "wall_time_s"}
    return a == b


# ---------------------------------------------------------------------------
# Fingerprints and coalescibility
# ---------------------------------------------------------------------------


class TestKeys:
    def test_fingerprint_ignores_strategy_and_seed(self):
        base = _spec(0)
        other_seed = _spec(3)
        other_strategy = SolveSpec(
            problem=base.problem, mixer=base.mixer, strategy="grid", p=base.p, seed=0
        )
        assert pool_fingerprint(base) == pool_fingerprint(other_seed)
        assert pool_fingerprint(base) == pool_fingerprint(other_strategy)

    def test_fingerprint_distinguishes_setup(self):
        assert pool_fingerprint(_spec(0)) != pool_fingerprint(_spec(0, n=8))
        assert pool_fingerprint(_spec(0)) != pool_fingerprint(_spec(0, mixer="grover"))
        assert pool_fingerprint(_spec(0)) != pool_fingerprint(_spec(0, p=3))

    def test_coalesce_key_ignores_only_the_seed(self):
        assert coalesce_key(_spec(0)) == coalesce_key(_spec(7))
        loose = _spec(0, strategy_params={"iters": 8})
        assert coalesce_key(_spec(0)) != coalesce_key(loose)
        grid = _spec(0, strategy="grid", strategy_params={"resolution": 4})
        assert coalesce_key(_spec(0)) != coalesce_key(grid)

    def test_coalescible_is_random_with_effort_knobs_only(self):
        assert coalescible(_spec(0))
        assert coalescible(_spec(0, strategy_params={"iters": 8, "maxiter": 50}))
        assert coalescible(_spec(0, strategy="random_restart", strategy_params={}))
        assert not coalescible(_spec(0, strategy="grid", strategy_params={"resolution": 4}))
        assert not coalescible(_spec(0, strategy_params={"iters": 4, "refine_top": 2}))
        assert not coalescible(_spec(0, strategy_params={"iters": 4, "vectorized": False}))


# ---------------------------------------------------------------------------
# Equivalence: service answers == one-shot solve()
# ---------------------------------------------------------------------------


class TestEquivalence:
    def test_single_spec_is_bit_identical_to_solve(self):
        spec = _spec(1)
        service = SolverService(result_cache=None)
        result = service.solve(spec)
        direct = solve(spec)
        assert result.value == direct.value
        assert np.array_equal(result.angles, direct.angles)
        assert _rows_equal(result.to_row(), direct.to_row())

    def test_coalesced_group_matches_solve_per_spec(self):
        specs = [_spec(seed) for seed in range(5)]
        service = SolverService(result_cache=None)
        results = service.solve_many(specs)
        assert service.coalesced_groups == 1
        assert service.coalesced_requests == 5
        for result, spec in zip(results, specs):
            direct = solve(spec)
            assert abs(result.value - direct.value) <= 1e-10
            assert result.spec == spec
            assert np.allclose(result.angles, direct.angles, atol=1e-6)
            assert result.evaluations > 0

    def test_coalesced_constrained_dicke_clique(self):
        specs = [
            _spec(seed, problem="densest_subgraph", n=6, k=3, mixer="clique")
            for seed in range(3)
        ]
        service = SolverService(result_cache=None)
        results = service.solve_many(specs)
        for result, spec in zip(results, specs):
            assert abs(result.value - solve(spec).value) <= 1e-10

    def test_non_coalescible_strategies_fall_back_sequential(self):
        specs = [
            _spec(seed, strategy="grid", strategy_params={"resolution": 4})
            for seed in range(3)
        ]
        service = SolverService(result_cache=None)
        results = service.solve_many(specs)
        assert service.coalesced_groups == 0
        for result, spec in zip(results, specs):
            direct = solve(spec)
            assert result.value == direct.value
            assert np.array_equal(result.angles, direct.angles)

    def test_mixed_batch_routes_each_spec_correctly(self):
        specs = [
            _spec(0),
            _spec(1),
            _spec(0, strategy="grid", strategy_params={"resolution": 4}),
            _spec(0, mixer="grover"),
        ]
        service = SolverService(result_cache=None)
        results = service.solve_many(specs)
        for result, spec in zip(results, specs):
            assert abs(result.value - solve(spec).value) <= 1e-10
        assert len(service.pool) == 2  # (maxcut, x, 2) and (maxcut, grover, 2)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_hit_returns_identical_row_with_zero_simulator_calls(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        spec = _spec(2)
        first = SolverService(result_cache=cache).solve(spec)
        assert not first.cached

        fresh = SolverService(result_cache=cache)
        hit = fresh.solve(spec)
        assert hit.cached
        assert fresh.cache_hits == 1
        assert fresh.solved == 0
        # Zero simulator work: nothing was ever built into the warm pool.
        assert len(fresh.pool) == 0
        assert _rows_equal(hit.to_row(), first.to_row())
        assert isinstance(hit, SolveResult)
        with pytest.raises(ValueError, match="cache-reconstructed"):
            hit.probabilities()
        with pytest.raises(ValueError, match="cache-reconstructed"):
            hit.sample(10)

    def test_different_seeds_are_distinct_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        service = SolverService(result_cache=cache)
        service.solve_many([_spec(0), _spec(1)])
        assert len(cache) == 2
        assert cache.get(_spec(0)) != cache.get(_spec(1))
        assert cache.get(_spec(9)) is None

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(0)
        cache.put(spec, solve(spec).to_row())
        cache.path_for(spec).write_text("{torn", encoding="utf-8")
        assert cache.get(spec) is None
        service = SolverService(result_cache=cache)
        result = service.solve(spec)  # recomputes and overwrites
        assert not result.cached
        assert cache.get(spec) is not None

    def test_concurrent_puts_never_tear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(0)
        row = solve(spec).to_row()

        def hammer(worker):
            for _ in range(10):
                cache.put(spec, {**row, "writer": worker})
                got = cache.get(spec)
                assert got is not None and "writer" in got

        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(hammer, w) for w in range(4)]:
                future.result()
        assert len(cache) == 1


# ---------------------------------------------------------------------------
# Warm pool: reuse, LRU, byte budget
# ---------------------------------------------------------------------------


class TestWarmPool:
    def test_same_fingerprint_reuses_one_entry(self):
        pool = WarmPool()
        first = pool.entry_for(_spec(0))
        second = pool.entry_for(_spec(5))
        assert first is second
        assert pool.stats()["hits"] == 1
        assert pool.stats()["misses"] == 1
        assert first.ansatz is second.ansatz

    def test_entry_count_lru(self):
        pool = WarmPool(max_entries=2)
        a = pool.entry_for(_spec(0, n=4))
        pool.entry_for(_spec(0, n=5))
        pool.entry_for(_spec(0, n=6))
        assert len(pool) == 2
        assert pool.evictions == 1
        assert a.fingerprint not in pool  # oldest went first

    def test_byte_budget_eviction(self):
        small = WarmPool(max_entries=8).entry_for(_spec(0, n=6)).estimated_bytes
        # Budget fits one n=6 entry but not two.
        pool = WarmPool(max_entries=8, max_bytes=int(small * 1.5))
        pool.entry_for(_spec(0, n=6))
        pool.entry_for(_spec(0, n=6, mixer="grover"))
        assert len(pool) == 1
        assert pool.evictions == 1
        assert pool.total_bytes() <= pool.max_bytes

    def test_most_recent_entry_survives_even_over_budget(self):
        pool = WarmPool(max_entries=8, max_bytes=1)
        entry = pool.entry_for(_spec(0, n=6))
        assert len(pool) == 1
        assert entry.fingerprint in pool

    def test_estimate_matches_memory_helper_and_grows_with_batches(self):
        pool = WarmPool()
        spec = _spec(0, n=6)
        entry = pool.entry_for(spec)
        dim = entry.ansatz.schedule.dim
        assert entry.estimated_bytes == warm_entry_bytes(dim, p=spec.p)
        SolverService(pool=pool, result_cache=None).solve_many([_spec(s) for s in range(3)])
        capacity = entry.ansatz.workspace.capacity
        assert capacity >= 3 * 4  # 3 requests x 4 restarts
        assert entry.estimated_bytes == warm_entry_bytes(dim, p=spec.p, batch_capacity=capacity)


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_eight_concurrent_clients_one_service(self, tmp_path):
        service = SolverService(result_cache=ResultCache(tmp_path))
        specs = [_spec(seed % 4, mixer=("x" if seed % 2 else "grover")) for seed in range(8)]
        expected = {id(spec): solve(spec).to_row() for spec in specs}

        def client(spec):
            return service.solve(spec)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(client, specs))
        for spec, result in zip(specs, results):
            assert abs(result.value - expected[id(spec)]["value"]) <= 1e-10
        assert service.requests == 8
        # 4 distinct specs appeared twice each: second arrivals either hit the
        # result cache or recomputed sequentially — all answers agreed above.
        assert len(service.pool) == 2

    def test_async_submit_coalesces_within_window(self):
        service = SolverService(result_cache=None, window_s=0.05)
        specs = [_spec(seed) for seed in range(4)]

        async def clients():
            return await asyncio.gather(*(service.submit(spec) for spec in specs))

        results = asyncio.run(clients())
        assert service.coalesced_groups == 1
        assert service.coalesced_requests == 4
        for result, spec in zip(results, specs):
            assert abs(result.value - solve(spec).value) <= 1e-10

    def test_async_submit_bad_spec_raises_per_request(self):
        service = SolverService(result_cache=None, window_s=0.0)

        async def one():
            bad = _spec(0, strategy="random", strategy_params={"iters": -3})
            with pytest.raises(ValueError):
                await service.submit(bad)
            good = await service.submit(_spec(0))
            return good

        result = asyncio.run(one())
        assert abs(result.value - solve(_spec(0)).value) <= 1e-10

    def test_concurrent_eigendecomposition_fill_is_single_flight(self, tmp_path):
        path = tmp_path / "mixer.npz"
        calls = []
        lock = threading.Lock()

        def compute():
            with lock:
                calls.append(1)
            values = np.arange(4, dtype=np.float64)
            vectors = np.eye(4)
            return values, vectors

        def fill():
            return cached_eigendecomposition(path, "test-mixer", compute)

        with ThreadPoolExecutor(max_workers=6) as pool:
            outputs = [future.result() for future in [pool.submit(fill) for _ in range(6)]]
        assert len(calls) == 1  # one compute; everyone else loaded the file
        for values, vectors in outputs:
            assert np.array_equal(values, np.arange(4, dtype=np.float64))
            assert np.array_equal(vectors, np.eye(4))


# ---------------------------------------------------------------------------
# Problem memoization (satellite)
# ---------------------------------------------------------------------------


class TestProblemMemo:
    def test_solver_reuses_memoized_instance(self):
        clear_problem_memo()
        spec = _spec(0)
        from repro.api.solver import QAOASolver

        first = QAOASolver(spec)
        second = QAOASolver(spec)
        assert first.problem is second.problem
        assert memoized_problem(spec.problem) is first.problem
        clear_problem_memo()
        assert memoized_problem(spec.problem) is not first.problem

    def test_memo_distinguishes_specs(self):
        from repro.api import ProblemSpec

        clear_problem_memo()
        a = memoized_problem(ProblemSpec("maxcut", 6, seed=0))
        b = memoized_problem(ProblemSpec("maxcut", 6, seed=1))
        c = memoized_problem(ProblemSpec("maxcut", 8, seed=0))
        assert a is not b and a is not c
        assert memoized_problem(ProblemSpec("maxcut", 6, seed=0)) is a

    @staticmethod
    def _dicke_spec(problem_seed=0, *, k=3, mixer="clique", mixer_params=None):
        return SolveSpec.build(
            problem="densest_subgraph", n=6, problem_seed=problem_seed,
            problem_params={"k": k}, mixer=mixer, mixer_params=mixer_params,
            strategy="random", strategy_params={"iters": 2}, p=1,
        )

    def test_mixer_shared_across_graphs(self):
        from repro.api.solver import QAOASolver

        clear_problem_memo()
        first = QAOASolver(self._dicke_spec(0))
        second = QAOASolver(self._dicke_spec(1))
        assert first.problem is not second.problem
        assert first.mixer is second.mixer

    def test_mixer_memo_distinguishes_pairs_and_k(self):
        from repro.api.solver import QAOASolver

        clear_problem_memo()
        k3 = QAOASolver(self._dicke_spec(k=3)).mixer
        k2 = QAOASolver(self._dicke_spec(k=2)).mixer
        assert k2 is not k3 and (k2.k, k3.k) == (2, 3)
        pairs_a = {"pairs": [[0, 1], [1, 2], [2, 3]]}
        pairs_b = {"pairs": [[0, 5], [1, 4], [2, 3]]}
        a = QAOASolver(self._dicke_spec(mixer="xy", mixer_params=pairs_a)).mixer
        b = QAOASolver(self._dicke_spec(mixer="xy", mixer_params=pairs_b)).mixer
        assert a is not b
        assert a.pairs == ((0, 1), (1, 2), (2, 3))
        assert b.pairs == ((0, 5), (1, 4), (2, 3))

    def test_mixer_memo_keyed_by_backend(self):
        pytest.importorskip("torch")
        from repro.api.solver import QAOASolver
        from repro.backend import use_backend

        clear_problem_memo()
        spec = self._dicke_spec()
        with use_backend("numpy"):
            numpy_mixer = QAOASolver(spec).mixer
        with use_backend("torch"):
            torch_mixer = QAOASolver(spec).mixer
        assert torch_mixer is not numpy_mixer
        assert (numpy_mixer.backend.name, torch_mixer.backend.name) == ("numpy", "torch")

    def test_clear_problem_memo_drops_the_mixer(self):
        from repro.api.solver import QAOASolver

        clear_problem_memo()
        spec = self._dicke_spec()
        first = QAOASolver(spec).mixer
        assert QAOASolver(spec).mixer is first
        clear_problem_memo()
        assert QAOASolver(spec).mixer is not first


# ---------------------------------------------------------------------------
# Default service + sweep routing
# ---------------------------------------------------------------------------


class TestDefaultService:
    def test_default_service_is_a_shared_singleton(self):
        reset_default_service()
        try:
            assert default_service() is default_service()
        finally:
            reset_default_service()

    def test_solve_spec_rows_matches_direct_row(self, monkeypatch, tmp_path):
        # The sweep executor routes through the default service; rows must
        # stay exactly what QAOASolver(spec).run().to_row() produces.
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        reset_default_service()
        try:
            from repro.experiments.tasks import solve_spec_rows

            spec = _spec(3)
            row = solve_spec_rows(spec.to_dict())[0]
            direct = solve(spec).to_row()
            assert _rows_equal(row, direct)
        finally:
            reset_default_service()


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------


async def _http(host, port, method, path, payload=None):
    reader, writer = await asyncio.open_connection(host, port)
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    writer.write(head + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header, _, content = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, json.loads(content) if content else None


class TestServer:
    PORT = 18653

    def _run(self, coro_fn):
        async def wrapper():
            service = SolverService(result_cache=None, window_s=0.01)
            ready = asyncio.Event()
            task = asyncio.create_task(
                run_server(service, host="127.0.0.1", port=self.PORT, ready=ready, log=None)
            )
            await asyncio.wait_for(ready.wait(), timeout=5)
            try:
                return await coro_fn(service)
            finally:
                task.cancel()

        return asyncio.run(wrapper())

    def test_healthz_stats_and_solve_round_trip(self):
        specs = [_spec(seed) for seed in range(3)]

        async def scenario(service):
            status, health = await _http("127.0.0.1", self.PORT, "GET", "/healthz")
            assert (status, health) == (200, {"status": "ok"})

            status, data = await _http(
                "127.0.0.1", self.PORT, "POST", "/solve",
                {"specs": [spec.to_dict() for spec in specs]},
            )
            assert status == 200
            rows = data["results"]
            assert len(rows) == 3
            for row, spec in zip(rows, specs):
                assert abs(row["value"] - solve(spec).value) <= 1e-10
                assert row["cached"] is False

            status, stats = await _http("127.0.0.1", self.PORT, "GET", "/stats")
            assert status == 200
            assert stats["requests"] == 3
            assert stats["pool"]["entries"] == 1
            return stats

        stats = self._run(scenario)
        assert stats["solved"] == 3

    def test_single_spec_and_error_paths(self):
        async def scenario(service):
            spec = _spec(0)
            status, row = await _http("127.0.0.1", self.PORT, "POST", "/solve", spec.to_dict())
            assert status == 200
            assert row["value"] == pytest.approx(solve(spec).value, abs=1e-10)

            status, err = await _http("127.0.0.1", self.PORT, "POST", "/solve", {"specs": []})
            assert status == 400 and "error" in err
            status, err = await _http("127.0.0.1", self.PORT, "GET", "/nope")
            assert status == 404
            status, err = await _http("127.0.0.1", self.PORT, "GET", "/solve")
            assert status == 405

        self._run(scenario)
