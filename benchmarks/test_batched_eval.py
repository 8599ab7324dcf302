"""Batched vs scalar angle-evaluation throughput (the batching tentpole).

Heavy sweep workloads (grid search, random-restart seeding) hammer the
expectation-value call with many angle sets against one fixed problem.  The
batched engine evaluates M angle sets as one ``(dim, M)`` matrix — BLAS-3
GEMMs / batched transforms instead of M scalar evolutions — and this
benchmark records the speedup trajectory in ``BENCH_batched_eval.json`` at
the repo root so later PRs can track it.

The acceptance floors: at (n=8, p=3, M=128) on the transverse-field mixer the
batched path must be at least 3x the scalar loop's throughput, and at
(n=12, p=2, M=256) at least 1.2x.  The gates were recalibrated when the
scalar entry points were collapsed into M=1 calls of the batched kernels:
the scalar loop now rides the same GEMM kernels, so
at GEMM-dominated sizes the remaining batched win is batching efficiency
alone, while at overhead-dominated sizes it stays several-fold.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.timing import time_call
from repro.bench.workloads import figure4_graph
from repro.core import QAOAAnsatz
from repro.hilbert import state_matrix
from repro.io.results import write_json_atomic
from repro.mixers import grover_mixer, mixer_clique, transverse_field_mixer
from repro.problems.maxcut import maxcut_values

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_batched_eval.json"

# (label, mixer factory over n, n, p, M); the x/8/3/128 and x/12/2/256 rows
# carry the acceptance criteria, the others chart scaling in n, p and mixer
# type.
_CONFIGS = [
    ("x", lambda n: transverse_field_mixer(n), 10, 1, 64),
    ("x", lambda n: transverse_field_mixer(n), 12, 2, 256),
    ("x", lambda n: transverse_field_mixer(n), 8, 3, 128),
    ("grover", lambda n: grover_mixer(n), 12, 2, 256),
    ("clique", lambda n: mixer_clique(n, n // 2), 10, 2, 128),
]


def _measure(label: str, mixer_factory, n: int, p: int, M: int) -> dict:
    mixer = mixer_factory(n)
    if label == "clique":
        # constrained Dicke subspace: a synthetic objective over the C(n, k) states
        obj = np.random.default_rng(17).random(mixer.dim)
    else:
        obj = maxcut_values(figure4_graph(n), state_matrix(n))
    ansatz = QAOAAnsatz(obj, mixer, p)
    rng = np.random.default_rng(20230923 + n + p)
    angles = 2.0 * np.pi * rng.random((M, ansatz.num_angles))

    def scalar_loop():
        values = np.empty(M)
        for j in range(M):
            values[j] = ansatz.expectation(angles[j])
        return values

    def batched():
        return ansatz.expectation_batch(angles)

    # correctness first: the two paths must agree well below the 1e-10 gate
    mismatch = float(np.abs(scalar_loop() - batched()).max())
    assert mismatch <= 1e-10, f"batched/scalar disagree by {mismatch}"

    scalar_s = time_call(scalar_loop, repeats=3, warmup=1)["min"]
    batched_s = time_call(batched, repeats=3, warmup=1)["min"]
    return {
        "mixer": label,
        "n": n,
        "p": p,
        "M": M,
        "dim": ansatz.schedule.dim,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "scalar_evals_per_s": M / scalar_s,
        "batched_evals_per_s": M / batched_s,
        "speedup": scalar_s / batched_s,
        "max_abs_mismatch": mismatch,
    }


def _prior_throughput(path, key_fields, rate_field):
    """Map of record key -> recorded throughput from a prior BENCH file."""
    if not path.exists():
        return {}
    try:
        previous = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return {}
    return {
        tuple(record.get(f) for f in key_fields): record[rate_field]
        for record in previous.get("records", [])
        if rate_field in record
    }


@pytest.mark.slow
def test_batched_throughput_and_record():
    key_fields = ("mixer", "n", "p", "M")
    prior = _prior_throughput(_RESULT_PATH, key_fields, "batched_evals_per_s")
    records = [_measure(*config) for config in _CONFIGS]
    payload = {
        "benchmark": "batched_eval",
        "unit": "seconds (min of 3 after warmup)",
        "numpy": np.__version__,
        "records": records,
    }
    write_json_atomic(_RESULT_PATH, payload)

    # Two regimes, two floors.  Since the scalar collapse the scalar loop runs
    # the same batched kernels at M=1, so the large-n gate measures batching
    # efficiency on top of an already-GEMM-bound baseline; the small-n gate
    # keeps the several-fold per-call-overhead win on the record.
    for key, floor in ((("x", 8, 3, 128), 3.0), (("x", 12, 2, 256), 1.2)):
        gate = next(r for r in records if (r["mixer"], r["n"], r["p"], r["M"]) == key)
        assert gate["speedup"] >= floor, (
            f"batched evaluation only {gate['speedup']:.2f}x over the scalar loop "
            f"at {key}; acceptance requires >= {floor}x"
        )

    # No regression: each row keeps at least 0.9x the throughput its previous
    # run recorded.  A sub-0.9x first reading gets one re-measure — wall
    # clock at the ~10ms kernel scale swings past 10% under transient
    # machine load.
    configs = {(c[0], c[2], c[3], c[4]): c for c in _CONFIGS}
    for record in records:
        key = tuple(record[f] for f in key_fields)
        if key in prior:
            ratio = record["batched_evals_per_s"] / prior[key]
            if ratio < 0.9:
                retry = _measure(*configs[key])
                ratio = max(ratio, retry["batched_evals_per_s"] / prior[key])
            assert ratio >= 0.9, (
                f"batched throughput regressed to {ratio:.2f}x the prior "
                f"recording at {key}; acceptance requires >= 0.9x"
            )
