"""Tests for the core QAOA statevector simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PrecomputedCost,
    BatchedWorkspace,
    QAOAResult,
    expectation_value,
    get_exp_value,
    random_angles,
    simulate,
    split_angles,
)
from repro.core.simulator import evolve_state
from repro.hilbert import FullSpace, state_matrix
from repro.mixers import MixerSchedule, transverse_field_mixer
from repro.mixers.grover import grover_mixer
from repro.problems import erdos_renyi, maxcut_values


class TestAngleHandling:
    def test_split_angles_layout(self, tf_mixer_6):
        schedule = MixerSchedule(tf_mixer_6, rounds=3)
        angles = np.arange(6.0)
        betas, gammas = split_angles(angles, schedule)
        assert len(betas) == 3
        assert np.allclose(np.concatenate(betas), [0, 1, 2])
        assert np.allclose(gammas, [3, 4, 5])

    def test_split_angles_length_check(self, tf_mixer_6):
        schedule = MixerSchedule(tf_mixer_6, rounds=2)
        with pytest.raises(ValueError):
            split_angles(np.zeros(5), schedule)

    def test_random_angles_range_and_shape(self):
        angles = random_angles(4, rng=0)
        assert angles.shape == (8,)
        assert np.all((angles >= 0) & (angles < 2 * np.pi))
        assert np.allclose(random_angles(4, rng=0), angles)  # deterministic

    def test_random_angles_multi_beta(self):
        assert random_angles(2, rng=1, num_betas=6).shape == (8,)


class TestSimulateBasics:
    def test_listing1_workflow(self, small_graph):
        """The paper's Listing 1, end to end."""
        n = 6
        obj_vals = maxcut_values(small_graph, state_matrix(n))
        mixer = transverse_field_mixer(n)
        p = 3
        angles = random_angles(p, rng=0)
        res = simulate(angles, mixer, obj_vals)
        value = get_exp_value(res)
        assert 0.0 <= value <= obj_vals.max()
        assert np.isclose(res.norm(), 1.0)

    def test_result_probabilities_sum_to_one(self, maxcut_obj, tf_mixer_6):
        res = simulate(random_angles(2, rng=1), tf_mixer_6, maxcut_obj)
        assert np.isclose(res.probabilities().sum(), 1.0)

    def test_expectation_consistent_with_probabilities(self, maxcut_obj, tf_mixer_6):
        res = simulate(random_angles(2, rng=2), tf_mixer_6, maxcut_obj)
        manual = float(np.dot(res.probabilities(), maxcut_obj))
        assert np.isclose(res.expectation(), manual)

    def test_zero_angles_keep_initial_state(self, maxcut_obj, tf_mixer_6):
        res = simulate(np.zeros(4), tf_mixer_6, maxcut_obj)
        assert np.allclose(res.statevector, tf_mixer_6.initial_state())
        assert np.isclose(res.expectation(), maxcut_obj.mean())

    def test_expectation_value_fast_path_matches(self, maxcut_obj, tf_mixer_6):
        angles = random_angles(3, rng=3)
        res = simulate(angles, tf_mixer_6, maxcut_obj)
        fast = expectation_value(angles, tf_mixer_6, maxcut_obj)
        assert np.isclose(fast, res.expectation())

    def test_p_inferred_from_angles(self, maxcut_obj, tf_mixer_6):
        res = simulate(random_angles(4, rng=4), tf_mixer_6, maxcut_obj)
        assert res.p == 4

    def test_accepts_precomputed_cost(self, maxcut_obj, tf_mixer_6):
        cost = PrecomputedCost(values=maxcut_obj, space=FullSpace(6))
        res = simulate(random_angles(2, rng=5), tf_mixer_6, cost)
        assert isinstance(res, QAOAResult)
        assert res.cost.space is not None

    def test_mixer_list_per_round(self, maxcut_obj):
        mixers = [transverse_field_mixer(6), grover_mixer(6)]
        angles = random_angles(2, rng=6)
        res = simulate(angles, mixers, maxcut_obj, p=2)
        assert np.isclose(res.norm(), 1.0)

    def test_objective_dimension_mismatch_rejected(self, tf_mixer_6):
        with pytest.raises(ValueError):
            simulate(random_angles(1, rng=0), tf_mixer_6, np.zeros(10))

    def test_custom_initial_state(self, maxcut_obj, tf_mixer_6):
        psi0 = np.zeros(64, dtype=complex)
        psi0[5] = 1.0
        res = simulate(np.zeros(2), tf_mixer_6, maxcut_obj, initial_state=psi0)
        assert np.allclose(res.statevector, psi0)
        assert np.isclose(res.expectation(), maxcut_obj[5])

    def test_workspace_reuse(self, maxcut_obj, tf_mixer_6):
        ws = BatchedWorkspace(64)
        for seed in range(3):
            simulate(random_angles(2, rng=seed), tf_mixer_6, maxcut_obj, workspace=ws)
        assert ws.calls_served == 3

    def test_workspace_dimension_mismatch(self, maxcut_obj, tf_mixer_6):
        with pytest.raises(ValueError):
            simulate(
                random_angles(2, rng=0), tf_mixer_6, maxcut_obj, workspace=BatchedWorkspace(32)
            )


class TestResultQueries:
    def test_ground_state_probability_bounds(self, maxcut_obj, tf_mixer_6):
        res = simulate(random_angles(3, rng=7), tf_mixer_6, maxcut_obj)
        prob = res.ground_state_probability()
        assert 0.0 <= prob <= 1.0

    def test_uniform_state_gs_probability(self, maxcut_obj, tf_mixer_6):
        res = simulate(np.zeros(2), tf_mixer_6, maxcut_obj)
        expected = np.count_nonzero(maxcut_obj == maxcut_obj.max()) / 64
        assert np.isclose(res.ground_state_probability(), expected)

    def test_amplitude_of_label(self, maxcut_obj, tf_mixer_6):
        res = simulate(random_angles(2, rng=8), tf_mixer_6, maxcut_obj)
        assert np.isclose(res.amplitude_of(17), res.statevector[17])

    def test_amplitudes_returns_copy(self, maxcut_obj, tf_mixer_6):
        res = simulate(random_angles(1, rng=9), tf_mixer_6, maxcut_obj)
        amps = res.amplitudes()
        amps[:] = 0
        assert not np.allclose(res.statevector, 0)

    def test_approximation_ratio(self, maxcut_obj, tf_mixer_6):
        res = simulate(random_angles(2, rng=10), tf_mixer_6, maxcut_obj)
        assert np.isclose(res.approximation_ratio(), res.expectation() / maxcut_obj.max())

    def test_sampling_distribution(self, maxcut_obj, tf_mixer_6):
        res = simulate(random_angles(2, rng=11), tf_mixer_6, maxcut_obj)
        samples = res.sample(4000, rng=0)
        assert samples.shape == (4000,)
        assert samples.min() >= 0 and samples.max() < 64
        # Empirical mean objective should be close to the expectation value.
        empirical = maxcut_obj[samples].mean()
        assert abs(empirical - res.expectation()) < 0.3

    def test_sample_requires_positive_shots(self, maxcut_obj, tf_mixer_6):
        res = simulate(random_angles(1, rng=12), tf_mixer_6, maxcut_obj)
        with pytest.raises(ValueError):
            res.sample(0)


class TestConstrainedSimulation:
    def test_clique_mixer_stays_in_subspace(self, dks_obj, clique_mixer_63):
        res = simulate(random_angles(3, rng=13), clique_mixer_63, dks_obj)
        assert res.statevector.shape == (20,)
        assert np.isclose(res.norm(), 1.0)

    def test_ring_vs_clique_differ(self, dks_obj, clique_mixer_63, ring_mixer_63):
        angles = random_angles(2, rng=14)
        res_c = simulate(angles, clique_mixer_63, dks_obj)
        res_r = simulate(angles, ring_mixer_63, dks_obj)
        assert not np.isclose(res_c.expectation(), res_r.expectation())

    def test_expectation_bounded_by_constrained_optimum(self, dks_obj, clique_mixer_63):
        res = simulate(random_angles(2, rng=15), clique_mixer_63, dks_obj)
        assert res.expectation() <= dks_obj.max() + 1e-9
        assert res.expectation() >= dks_obj.min() - 1e-9


class TestEvolveStateValidation:
    def test_wrong_gamma_count(self, maxcut_obj, tf_mixer_6):
        schedule = MixerSchedule(tf_mixer_6, rounds=2)
        with pytest.raises(ValueError):
            evolve_state(
                [np.array([0.1])] * 2, np.array([0.1]), schedule, maxcut_obj,
                tf_mixer_6.initial_state(),
            )

    def test_wrong_beta_count(self, maxcut_obj, tf_mixer_6):
        schedule = MixerSchedule(tf_mixer_6, rounds=2)
        with pytest.raises(ValueError):
            evolve_state(
                [np.array([0.1])], np.array([0.1, 0.2]), schedule, maxcut_obj,
                tf_mixer_6.initial_state(),
            )

    def test_wrong_cost_shape(self, tf_mixer_6):
        schedule = MixerSchedule(tf_mixer_6, rounds=1)
        with pytest.raises(ValueError):
            evolve_state(
                [np.array([0.1])], np.array([0.1]), schedule, np.zeros(10),
                tf_mixer_6.initial_state(),
            )


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_property_norm_preserved_any_angles(p, seed):
    rng = np.random.default_rng(seed)
    graph = erdos_renyi(5, 0.5, seed=seed)
    obj = maxcut_values(graph, state_matrix(5))
    mixer = transverse_field_mixer(5)
    angles = 4 * np.pi * rng.random(2 * p) - 2 * np.pi
    res = simulate(angles, mixer, obj)
    assert np.isclose(res.norm(), 1.0, atol=1e-9)
    assert obj.min() - 1e-9 <= res.expectation() <= obj.max() + 1e-9
