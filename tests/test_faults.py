"""Tests for fault schedules, the faulty runner and the straggler model."""

import numpy as np
import pytest

from repro.cluster import CostModel
from repro.core import FrogWildConfig, run_frogwild
from repro.engine import MirrorSynchronizer, build_cluster
from repro.errors import ConfigError
from repro.faults import (
    FaultSchedule,
    MachineCrash,
    MessageDrop,
    StragglerCostModel,
    run_frogwild_with_faults,
)
from repro.metrics import normalized_mass_captured
from repro.pagerank import exact_pagerank

_CONFIG = FrogWildConfig(num_frogs=10_000, iterations=4, seed=0)


class TestScheduleValidation:
    def test_empty_schedule(self):
        schedule = FaultSchedule()
        assert schedule.is_empty
        assert schedule.crashes_at(0) == []

    def test_rejects_negative_step(self):
        with pytest.raises(ConfigError):
            MachineCrash(step=-1, machine=0)

    def test_rejects_negative_machine(self):
        with pytest.raises(ConfigError):
            MachineCrash(step=0, machine=-2)

    def test_rejects_duplicate_crash(self):
        with pytest.raises(ConfigError):
            FaultSchedule(
                crashes=(
                    MachineCrash(step=1, machine=0),
                    MachineCrash(step=1, machine=0),
                )
            )

    def test_rejects_bad_drop_probability(self):
        with pytest.raises(ConfigError):
            MessageDrop(probability=1.5)

    def test_crashes_at_filters_by_step(self):
        schedule = FaultSchedule(
            crashes=(
                MachineCrash(step=1, machine=0),
                MachineCrash(step=2, machine=1),
            )
        )
        assert len(schedule.crashes_at(1)) == 1
        assert schedule.crashes_at(1)[0].machine == 0

    def test_zero_drop_is_empty(self):
        assert FaultSchedule(message_drop=MessageDrop(0.0)).is_empty


class TestFaultyRunner:
    def test_empty_schedule_matches_stock_runner(self, small_twitter):
        """Fault plumbing with no faults must be bit-identical."""
        stock = run_frogwild(small_twitter, _CONFIG, num_machines=4)
        faulty, log = run_frogwild_with_faults(
            small_twitter, FaultSchedule(), _CONFIG, num_machines=4
        )
        assert np.array_equal(
            stock.estimate.counts, faulty.estimate.counts
        )
        assert log.net_frogs_lost == 0

    def test_crash_without_rebirth_loses_frogs(self, small_twitter):
        schedule = FaultSchedule(
            crashes=(MachineCrash(step=1, machine=0, rebirth=False),)
        )
        result, log = run_frogwild_with_faults(
            small_twitter, schedule, _CONFIG, num_machines=4
        )
        assert log.frogs_lost_to_crashes > 0
        assert log.frogs_reborn == 0
        assert (
            result.estimate.total_stopped
            == _CONFIG.num_frogs - log.frogs_lost_to_crashes
        )

    def test_crash_with_rebirth_conserves_frogs(self, small_twitter):
        schedule = FaultSchedule(
            crashes=(MachineCrash(step=1, machine=0, rebirth=True),)
        )
        result, log = run_frogwild_with_faults(
            small_twitter, schedule, _CONFIG, num_machines=4
        )
        assert log.frogs_reborn == log.frogs_lost_to_crashes > 0
        assert result.estimate.total_stopped == _CONFIG.num_frogs

    def test_crash_leaves_ingress_cache_clean(self, small_twitter):
        """A crash disables the machine for its own run only: the
        per-ingress mirror bitmap is never written, so a later stock
        run on the same ingress equals one on a fresh ingress."""
        state = build_cluster(small_twitter, 4, seed=0)
        baseline = MirrorSynchronizer.shared_mirror_matrix(state).copy()
        schedule = FaultSchedule(crashes=(MachineCrash(step=0, machine=1),))
        run_frogwild_with_faults(small_twitter, schedule, _CONFIG, state=state)
        np.testing.assert_array_equal(
            MirrorSynchronizer.shared_mirror_matrix(state), baseline
        )
        sibling = build_cluster(
            small_twitter, 4, seed=0, replication=state.replication
        )
        reused = run_frogwild(small_twitter, _CONFIG, state=sibling)
        fresh = run_frogwild(small_twitter, _CONFIG, num_machines=4)
        np.testing.assert_array_equal(
            reused.estimate.counts, fresh.estimate.counts
        )

    def test_crash_rejects_unknown_machine(self, small_twitter):
        schedule = FaultSchedule(crashes=(MachineCrash(step=0, machine=99),))
        with pytest.raises(ConfigError):
            run_frogwild_with_faults(
                small_twitter, schedule, _CONFIG, num_machines=4
            )

    def test_message_drop_loses_frogs(self, small_twitter):
        schedule = FaultSchedule(message_drop=MessageDrop(0.2))
        result, log = run_frogwild_with_faults(
            small_twitter, schedule, _CONFIG, num_machines=4
        )
        assert log.frogs_dropped_in_flight > 0
        assert (
            result.estimate.total_stopped
            == _CONFIG.num_frogs - log.frogs_dropped_in_flight
        )

    def test_graceful_degradation_under_crash(self, small_twitter):
        """One crashed machine out of 8 must not destroy top-k accuracy."""
        truth = exact_pagerank(small_twitter)
        schedule = FaultSchedule(
            crashes=(MachineCrash(step=1, machine=3, rebirth=True),)
        )
        result, _ = run_frogwild_with_faults(
            small_twitter, schedule, _CONFIG, num_machines=8
        )
        mass = normalized_mass_captured(result.estimate.vector(), truth, 20)
        assert mass > 0.8

    def test_graceful_degradation_under_drops(self, small_twitter):
        """10% in-flight loss costs far less than 10% of accuracy."""
        truth = exact_pagerank(small_twitter)
        schedule = FaultSchedule(message_drop=MessageDrop(0.1))
        result, _ = run_frogwild_with_faults(
            small_twitter, schedule, _CONFIG, num_machines=8
        )
        mass = normalized_mass_captured(result.estimate.vector(), truth, 20)
        assert mass > 0.8

    def test_multiple_crashes(self, small_twitter):
        schedule = FaultSchedule(
            crashes=(
                MachineCrash(step=1, machine=0),
                MachineCrash(step=2, machine=1),
            )
        )
        _, log = run_frogwild_with_faults(
            small_twitter, schedule, _CONFIG, num_machines=4
        )
        assert log.crashed_machines == [0, 1]

    def test_deterministic(self, small_twitter):
        schedule = FaultSchedule(
            crashes=(MachineCrash(step=1, machine=2),),
            message_drop=MessageDrop(0.05),
        )
        a, log_a = run_frogwild_with_faults(
            small_twitter, schedule, _CONFIG, num_machines=4
        )
        b, log_b = run_frogwild_with_faults(
            small_twitter, schedule, _CONFIG, num_machines=4
        )
        assert np.array_equal(a.estimate.counts, b.estimate.counts)
        assert log_a.frogs_dropped_in_flight == log_b.frogs_dropped_in_flight


class TestStragglerCostModel:
    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            StragglerCostModel(slowdowns=())

    def test_rejects_speedups(self):
        with pytest.raises(ConfigError):
            StragglerCostModel(slowdowns=(0.5, 1.0))

    def test_rejects_mismatched_cluster(self):
        model = StragglerCostModel(slowdowns=(1.0, 1.0))
        with pytest.raises(ConfigError):
            model.superstep_time(
                np.zeros(3), np.zeros(3), np.zeros(3)
            )

    def test_uniform_ones_matches_base_model(self):
        base = CostModel()
        straggler = StragglerCostModel(slowdowns=(1.0,) * 4)
        sent = np.array([100.0, 5000.0, 200.0, 10.0])
        ops = np.array([10.0, 20.0, 500.0, 1.0])
        a = base.superstep_time(sent, sent, ops, num_messages=3)
        b = straggler.superstep_time(sent, sent, ops, num_messages=3)
        assert a.total_s == pytest.approx(b.total_s)

    def test_straggler_dominates_superstep(self):
        """A slow machine with little work can still set the pace."""
        model = StragglerCostModel(slowdowns=(1.0, 10.0))
        sent = np.array([1000.0, 500.0])
        ops = np.array([1000.0, 500.0])
        cost = model.superstep_time(sent, sent, ops)
        # Machine 1's scaled 5000 bytes beats machine 0's 1000.
        expected_comm = 5000.0 / model.bandwidth_bytes_per_s
        assert cost.comm_s == pytest.approx(expected_comm)

    def test_slows_down_frogwild_run(self, small_twitter):
        healthy = run_frogwild(
            small_twitter, _CONFIG, num_machines=4,
            cost_model=StragglerCostModel(slowdowns=(1.0,) * 4),
        )
        degraded = run_frogwild(
            small_twitter, _CONFIG, num_machines=4,
            cost_model=StragglerCostModel(slowdowns=(1.0, 1.0, 1.0, 8.0)),
        )
        assert degraded.report.total_time_s > healthy.report.total_time_s
        # Accuracy is untouched: stragglers cost time, not correctness.
        assert np.array_equal(
            healthy.estimate.counts, degraded.estimate.counts
        )
