"""Degradation curves, termination and deflation planning."""

import numpy as np
import pytest

from edgescale.errors import InvalidParameter, ParseError
from edgescale.reclamation import (
    DEFAULT_CURVE,
    VCPU_QUANTUM,
    ContainerState,
    SetFraction,
    Terminate,
    plan_inflation,
    reclaim_by_deflation_grouped,
    reclaim_by_termination,
)
from edgescale.scenario import load_profile_curve
from scenario_builders import config_error, profile

SERVICE = "functions.f.service"

PROF = profile(10.0)


def make_pool(sizes, fractions=None, nodes=None):
    fractions = fractions or [1.0] * len(sizes)
    nodes = nodes or [0] * len(sizes)
    return [
        ContainerState(
            function_id="f", node_id=node, standard_vcpu=s, memory_mb=256.0,
            profile=PROF, id=i + 1, cpu_fraction=f,
        )
        for i, (s, f, node) in enumerate(zip(sizes, fractions, nodes))
    ]


def apply_actions(pool, actions):
    alive = {c.id: c for c in pool}
    for a in actions:
        if isinstance(a, Terminate):
            del alive[a.container_id]
        else:
            alive[a.container_id].cpu_fraction = a.fraction
    return list(alive.values())


class TestServiceRate:
    def test_full_size_identity(self):
        assert PROF.base_rate * PROF.multiplier(1.0) == pytest.approx(10.0)

    def test_thirty_percent_deflation_small_penalty(self):
        assert PROF.base_rate * PROF.multiplier(0.7) == pytest.approx(9.0)

    def test_proportional_regime_endpoint(self):
        assert PROF.base_rate * PROF.multiplier(0.3) == pytest.approx(3.0)

    def test_interpolation_between_anchors(self):
        assert PROF.base_rate * PROF.multiplier(0.85) == pytest.approx(10 * 0.95)
        assert PROF.base_rate * PROF.multiplier(0.5) == pytest.approx(10 * 0.6)

    def test_invalid_fraction(self):
        with pytest.raises(InvalidParameter, match="cpu fraction"):
            PROF.base_rate * PROF.multiplier(0.0)
        with pytest.raises(InvalidParameter, match="cpu fraction"):
            PROF.base_rate * PROF.multiplier(1.2)

    @pytest.mark.parametrize("curve", [DEFAULT_CURVE, ((0.0, 0.0), (0.5, 0.8), (1.0, 1.0))])
    def test_multiplier_is_the_interpolation(self, curve):
        # a first and a repeated call must both be the float np.interp
        # gives, for every fraction on the grid
        prof = profile(10.0, curve=curve)
        fracs, mults = zip(*prof.curve)
        for f in np.linspace(0.001, 1.0, 1000).tolist() + [0.3, 0.7, 1.0]:
            want = float(np.interp(f, fracs, mults))
            assert [prof.multiplier(f), prof.multiplier(f)] == [want, want], f
            assert type(prof.multiplier(f)) is float

    @pytest.mark.parametrize("fraction", [0.0, -0.0, -0.5, 1.2, float("nan"), float("inf")])
    def test_invalid_fraction_raises_on_every_call(self, fraction):
        for _ in range(3):
            with pytest.raises(InvalidParameter, match="cpu fraction"):
                PROF.multiplier(fraction)

    def test_monotone_and_continuous(self):
        fracs = np.linspace(0.01, 1.0, 200)
        mults = [PROF.multiplier(float(f)) for f in fracs]
        assert all(b >= a - 1e-12 for a, b in zip(mults, mults[1:]))
        jumps = np.abs(np.diff(mults))
        assert np.max(jumps) < 0.02

    def test_curve_must_hit_one_at_full(self, tmp_path):
        # a curve comes from a profile file, where `scenario` checks it: two
        # rows within 1e-9 of fraction 1.0 would give multiplier 1.1 there
        (tmp_path / "p.csv").write_text("1.0,0.1\n0.9999999999,0.11\n0.5,0.2\n")
        assert config_error(f"{SERVICE}.profile_file=p.csv", base_dir=tmp_path) == (
            f"{SERVICE}.profile_file: {tmp_path / 'p.csv'}: multiplier 1.1 at full size, not "
            "1.0: the rows within 1e-9 of cpu_fraction 1.0 differ in service time")


class TestContainerFraction:
    @pytest.mark.parametrize("bad", [0.0, 1.5, float("nan")], ids=["zero", "over_one", "nan"])
    def test_invalid_fraction_raises_and_changes_nothing(self, bad):
        (c,) = make_pool([2.0], fractions=[0.7])
        before = (c.cpu_fraction, c.allocated_vcpu, c.multiplier, c.wrr_units)
        with pytest.raises(InvalidParameter, match="cpu fraction"):
            c.cpu_fraction = bad
        assert (c.cpu_fraction, c.allocated_vcpu, c.multiplier, c.wrr_units) == before

    def test_valid_fraction_sets_size_and_speed(self):
        (c,) = make_pool([2.0])
        assert c.wrr_units == 40
        c.cpu_fraction = 0.5
        assert (c.cpu_fraction, c.allocated_vcpu, c.multiplier) == (0.5, 1.0,
                                                                    PROF.multiplier(0.5))
        assert c.effective_rate == PROF.base_rate * PROF.multiplier(0.5)
        assert c.wrr_units == round(1.0 / VCPU_QUANTUM) == 20

    @pytest.mark.parametrize("vcpu, fraction, units", [
        (0.01, 1.0, 1), (0.04, 0.5, 1), (0.1, 0.7, 1), (0.1, 0.8, 2), (1.3, 0.7, 18)])
    def test_wrr_units_are_whole_quanta_and_at_least_one(self, vcpu, fraction, units):
        (c,) = make_pool([vcpu], fractions=[fraction])
        assert c.wrr_units == max(1, round(c.allocated_vcpu / VCPU_QUANTUM)) == units

    def test_a_new_container_serves_nothing_and_has_no_wrr_credit(self):
        (c,) = make_pool([2.0], fractions=[0.7])
        assert (c.wrr_counter, c.serving, c.busy_since, c.alloc_since) == (0, None, 0.0, 0.0)

    def test_created_unmarked_with_no_mark_argument(self):
        (c,) = make_pool([1.0])
        assert c.lazy_marked is False
        with pytest.raises(TypeError):
            ContainerState(function_id="f", node_id=0, standard_vcpu=1.0, memory_mb=256.0,
                           profile=PROF, id=9, cpu_fraction=1.0, lazy_marked=True)

    def test_invalid_initial_fraction_raises(self):
        with pytest.raises(InvalidParameter, match="cpu fraction"):
            make_pool([2.0], fractions=[0.0])


class TestProfileLoader:
    def test_normalises_to_full_size_row(self, tmp_path):
        p = tmp_path / "prof.csv"
        p.write_text("cpu_fraction,mean_service_s\n1.0,0.10\n0.7,0.111\n0.5,0.2\n")
        curve = load_profile_curve(p)
        as_dict = dict(curve)
        assert as_dict[1.0] == pytest.approx(1.0)
        assert as_dict[0.7] == pytest.approx(0.10 / 0.111)
        assert as_dict[0.5] == pytest.approx(0.5)

    def test_missing_full_size_row(self, tmp_path):
        p = tmp_path / "prof.csv"
        p.write_text("0.7,0.111\n")
        with pytest.raises(ParseError, match="1.0"):
            load_profile_curve(p)

    def test_shipped_example(self):
        from pathlib import Path

        curve = load_profile_curve(
            Path(__file__).parent.parent / "profiles" / "sample_profile.csv"
        )
        prof = profile(10.0, curve=curve)
        assert prof.multiplier(1.0) == pytest.approx(1.0)
        assert prof.multiplier(0.7) > 0.8


class TestProfileParameters:
    # checked where `scenario` reads them: ServiceProfile trusts its arguments
    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_rate_must_be_positive(self, rate):
        assert config_error(f"{SERVICE}.rate={rate}") == (
            f"{SERVICE}.rate: must be in (0, inf), got {rate}")

    def test_unknown_distribution(self):
        assert config_error(f"{SERVICE}.distribution=gamma") == (
            f"{SERVICE}.distribution: must be one of exponential|deterministic|empirical, "
            "got 'gamma'")

    def test_empirical_needs_samples(self):
        assert config_error(f"{SERVICE}.distribution=empirical") == (
            f"{SERVICE}.samples: must not be empty for an empirical distribution")
        assert config_error(f"{SERVICE}.distribution=empirical",
                            f"{SERVICE}.samples=[0.1, 0]") == (
            f"{SERVICE}.samples[1]: must be in (0, inf), got 0.0")

    # `service_quantile` is asked only at the SLO's percentile, which
    # `scenario` bounds to (0, 1)
    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.1])
    def test_service_quantile_inside_0_1(self, q):
        assert config_error(f"functions.f.slo.percentile={q}") == (
            f"functions.f.slo.percentile: must be in (0, 1), got {q}")


class TestTermination:
    def test_even_split(self):
        pool = make_pool([1.0, 1.0, 1.0, 1.0])
        actions = reclaim_by_termination(pool, 2.0)
        assert len(actions) == 2
        assert all(isinstance(a, Terminate) for a in actions)
        left = apply_actions(pool, actions)
        assert sum(c.allocated_vcpu for c in left) == pytest.approx(2.0)

    def test_fragmentation_when_no_exact_fit(self):
        # one 2-vCPU container, target 1: terminating leaves 0 <= 1, with the
        # remaining 1 vCPU stranded as a fragment
        pool = make_pool([2.0])
        actions = reclaim_by_termination(pool, 1.0)
        assert actions == [Terminate(pool[0].id)]

    def test_target_equal_current_is_noop(self):
        pool = make_pool([1.0, 1.0])
        assert reclaim_by_termination(pool, 2.0) == []

    def test_smallest_first(self):
        pool = make_pool([2.0, 0.5, 1.0])
        actions = reclaim_by_termination(pool, 2.0)
        victims = [a.container_id for a in actions]
        by_size = sorted(pool, key=lambda c: c.allocated_vcpu)
        assert victims == [by_size[0].id, by_size[1].id]


class TestDeflation:
    def test_uniform_steps_reach_exact_target(self):
        pool = make_pool([1.0] * 4)
        actions = reclaim_by_deflation_grouped(pool, 3.0, tau=0.3, step=0.05)
        assert all(isinstance(a, SetFraction) for a in actions)
        left = apply_actions(pool, actions)
        assert len(left) == 4
        assert sum(c.allocated_vcpu for c in left) == pytest.approx(3.0)
        assert all(c.cpu_fraction == pytest.approx(0.75) for c in left)

    # checked where `scenario` reads them, never against the planner itself:
    # with a zero step, its deflation loop would never end
    @pytest.mark.parametrize("key, value, interval", [
        ("tau", 0.0, "(0, 1)"), ("tau", 1.0, "(0, 1)"), ("tau", -0.2, "(0, 1)"),
        ("deflation_step", 0.0, "(0, 1]"), ("deflation_step", -0.05, "(0, 1]"),
    ])
    def test_bad_tau_or_step(self, key, value, interval):
        assert config_error(f"controller.{key}={value}") == (
            f"controller.{key}: must be in {interval}, got {value}")

    def test_terminates_when_tau_insufficient(self):
        pool = make_pool([1.0] * 4)
        actions = reclaim_by_deflation_grouped(pool, 2.4, tau=0.3, step=0.05)
        terms = [a for a in actions if isinstance(a, Terminate)]
        assert len(terms) == 1
        left = apply_actions(pool, actions)
        assert len(left) == 3
        assert all(c.cpu_fraction == pytest.approx(0.8) for c in left)
        assert sum(c.allocated_vcpu for c in left) == pytest.approx(2.4)

    def test_noop_when_target_above_current(self):
        pool = make_pool([1.0, 1.0])
        assert reclaim_by_deflation_grouped(pool, 2.5, tau=0.3, step=0.05) == []

    def test_threshold_respected(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            sizes = rng.choice([0.5, 1.0, 2.0], size=n).tolist()
            pool = make_pool(sizes)
            target = float(rng.uniform(0, sum(sizes)))
            tau = 0.3
            left = apply_actions(pool, reclaim_by_deflation_grouped(pool, target, tau, 0.05))
            assert all(c.cpu_fraction >= 1 - tau - 1e-9 for c in left)
            assert sum(c.allocated_vcpu for c in left) <= target + 1e-9

    def test_deflation_dominance(self):
        # deflation always keeps at least as many containers as termination,
        # and both reclaim at least current - target
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            sizes = rng.choice([0.4, 0.5, 1.0, 2.0], size=n).tolist()
            total = sum(sizes)
            target = float(rng.uniform(0, total))
            pool_t = make_pool(sizes)
            pool_d = make_pool(sizes)
            left_t = apply_actions(pool_t, reclaim_by_termination(pool_t, target))
            left_d = apply_actions(
                pool_d, reclaim_by_deflation_grouped(pool_d, target, 0.3, 0.05)
            )
            assert len(left_d) >= len(left_t)
            assert sum(c.allocated_vcpu for c in left_t) <= target + 1e-9
            assert sum(c.allocated_vcpu for c in left_d) <= target + 1e-9
            # capacity exactness: deflation lands within one aggregate step of
            # the target whenever the target is reachable within tau
            if target <= total and target >= (1 - 0.3) * total:
                slack = target - sum(c.allocated_vcpu for c in left_d)
                assert slack <= 0.05 * total + 1e-9

    def test_pool_across_nodes_keeps_floor_and_target(self):
        # with several node-groups the planner may terminate rather than strand
        # slivers, so only the floor and the target are guaranteed here
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            sizes = rng.choice([0.5, 1.0, 2.0], size=n).tolist()
            pool = make_pool(sizes, nodes=[i % 3 for i in range(n)])
            target = float(rng.uniform(0, sum(sizes)))
            tau = 0.3
            left = apply_actions(pool, reclaim_by_deflation_grouped(pool, target, tau, 0.05))
            assert all(c.cpu_fraction >= 1 - tau - 1e-9 for c in left)
            assert sum(c.allocated_vcpu for c in left) <= target + 1e-9


class TestInflation:
    def test_restores_toward_full(self):
        pool = make_pool([1.0] * 3, fractions=[0.7, 0.8, 1.0])
        actions = plan_inflation(pool, target_vcpu=3.0, step=0.05)
        after = apply_actions(pool, actions)
        assert sum(c.allocated_vcpu for c in after) == pytest.approx(3.0)
        assert all(c.cpu_fraction == pytest.approx(1.0) for c in after)

    def test_never_exceeds_target(self):
        pool = make_pool([1.0] * 4, fractions=[0.7] * 4)
        actions = plan_inflation(pool, target_vcpu=3.0, step=0.05)
        after = apply_actions(pool, actions)
        assert sum(c.allocated_vcpu for c in after) <= 3.0 + 1e-9
        assert sum(c.allocated_vcpu for c in after) >= 3.0 - 4 * 0.05

    def test_noop_on_full_pool(self):
        pool = make_pool([1.0, 1.0])
        assert plan_inflation(pool, 4.0, 0.05) == []
