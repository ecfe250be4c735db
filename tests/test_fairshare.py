"""Fair-share math: flattened scenario weights, guaranteed minimums, overload
detection, water-filling."""

import numpy as np
import pytest

from edgescale.errors import ConfigError, InvalidParameter
from edgescale.fairshare import adjust_allocations, guaranteed_shares
from edgescale.reclamation import VCPU_QUANTUM
from scenario_builders import basic_function, make_scenario


def adjust(demands, weights, capacity):
    """`adjust_allocations` given the guaranteed shares, as `plan_epoch` gives them."""
    return adjust_allocations(demands, weights, guaranteed_shares(weights, capacity), capacity)


def flattened(users, functions):
    """Effective weights from a scenario with (id, weight) users and
    (function id, user id, weight) functions."""
    scn = make_scenario(
        [basic_function(fid, user=user, weight=w) for fid, user, w in functions],
        users=[{"id": uid, "weight": w} for uid, w in users],
    )
    return {fid: spec.weight for fid, spec in scn.functions.items()}


class TestFlattenWeights:
    def test_single_user_even_split(self):
        w = flattened([("u1", 1.0)], [("a", "u1", 1.0), ("b", "u1", 1.0)])
        assert w == {"a": 0.5, "b": 0.5}

    def test_two_users_33_66(self):
        # user2 at twice user1's weight: per-function shares land at 1/9 vs 2/9,
        # i.e. the users split capacity 33%/66%
        w = flattened(
            [("u1", 1.0), ("u2", 2.0)],
            [(f, "u1", 1.0) for f in "abc"] + [(f, "u2", 1.0) for f in "def"],
        )
        total = sum(w.values())
        assert sum(w[f] for f in "abc") / total == pytest.approx(1 / 3)
        assert sum(w[f] for f in "def") / total == pytest.approx(2 / 3)

    def test_single_function_gets_user_weight(self):
        assert flattened([("u1", 3.0)], [("only", "u1", 42.0)]) == {"only": 3.0}

    def test_duplicate_function_rejected(self):
        with pytest.raises(ConfigError, match="functions.a: duplicate function id"):
            flattened([("u1", 1.0), ("u2", 1.0)], [("a", "u1", 1.0), ("a", "u2", 1.0)])


class TestGuaranteedShares:
    def test_symmetric(self):
        assert guaranteed_shares({"a": 1, "b": 1}, 10) == {"a": 5.0, "b": 5.0}

    def test_proportional(self):
        assert guaranteed_shares({"a": 1, "b": 2}, 9) == {"a": 3.0, "b": 6.0}

    def test_floor_leaves_remainder_unguaranteed(self):
        # 0.1667 vCPU each floors to three quanta, 0.15 vCPU
        shares = guaranteed_shares({"a": 1, "b": 1, "c": 1}, 0.5)
        assert shares == {"a": 3 * VCPU_QUANTUM, "b": 3 * VCPU_QUANTUM, "c": 3 * VCPU_QUANTUM}
        assert sum(shares.values()) < 0.5 - VCPU_QUANTUM / 2


class TestNegativeInputs:
    def test_negative_capacity(self):
        with pytest.raises(InvalidParameter, match="capacity must be >= 0, got -1"):
            guaranteed_shares({"a": 1.0}, -1.0)

    def test_negative_demand(self):
        weights = {"a": 1.0, "b": 1.0}
        with pytest.raises(InvalidParameter, match="demands must be >= 0"):
            adjust_allocations({"a": 1.0, "b": -0.5}, weights,
                               guaranteed_shares(weights, 2.0), 2.0)


class TestDetectOverload:
    """Overload means aggregate demand strictly above capacity."""

    def test_under(self):
        assert not adjust({"a": 3, "b": 3}, {"a": 1, "b": 1}, 10).overloaded

    def test_over(self):
        assert adjust({"a": 6, "b": 6}, {"a": 1, "b": 1}, 10).overloaded

    def test_equality_is_not_overload(self):
        assert not adjust({"a": 5, "b": 5}, {"a": 1, "b": 1}, 10).overloaded


class TestAdjustAllocations:
    def test_all_overloaded_get_fair_share(self):
        res = adjust({"a": 20, "b": 20}, {"a": 1, "b": 1}, 10)
        assert res.overloaded
        assert res.adjusted == {"a": 5.0, "b": 5.0}

    def test_well_behaved_keeps_demand(self):
        res = adjust({"a": 3, "b": 20}, {"a": 1, "b": 1}, 10)
        assert res.adjusted == {"a": 3.0, "b": 7.0}
        assert res.adjusted["b"] >= guaranteed_shares({"a": 1, "b": 1}, 10)["b"]

    def test_weighted_hand_trace(self):
        res = adjust({"a": 6, "b": 20}, {"a": 1, "b": 3}, 12)
        assert guaranteed_shares({"a": 1, "b": 3}, 12) == {"a": 3.0, "b": 9.0}
        assert res.adjusted == {"a": 3.0, "b": 9.0}

    def test_no_overload_passthrough(self):
        res = adjust({"a": 4, "b": 5}, {"a": 1, "b": 1}, 10)
        assert not res.overloaded
        assert res.adjusted == {"a": 4, "b": 5}

    def test_water_filling_caps_at_demand(self):
        # b's proportional share (8) exceeds its demand; surplus flows to a
        res = adjust({"a": 30, "b": 6}, {"a": 1, "b": 1}, 16)
        assert res.adjusted["b"] == 6.0
        assert res.adjusted["a"] == 10.0

    def test_weight_scale_invariance(self):
        r1 = adjust({"a": 9, "b": 14}, {"a": 1, "b": 2}, 12)
        r2 = adjust({"a": 9, "b": 14}, {"a": 10, "b": 20}, 12)
        assert r1.adjusted == r2.adjusted
        assert guaranteed_shares({"a": 1, "b": 2}, 12) == guaranteed_shares(
            {"a": 10, "b": 20}, 12)


def whole_quanta(x) -> bool:
    return abs(x / VCPU_QUANTUM - round(x / VCPU_QUANTUM)) < 1e-6


def _random_instance(rng):
    n = int(rng.integers(1, 9))
    fids = [f"f{i}" for i in range(n)]
    weights = {f: float(rng.integers(1, 20)) for f in fids}
    capacity = float(rng.integers(0, 400))
    demands = {f: float(rng.integers(0, 120)) for f in fids}
    return fids, weights, demands, capacity


class TestLemmaProperties:
    """Randomised checks of the two fair-share guarantees (floor-adjusted form)."""

    N = 2000  # the acceptance suite runs the 10k-instance version

    def test_lemma_properties_hold(self):
        rng = np.random.default_rng(1234)
        for _ in range(self.N):
            fids, weights, demands, capacity = _random_instance(rng)
            res = adjust(demands, weights, capacity)
            assert sum(res.adjusted.values()) <= capacity + 1e-6 or not res.overloaded
            if not res.overloaded:
                assert res.adjusted == demands
                continue
            guar = guaranteed_shares(weights, capacity)
            assert all(whole_quanta(g) for g in guar.values())
            assert all(whole_quanta(a) for a in res.adjusted.values())
            for f in fids:
                if demands[f] <= guar[f]:
                    assert res.adjusted[f] == demands[f]  # lemma 2, well-behaved
                else:
                    assert res.adjusted[f] >= guar[f] - 1e-9  # lemmas 1/2
                    assert res.adjusted[f] <= demands[f] + 1e-9

    def test_all_overloaded_case(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            fids, weights, _, capacity = _random_instance(rng)
            demands = {f: capacity + float(rng.integers(1, 50)) for f in fids}
            res = adjust(demands, weights, capacity)
            if not res.overloaded:
                assert capacity >= sum(demands.values())
                continue
            guar = guaranteed_shares(weights, capacity)
            assert all(whole_quanta(g) for g in guar.values())
            assert all(whole_quanta(a) for a in res.adjusted.values())
            for f in fids:
                assert res.adjusted[f] >= guar[f] - 1e-9
            assert sum(res.adjusted.values()) <= capacity + 1e-6
