"""Closed-form queueing math against hand values, brute-force series, and the oracle."""

import math

import numpy as np
import pytest

from edgescale.errors import (
    CapExceeded,
    EdgeScaleError,
    InfeasibleDeadline,
    InvalidParameter,
    UnstableSystem,
)
from edgescale.oracle import mc_wait
from edgescale.queuing import (
    DEFAULT_CONTAINER_CAP,
    HeterogeneousModel,
    HomogeneousModel,
    WaitTarget,
    find_c_heterogeneous,
    find_c_homogeneous,
    min_stable_count,
    steady_prob,
    wait_budget,
    wait_cdf_heterogeneous,
    wait_cdf_homogeneous,
    wait_tail,
    _equal_drains,
    _wait_tail,
)
from edgescale.reclamation import ServiceProfile


def naive_p_zero(lam, mu, c):
    """Raw-factorial evaluation of the empty-system probability (small c only)."""
    r = lam / mu
    rho = lam / (c * mu)
    head = sum(r**n / math.factorial(n) for n in range(c))
    return 1.0 / (head + (r**c / math.factorial(c)) / (1 - rho))


class TestPZero:
    def test_mm1_is_one_minus_rho(self):
        assert steady_prob(HomogeneousModel(5, 10, 1), 0) == pytest.approx(0.5)

    def test_mm2_r_one(self):
        # hand evaluation: r=1, rho=0.5, bracket = 1/(2*0.5) + (1 + 1) = 3
        assert steady_prob(HomogeneousModel(10, 10, 2), 0) == pytest.approx(1 / 3)

    def test_matches_naive_series(self):
        # independent raw-factorial oracle, viable for small c
        assert steady_prob(HomogeneousModel(40, 10, 8), 0) == pytest.approx(
            naive_p_zero(40, 10, 8), abs=1e-12
        )
        assert steady_prob(HomogeneousModel(40, 10, 8), 0) == pytest.approx(
            0.018162947586922683, abs=1e-12
        )

    def test_full_distribution_normalises(self):
        m = HomogeneousModel(40, 10, 8)
        total = sum(steady_prob(m, n) for n in range(400))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystem):
            steady_prob(HomogeneousModel(20, 10, 2), 0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            HomogeneousModel(5, 0, 1)
        with pytest.raises(InvalidParameter):
            HomogeneousModel(5, 10, 0)
        with pytest.raises(InvalidParameter):
            HomogeneousModel(-1, 10, 1)


class TestSteadyProbs:
    def test_mm1_geometric(self):
        m = HomogeneousModel(5, 10, 1)
        for k in range(12):
            assert steady_prob(m, k) == pytest.approx(0.5 * 0.5**k)

    def test_mm2_cases(self):
        m = HomogeneousModel(10, 10, 2)
        assert steady_prob(m, 0) == pytest.approx(1 / 3)
        # r=1, n=3 > c: P3 = r^3/(c^(n-c) c!) P0 = (1/3)/4 = 1/12, confirmed by
        # normalisation of the full series
        assert steady_prob(m, 3) == pytest.approx(1 / 12)
        assert sum(steady_prob(m, n) for n in range(200)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_partial_sum_convergence(self):
        # partial sums reach 1 within 1e-6 at N = 10*c*ceil(1/(1-rho))
        for lam, mu, c in [(5, 10, 1), (18, 10, 2), (45, 10, 5), (70, 10, 8)]:
            m = HomogeneousModel(lam, mu, c)
            rho = lam / (c * mu)
            n_max = 10 * c * math.ceil(1 / (1 - rho))
            total = sum(steady_prob(m, n) for n in range(n_max + 1))
            assert total == pytest.approx(1.0, abs=1e-6)


class TestWaitTail:
    def test_empty_system_never_waits(self):
        p = wait_tail(HomogeneousModel(1e-12, 10, 1), WaitTarget(0.1))
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_c(self):
        t = WaitTarget(0.1)
        p1 = wait_tail(HomogeneousModel(5, 10, 3), t)
        p2 = wait_tail(HomogeneousModel(5, 10, 4), t)
        assert p2 >= p1

    def test_monotone_in_t(self):
        m = HomogeneousModel(25, 10, 4)
        probs = [wait_tail(m, WaitTarget(t)) for t in (0.02, 0.1, 0.3, 1.0)]
        assert probs == sorted(probs)

    def test_against_oracle_instance(self):
        # Monte-Carlo value frozen from a 1e6-request run (seed 42):
        # p = 0.94737 +- 0.0006. The occupancy-cutoff rule is a mean-field
        # approximation and lands about 0.023 above it; the exact CDF agrees
        # with the oracle to within 3 standard errors.
        m = HomogeneousModel(15, 10, 3)
        approx_p = wait_tail(m, WaitTarget(0.1))
        exact_p = wait_cdf_homogeneous(m, 0.1)
        assert approx_p == pytest.approx(0.97039, abs=1e-4)
        assert exact_p == pytest.approx(0.94715, abs=1e-4)
        mc = mc_wait(15, [10] * 3, 0.1, num_requests=150_000, seed=42)
        assert abs(exact_p - mc.p_wait_le_t) <= 3 * mc.stderr
        assert abs(approx_p - mc.p_wait_le_t) <= 0.03

    def test_no_overflow_at_cap(self):
        m = HomogeneousModel(9999 * 10, 10, 10_000)
        p = wait_tail(m, WaitTarget(0.1, 0.99))
        assert 0.0 <= p <= 1.0 and math.isfinite(p)


class TestExactWaitCdf:
    def test_mm1_closed_form(self):
        # M/M/1: P(W > t) = rho * exp(-mu (1-rho) t)
        lam, mu, t = 5.0, 10.0, 0.5
        expected = 1 - (lam / mu) * math.exp(-(mu - lam) * t)
        assert wait_cdf_homogeneous(HomogeneousModel(lam, mu, 1), t) == pytest.approx(expected)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(11)
        for i in range(12):
            c = int(rng.integers(1, 11))
            mu = float(rng.uniform(1, 20))
            lam = float(rng.uniform(0.1, 0.92)) * c * mu
            t = float(rng.uniform(0.2, 3.0)) / (c * mu - lam)
            m = HomogeneousModel(lam, mu, c)
            mc = mc_wait(lam, [mu] * c, t, num_requests=120_000, seed=500 + i)
            assert abs(wait_cdf_homogeneous(m, t) - mc.p_wait_le_t) <= 3 * mc.stderr


class TestFindC:
    def test_near_idle(self):
        assert find_c_homogeneous(0.01, 10, WaitTarget(0.1), c_start=0) == 1

    def test_zero_rate(self):
        assert find_c_homogeneous(0.0, 10, WaitTarget(0.1)) == 1

    def test_monotone_in_lambda(self):
        t = WaitTarget(0.1)
        cs = [find_c_homogeneous(lam, 10, t) for lam in (5, 10, 20, 40, 80)]
        assert cs == sorted(cs)

    def test_monotone_in_mu_and_t(self):
        assert find_c_homogeneous(30, 20, WaitTarget(0.1)) <= find_c_homogeneous(
            30, 10, WaitTarget(0.1)
        )
        assert find_c_homogeneous(30, 10, WaitTarget(0.5)) <= find_c_homogeneous(
            30, 10, WaitTarget(0.05)
        )

    def test_warm_start_floor(self):
        # the seed is a warm start: the scan begins there, never below stability
        assert find_c_homogeneous(50, 10, WaitTarget(0.1, 0.99), c_start=0) == 8
        assert find_c_homogeneous(50, 10, WaitTarget(0.1, 0.99), c_start=12) == 12

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            find_c_homogeneous(500, 10, WaitTarget(0.1, 0.99), cap=30)

    def test_non_finite_rates_rejected(self):
        t = WaitTarget(0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParameter):
                find_c_homogeneous(5, bad, t)
            with pytest.raises(InvalidParameter):
                find_c_heterogeneous(5, [10.0], bad, t)
            with pytest.raises(InvalidParameter):
                find_c_heterogeneous(5, [bad], 10, t)
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParameter, match="arrival rate"):
                find_c_homogeneous(bad, 10, t)
            with pytest.raises(InvalidParameter, match="arrival rate"):
                find_c_heterogeneous(bad, [10.0], 10, t)

    def test_sizing_at_float_boundaries(self):
        # t*c*mu + c - 1 lands on an integer here; the cutoff must use the
        # exact product c*mu, not a running sum of c copies of mu
        assert find_c_homogeneous(11, 0.7, WaitTarget(0.5, 0.95)) == 20
        assert find_c_homogeneous(55, 0.3, WaitTarget(0.1, 0.9)) == 200
        assert find_c_homogeneous(191, 0.7, WaitTarget(0.1, 0.99)) == 300

    def test_min_stable_count(self):
        assert min_stable_count(0, 10) == 1
        assert min_stable_count(30, 10) == 4  # strict inequality: 3*10 == 30 unstable
        assert min_stable_count(29.9, 10) == 3


def homogeneous_reference(lam, mu, target, c_start=0, cap=DEFAULT_CONTAINER_CAP):
    """`find_c_homogeneous` as its own scan: own floor loop, own rule check."""
    if mu <= 0 or not math.isfinite(mu):
        raise InvalidParameter("service rate")
    if not 0 <= lam < math.inf:
        raise InvalidParameter("arrival rate")
    if c_start < 0:
        raise InvalidParameter("c_start")
    floor = 1
    if lam > 0:
        floor = int(math.floor(lam / mu)) + 1
        while floor * mu <= lam:
            floor += 1
    c = max(c_start, floor)
    while c <= cap:
        if _wait_tail(lam, _equal_drains(mu, c), target.t) >= target.percentile:
            return c
        c += 1
    raise CapExceeded("cap")


def heterogeneous_reference(lam, existing_rates, standard_mu, target, cap=DEFAULT_CONTAINER_CAP):
    """`find_c_heterogeneous` as its own scan: own floor loop, own rule check."""
    if standard_mu <= 0 or not math.isfinite(standard_mu):
        raise InvalidParameter("standard rate")
    if not 0 <= lam < math.inf:
        raise InvalidParameter("arrival rate")
    base = np.sort(np.asarray(list(existing_rates), dtype=float))
    if base.size and not (base[0] > 0 and np.isfinite(base[-1])):
        raise InvalidParameter("existing rate")
    insert_at = int(np.searchsorted(base, standard_mu))
    base_sum = float(base.sum())
    k = 0
    if lam >= base_sum:
        k = int(math.floor((lam - base_sum) / standard_mu)) + 1
    while base_sum + k * standard_mu <= lam:
        k += 1
    while base.size + k <= cap:
        if base.size + k > 0:
            pool = np.concatenate(
                [base[:insert_at], np.full(k, float(standard_mu)), base[insert_at:]]
            )
            drains = np.cumsum(pool) if base.size else _equal_drains(standard_mu, k)
            if lam < drains[-1] and _wait_tail(lam, drains, target.t) >= target.percentile:
                return k
        k += 1
    raise CapExceeded("cap")


def outcome(fn, *args, **kwargs):
    """The answer, or the type of the edgescale error raised instead."""
    try:
        return fn(*args, **kwargs)
    except EdgeScaleError as exc:
        return type(exc)


def o3_grid():
    for mu in (1.0, 10.0):
        for lam in np.logspace(math.log10(0.5), math.log10(2000.0), 60):
            for t in (0.01, 0.05, 0.1, 0.5):
                for p in (0.9, 0.95, 0.99):
                    yield float(lam), mu, WaitTarget(t, p)


def random_pools(count, seed):
    """(lam, existing rates, standard rate, target, cap): empty pools, rates on
    both sides of the standard rate, unstable and idle loads, and caps at,
    below and above the answer."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        mu = float(rng.uniform(0.5, 20.0))
        c = 0 if i % 7 == 0 else int(rng.integers(1, 12))
        rates = (mu * rng.uniform(0.3, 1.6, size=c)).tolist()
        total = sum(rates) + mu * int(rng.integers(0, 6))
        lam = 0.0 if i % 50 == 0 else float(rng.uniform(0.05, 1.5)) * total + float(rng.uniform(0, 1))
        target = WaitTarget(float(rng.uniform(0.005, 1.0) / mu),
                            float(rng.choice([0.5, 0.9, 0.95, 0.99, 0.999])))
        cap = DEFAULT_CONTAINER_CAP
        if i % 3 == 0:
            cap = c + int(rng.integers(0, 8))
        yield lam, rates, mu, target, cap


class TestOneSearch:
    """The shared search gives the two scans' answers and raises their errors."""

    def test_o3_grid_matches_homogeneous_scan(self):
        for lam, mu, target in o3_grid():
            want = outcome(homogeneous_reference, lam, mu, target)
            assert outcome(find_c_homogeneous, lam, mu, target) == want, (lam, mu, target)
            assert outcome(find_c_heterogeneous, lam, [], mu, target) == want, (lam, mu, target)

    def test_warm_starts_and_caps_match_homogeneous_scan(self):
        for i, (lam, mu, target) in enumerate(o3_grid()):
            if i % 5:
                continue
            c = homogeneous_reference(lam, mu, target)
            for c_start, cap in ((0, c), (0, c - 1), (c + 3, c + 3), (c + 3, c + 2), (-1, c)):
                want = outcome(homogeneous_reference, lam, mu, target, c_start, cap)
                got = outcome(find_c_homogeneous, lam, mu, target, c_start, cap)
                assert got == want, (lam, mu, target, c_start, cap)

    def test_random_pools_match_heterogeneous_scan(self):
        cases = 0
        for lam, rates, mu, target, cap in random_pools(3000, seed=10):
            want = outcome(heterogeneous_reference, lam, rates, mu, target, cap)
            assert outcome(find_c_heterogeneous, lam, rates, mu, target, cap) == want, (
                lam, rates, mu, target, cap)
            if isinstance(want, int):
                # the cap edge: the answer fits exactly, one less does not
                edge = len(rates) + want
                assert find_c_heterogeneous(lam, rates, mu, target, edge) == want
                assert outcome(heterogeneous_reference, lam, rates, mu, target, edge - 1) \
                    == outcome(find_c_heterogeneous, lam, rates, mu, target, edge - 1) \
                    == CapExceeded
            cases += 1
        assert cases == 3000


class TestHeterogeneous:
    def test_degenerate_equals_homogeneous(self):
        hom = HomogeneousModel(10, 10, 2)
        het = HeterogeneousModel(10, (10.0, 10.0))
        for n in range(40):
            assert steady_prob(het, n) == pytest.approx(steady_prob(hom, n), abs=1e-9)
        t = WaitTarget(0.13)
        assert wait_tail(het, t) == pytest.approx(wait_tail(hom, t), abs=1e-9)

    def test_slowest_first_denominator(self):
        # n=1 term divides by the slowest rate: P1 = P0 * 5/5 = P0
        het = HeterogeneousModel(5, (5.0, 10.0))
        assert steady_prob(het, 1) == pytest.approx(steady_prob(het, 0))

    def test_distribution_normalises(self):
        het = HeterogeneousModel(12, (4.0, 6.0, 8.0))
        total = sum(steady_prob(het, n) for n in range(2000))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rates_must_be_sorted(self):
        with pytest.raises(InvalidParameter):
            HeterogeneousModel(5, (10.0, 5.0))

    def test_unstable(self):
        with pytest.raises(UnstableSystem):
            wait_tail(HeterogeneousModel(20, (5.0, 10.0)), WaitTarget(0.1))

    def test_conservative_vs_homogeneous(self):
        # a pool with some slower containers never gets a better tail than the
        # all-standard pool of the same count
        t = WaitTarget(0.1, 0.95)
        for lam in (8, 15, 22):
            c_hom = find_c_homogeneous(lam, 10, t)
            k = find_c_heterogeneous(lam, [7.0, 7.0], 10, t)
            assert k + 2 >= c_hom or (k + 2) * 10 >= lam  # never fewer total containers
            pool = tuple(sorted([7.0, 7.0] + [10.0] * k))
            slower = wait_tail(HeterogeneousModel(lam, pool), t)
            same_count = wait_tail(HomogeneousModel(lam, 10, len(pool)), t)
            assert slower <= same_count + 1e-12


class TestFindCHeterogeneous:
    def test_satisfied_pool_needs_nothing(self):
        assert find_c_heterogeneous(1.0, [10.0, 10.0], 10, WaitTarget(0.5, 0.9)) == 0

    def test_empty_pool_reduces_to_homogeneous(self):
        t = WaitTarget(0.1, 0.99)
        for lam in (5, 18, 50):
            assert find_c_heterogeneous(lam, [], 10, t) == find_c_homogeneous(lam, 10, t)
        # running sums of 0.7 round differently from 0.7 * c at this cutoff
        t = WaitTarget(0.5, 0.95)
        assert find_c_heterogeneous(11, [], 0.7, t) == find_c_homogeneous(11, 0.7, t) == 20

    def test_deflated_pool_oracle_value(self):
        # Monte-Carlo search (400k requests, slowest-idle) over k: the smallest
        # pool with empirical P95 wait <= 90 ms is k=3 (p95: k=2 -> 0.196,
        # k=3 -> 0.065); the model lands on the same k.
        k = find_c_heterogeneous(30, [7.0, 7.0, 7.0], 10, WaitTarget(0.09, 0.95))
        assert k == 3

    def test_restores_stability_first(self):
        k = find_c_heterogeneous(50, [5.0], 10, WaitTarget(0.5, 0.5))
        assert sum([5.0] + [10.0] * k) > 50

    def test_cap(self):
        with pytest.raises(CapExceeded):
            find_c_heterogeneous(1000, [5.0], 10, WaitTarget(0.05, 0.999), cap=50)

    def test_worst_case_bound_not_violated(self):
        # slowest-idle dispatch must do at least as well as the worst-case CDF
        rng = np.random.default_rng(5)
        for i in range(6):
            c = int(rng.integers(3, 8))
            fracs = rng.uniform(0.7, 1.0, size=c)
            rates = np.sort(10.0 * (1 - 0.1 * (1 - fracs) / 0.3))
            lam = float(rng.uniform(0.4, 0.8)) * float(rates.sum())
            t = float(rng.uniform(0.05, 0.2))
            bound = wait_cdf_heterogeneous(HeterogeneousModel(lam, tuple(rates)), t)
            mc = mc_wait(lam, rates, t, num_requests=120_000, seed=900 + i,
                         policy="slowest-idle")
            assert mc.p_wait_le_t >= bound - 3 * mc.stderr


class TestWaitBudget:
    def test_deterministic_profile(self):
        prof = ServiceProfile(base_rate=10.0, distribution="deterministic")
        target = wait_budget(0.2, prof)
        assert target.t == pytest.approx(0.1)

    def test_exponential_p99(self):
        prof = ServiceProfile(base_rate=100.0, distribution="exponential")
        target = wait_budget(0.1, prof, percentile=0.99)
        assert target.t == pytest.approx(0.1 - math.log(100) / 100)
        assert target.percentile == 0.99

    def test_infeasible(self):
        prof = ServiceProfile(base_rate=10.0, distribution="exponential")
        with pytest.raises(InfeasibleDeadline):
            wait_budget(0.05, prof, percentile=0.99)  # ln(100)/10 = 0.46 > 0.05
