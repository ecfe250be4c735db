"""Closed-form queueing math against hand values, brute-force series, and the oracle."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from edgescale import queuing
from edgescale.allocator import required_pool
from edgescale.cli import main
from edgescale.errors import CapExceeded, EdgeScaleError, InfeasibleDeadline
from edgescale.oracle import mc_wait
from edgescale.queuing import (
    DEFAULT_CONTAINER_CAP,
    WaitTarget,
    find_c_heterogeneous,
    find_c_homogeneous,
    meets_target,
    min_stable_count,
    wait_budget,
    wait_cdf_heterogeneous,
    wait_cdf_homogeneous,
    _Chain,
)
from scenario_builders import SLO_PERCENTILE, config_error, controller, function_spec, profile


def validate_usage_error(capsys, flag, value) -> str:
    """The error line `validate` exits 2 with when `flag` is `value`."""
    with pytest.raises(SystemExit) as exit_info:
        main(["validate", "--arrival-rate", "5", "--service-rate", "10", flag, value])
    assert exit_info.value.code == 2
    (line,) = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    return line


def naive_p_zero(lam, mu, c):
    """Raw-factorial evaluation of the empty-system probability (small c only)."""
    r = lam / mu
    rho = lam / (c * mu)
    head = sum(r**n / math.factorial(n) for n in range(c))
    return 1.0 / (head + (r**c / math.factorial(c)) / (1 - rho))


# The reference kernel: the occupancy chain in numpy, rebuilt whole for each
# pool and summed by log-sum-exp. `queuing._Chain` must give its values and,
# away from exact ties (TestExactTies), its sizing decisions.


def _logsumexp(terms: np.ndarray) -> float:
    hi = float(np.max(terms))
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(float(np.sum(np.exp(terms - hi))))


def _chain(lam: float, drains: np.ndarray) -> tuple:
    """Reference occupancy chain for lam > 0 below the total drain rate.

    Returns (log_head, log_ratio, log_one_minus_ratio, log_z). The
    unnormalised weight of n requests is lam^n / (D_1*...*D_n), with log
    log_head[n] for n <= c, and decays geometrically by ratio = lam / D_c
    beyond c. log_z is the log of the weights' total.
    """
    c = len(drains)
    log_head = np.empty(c + 1)
    log_head[0] = 0.0
    log_head[1:] = np.cumsum(math.log(lam) - np.log(drains))
    log_ratio = math.log(lam / float(drains[-1]))
    log_one_minus_ratio = math.log(-math.expm1(log_ratio))
    log_z = _logsumexp(np.append(log_head[:c], log_head[c] - log_one_minus_ratio))
    return log_head, log_ratio, log_one_minus_ratio, log_z


def _wait_tail(lam: float, drains: np.ndarray, t: float) -> float:
    """Reference occupancy-cutoff P(wait <= t) of a stable chain: P(N <= L)
    with L = floor(t*D_c + c - 1)."""
    if lam == 0:
        return 1.0
    c = len(drains)
    upto = math.floor(t * float(drains[-1]) + c - 1)
    log_head, log_ratio, log_one_minus_ratio, log_z = _chain(lam, drains)
    if upto < c:
        log_num = _logsumexp(log_head[: upto + 1])
    else:
        m = upto - c + 1
        log_partial = math.log(-math.expm1(m * log_ratio)) - log_one_minus_ratio
        log_num = np.logaddexp(_logsumexp(log_head[:c]), log_head[c] + log_partial)
    return min(1.0, math.exp(float(log_num) - log_z))


def _equal_drains(mu: float, c: int) -> np.ndarray:
    """Drain rates of c equal containers: the exact products mu, ..., c*mu."""
    return mu * np.arange(1, c + 1)


# A pool below is (lam, drains), the arrival rate and the cumulative drain
# rates D_1..D_c that `queuing` builds from the pool's container rates.


def equal_pool(lam, mu, c):
    """c containers of rate mu: the exact products mu, ..., c*mu."""
    return lam, [mu * n for n in range(1, c + 1)]


def rate_pool(lam, rates):
    """Containers at `rates`: their running sums, slowest first."""
    return lam, list(itertools.accumulate(sorted(float(r) for r in rates)))


def occupancy_prob(pool, n):
    """P(exactly n requests present) in a stable pool, from its `_Chain`."""
    lam, drains = pool
    chain = _Chain(lam, drains)
    log_ratio, _, log_z = chain._tail()
    c = len(drains)
    log_term = chain.head[n] if n <= c else chain.head[c] + (n - c) * log_ratio
    return math.exp(log_term - log_z)


def cutoff_tail(pool, target):
    """The sizing rule's occupancy-cutoff P(wait <= t) of a stable pool."""
    return _Chain(*pool).cutoff_p(target.t)


class TestPZero:
    def test_mm1_is_one_minus_rho(self):
        assert occupancy_prob(equal_pool(5, 10, 1), 0) == pytest.approx(0.5)

    def test_mm2_r_one(self):
        # hand evaluation: r=1, rho=0.5, bracket = 1/(2*0.5) + (1 + 1) = 3
        assert occupancy_prob(equal_pool(10, 10, 2), 0) == pytest.approx(1 / 3)

    def test_matches_naive_series(self):
        # independent raw-factorial oracle, viable for small c
        assert occupancy_prob(equal_pool(40, 10, 8), 0) == pytest.approx(
            naive_p_zero(40, 10, 8), abs=1e-12
        )
        assert occupancy_prob(equal_pool(40, 10, 8), 0) == pytest.approx(
            0.018162947586922683, abs=1e-12
        )

    def test_full_distribution_normalises(self):
        m = equal_pool(40, 10, 8)
        total = sum(occupancy_prob(m, n) for n in range(400))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unstable_rejected(self):
        target = WaitTarget(0.1, SLO_PERCENTILE)
        assert not meets_target(20, [10.0, 10.0], target)
        # the search starts at the stability floor, never at an unstable pool
        assert find_c_homogeneous(20, 10, target, c_start=2) >= 3

    # the model trusts its inputs: each is checked where `scenario` reads
    # it, and a bad one names its field
    def test_invalid_parameters(self):
        for field, bad, domain in (("service.rate", 0, "(0, inf)"),
                                   ("service.rate", ".nan", "(0, inf)"),
                                   ("workload.rate", -1, "[0, inf)"),
                                   ("workload.rate", ".nan", "[0, inf)"),
                                   ("slo.deadline", -0.1, "(0, inf)"),
                                   ("slo.deadline", ".nan", "(0, inf)"),
                                   ("slo.deadline", ".inf", "(0, inf)")):
            at = f"functions.f.{field}"
            assert config_error(f"{at}={bad}").startswith(f"{at}: must be in {domain}, got ")


class TestSteadyProbs:
    def test_mm1_geometric(self):
        m = equal_pool(5, 10, 1)
        for k in range(12):
            assert occupancy_prob(m, k) == pytest.approx(0.5 * 0.5**k)

    def test_mm2_cases(self):
        m = equal_pool(10, 10, 2)
        assert occupancy_prob(m, 0) == pytest.approx(1 / 3)
        # r=1, n=3 > c: P3 = r^3/(c^(n-c) c!) P0 = (1/3)/4 = 1/12, confirmed by
        # normalisation of the full series
        assert occupancy_prob(m, 3) == pytest.approx(1 / 12)
        assert sum(occupancy_prob(m, n) for n in range(200)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_partial_sum_convergence(self):
        # partial sums reach 1 within 1e-6 at N = 10*c*ceil(1/(1-rho))
        for lam, mu, c in [(5, 10, 1), (18, 10, 2), (45, 10, 5), (70, 10, 8)]:
            m = equal_pool(lam, mu, c)
            rho = lam / (c * mu)
            n_max = 10 * c * math.ceil(1 / (1 - rho))
            total = sum(occupancy_prob(m, n) for n in range(n_max + 1))
            assert total == pytest.approx(1.0, abs=1e-6)


class TestWaitTail:
    def test_empty_system_never_waits(self):
        p = cutoff_tail(equal_pool(1e-12, 10, 1), WaitTarget(0.1, SLO_PERCENTILE))
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_c(self):
        t = WaitTarget(0.1, SLO_PERCENTILE)
        p1 = cutoff_tail(equal_pool(5, 10, 3), t)
        p2 = cutoff_tail(equal_pool(5, 10, 4), t)
        assert p2 >= p1

    def test_monotone_in_t(self):
        m = equal_pool(25, 10, 4)
        probs = [cutoff_tail(m, WaitTarget(t, SLO_PERCENTILE)) for t in (0.02, 0.1, 0.3, 1.0)]
        assert probs == sorted(probs)

    def test_against_oracle_instance(self):
        # Monte-Carlo value frozen from a 1e6-request run (seed 42):
        # p = 0.94737 +- 0.0006. The occupancy-cutoff rule is a mean-field
        # approximation and lands about 0.023 above it; the exact CDF agrees
        # with the oracle to within 3 standard errors.
        approx_p = cutoff_tail(equal_pool(15, 10, 3), WaitTarget(0.1, SLO_PERCENTILE))
        exact_p = wait_cdf_homogeneous(15, 10, 3, 0.1)
        assert approx_p == pytest.approx(0.97039, abs=1e-4)
        assert exact_p == pytest.approx(0.94715, abs=1e-4)
        mc = mc_wait(15, [10] * 3, 0.1, num_requests=150_000, seed=42, policy="fastest-idle")
        assert abs(exact_p - mc.p_wait_le_t) <= 3 * mc.stderr
        assert abs(approx_p - mc.p_wait_le_t) <= 0.03

    def test_no_overflow_at_cap(self):
        het = rate_pool(0.999 * 105_000, tuple(np.linspace(1.0, 20.0, 10_000)))
        for m in (equal_pool(9999 * 10, 10, 10_000), het):
            p = cutoff_tail(m, WaitTarget(0.1, 0.99))
            assert 0.0 <= p <= 1.0 and math.isfinite(p)
            lam, drains = m
            assert p == pytest.approx(_wait_tail(lam, np.asarray(drains), 0.1), rel=1e-9)


class TestExactWaitCdf:
    def test_mm1_closed_form(self):
        # M/M/1: P(W > t) = rho * exp(-mu (1-rho) t)
        lam, mu, t = 5.0, 10.0, 0.5
        expected = 1 - (lam / mu) * math.exp(-(mu - lam) * t)
        assert wait_cdf_homogeneous(lam, mu, 1, t) == pytest.approx(expected)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(11)
        for i in range(12):
            c = int(rng.integers(1, 11))
            mu = float(rng.uniform(1, 20))
            lam = float(rng.uniform(0.1, 0.92)) * c * mu
            t = float(rng.uniform(0.2, 3.0)) / (c * mu - lam)
            mc = mc_wait(lam, [mu] * c, t, num_requests=120_000, seed=500 + i,
                         policy="fastest-idle")
            assert abs(wait_cdf_homogeneous(lam, mu, c, t) - mc.p_wait_le_t) <= 3 * mc.stderr


class TestFindC:
    def test_near_idle(self):
        assert find_c_homogeneous(0.01, 10, WaitTarget(0.1, SLO_PERCENTILE), c_start=0) == 1

    def test_zero_rate(self, capsys):
        # zero traffic never reaches the search: the allocator sizes it to the
        # pool's floor, and `validate` rejects it as a usage error
        for floor in (0, 2):
            spec = function_spec(min_containers=floor)
            assert required_pool(spec, [], 0.0, controller()) == (floor, floor * spec.vcpu)
        assert validate_usage_error(capsys, "--arrival-rate", "0") == (
            "edgescale validate: error: argument --arrival-rate: expected a number > 0, "
            "got '0'")

    def test_monotone_in_lambda(self):
        t = WaitTarget(0.1, SLO_PERCENTILE)
        cs = [find_c_homogeneous(lam, 10, t) for lam in (5, 10, 20, 40, 80)]
        assert cs == sorted(cs)

    def test_monotone_in_mu_and_t(self):
        assert find_c_homogeneous(30, 20, WaitTarget(0.1, SLO_PERCENTILE)) <= find_c_homogeneous(
            30, 10, WaitTarget(0.1, SLO_PERCENTILE)
        )
        assert find_c_homogeneous(30, 10, WaitTarget(0.5, SLO_PERCENTILE)) <= find_c_homogeneous(
            30, 10, WaitTarget(0.05, SLO_PERCENTILE)
        )

    def test_warm_start_floor(self):
        # the seed is a warm start: the scan begins there, never below stability
        assert find_c_homogeneous(50, 10, WaitTarget(0.1, 0.99), c_start=0) == 8
        assert find_c_homogeneous(50, 10, WaitTarget(0.1, 0.99), c_start=12) == 12

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr(queuing, "DEFAULT_CONTAINER_CAP", 30)
        with pytest.raises(CapExceeded):
            find_c_homogeneous(500, 10, WaitTarget(0.1, 0.99))

    def test_fixed_cap(self):
        # a stability floor of 100 001 containers is past the cap
        with pytest.raises(CapExceeded, match=f"<= {DEFAULT_CONTAINER_CAP} containers"):
            find_c_homogeneous(1e6, 10, WaitTarget(0.1, 0.99))
        with pytest.raises(CapExceeded):
            find_c_heterogeneous(1e6, [5.0], 10, WaitTarget(0.1, 0.99))

    # `validate` sizes pools from its flags, each checked by its type
    def test_non_finite_rates_rejected(self, capsys):
        for bad in ("nan", "inf"):
            for flag, value, expected in (
                    ("--service-rate", bad, "a finite number"),
                    ("--arrival-rate", bad, "a finite number"),
                    ("--rates", f"10,{bad}", "comma-separated finite numbers > 0")):
                assert validate_usage_error(capsys, flag, value).endswith(
                    f"argument {flag}: expected {expected}, got '{value}'")

    def test_sizing_at_float_boundaries(self):
        # t*c*mu + c - 1 lands on an integer here; the cutoff must use the
        # exact product c*mu, not a running sum of c copies of mu
        assert find_c_homogeneous(11, 0.7, WaitTarget(0.5, 0.95)) == 20
        assert find_c_homogeneous(55, 0.3, WaitTarget(0.1, 0.9)) == 200
        assert find_c_homogeneous(191, 0.7, WaitTarget(0.1, 0.99)) == 300

    # the counts sizing works from are its own answers and each function's
    # `min_containers`, which `scenario` takes only as an integer
    def test_non_integer_counts_rejected(self):
        for count in (2.5, 3.0):
            assert config_error(f"functions.f.min_containers={count}") == (
                f"functions.f.min_containers: expected an integer, got {count}")
        assert type(find_c_homogeneous(5.0, 10.0, WaitTarget(0.1, 0.95))) is int

    def test_numpy_integer_warm_start(self):
        t = WaitTarget(0.1, 0.95)
        assert find_c_homogeneous(5.0, 10.0, t, c_start=np.int64(3)) == 3

    def test_min_stable_count(self):
        assert min_stable_count(0, 10) == 1
        assert min_stable_count(30, 10) == 4  # strict inequality: 3*10 == 30 unstable
        assert min_stable_count(29.9, 10) == 3

    def test_min_stable_count_rounding_guard(self):
        # the floor division alone gives 1394, and 1394 * 3.15 is
        # 4391.099999999999, which is not above lam
        assert 1394 * 3.15 == 4391.099999999999
        assert min_stable_count(4391.099999999999, 3.15) == 1395
        # with a base pool the division alone gives 967: 2.5 + 967 * 0.6 == lam
        assert 2.5 + 967 * 0.6 == 582.6999999999999
        assert min_stable_count(582.6999999999999, 0.6, 2.5) == 968

    def test_min_stable_count_past_the_cap_raises(self):
        # far past 2^53, k += 1 no longer moves k * mu: the rounding guard
        # once looped for good at lam=2, mu=1e-30 and at mu=1e-300
        for mu in (1e-30, 1e-300):
            with pytest.raises(CapExceeded, match=f"<= {DEFAULT_CONTAINER_CAP} containers"):
                min_stable_count(2.0, mu)
            with pytest.raises(CapExceeded):
                min_stable_count(2.0, mu, 1e-300)

    def test_min_stable_count_at_the_cap_edge(self):
        cap = float(DEFAULT_CONTAINER_CAP)
        assert min_stable_count(cap - 0.5, 1.0) == DEFAULT_CONTAINER_CAP
        assert min_stable_count(cap, 1.0) == DEFAULT_CONTAINER_CAP + 1  # the search refuses it
        assert min_stable_count(cap + 2.5, 1.0, 2.5) == DEFAULT_CONTAINER_CAP + 1
        with pytest.raises(CapExceeded):
            min_stable_count(math.nextafter(cap, math.inf), 1.0)
        with pytest.raises(CapExceeded):
            min_stable_count(cap + 2.5, 1.0, 2.5 - 1e-6)


def homogeneous_reference(lam, mu, target, c_start=0, cap=DEFAULT_CONTAINER_CAP):
    """`find_c_homogeneous` as its own scan: own floor loop, reference kernel."""
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
    """`find_c_heterogeneous` as its own scan: own floor loop, reference kernel."""
    base = np.sort(np.asarray(list(existing_rates), dtype=float))
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


@pytest.fixture
def capped(monkeypatch):
    """`capped(cap, fn, *args)`: `outcome(fn, *args)` with the search capped at `cap`."""
    def run(cap, fn, *args):
        monkeypatch.setattr(queuing, "DEFAULT_CONTAINER_CAP", cap)
        return outcome(fn, *args)
    return run


def o3_grid():
    for mu in (1.0, 10.0):
        for lam in np.logspace(math.log10(0.5), math.log10(2000.0), 60):
            for t in (0.01, 0.05, 0.1, 0.5):
                for p in (0.9, 0.95, 0.99):
                    yield float(lam), mu, WaitTarget(t, p)


def random_pools(count, seed):
    """(lam, existing rates, standard rate, target, cap): empty pools, rates on
    both sides of the standard rate, unstable and near-idle loads (lam > 0),
    and caps at, below and above the answer."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        mu = float(rng.uniform(0.5, 20.0))
        c = 0 if i % 7 == 0 else int(rng.integers(1, 12))
        rates = (mu * rng.uniform(0.3, 1.6, size=c)).tolist()
        total = sum(rates) + mu * int(rng.integers(0, 6))
        # near idle; at 1e-3 * mu a one-container pool's cutoff P would sit
        # on p = 0.999 exactly, a tie the reference may round either way
        lam = 1e-4 * mu if i % 50 == 0 else float(rng.uniform(0.05, 1.5)) * total + float(rng.uniform(0, 1))
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

    def test_warm_starts_and_caps_match_homogeneous_scan(self, capped):
        for i, (lam, mu, target) in enumerate(o3_grid()):
            if i % 5:
                continue
            c = homogeneous_reference(lam, mu, target)
            for c_start, cap in ((0, c), (0, c - 1), (c + 3, c + 3), (c + 3, c + 2)):
                want = outcome(homogeneous_reference, lam, mu, target, c_start, cap)
                got = capped(cap, find_c_homogeneous, lam, mu, target, c_start)
                assert got == want, (lam, mu, target, c_start, cap)

    def test_random_pools_match_heterogeneous_scan(self, capped):
        cases = 0
        for lam, rates, mu, target, cap in random_pools(3000, seed=10):
            want = outcome(heterogeneous_reference, lam, rates, mu, target, cap)
            assert capped(cap, find_c_heterogeneous, lam, rates, mu, target) == want, (
                lam, rates, mu, target, cap)
            if isinstance(want, int):
                # the cap edge: the answer fits exactly, one less does not
                edge = len(rates) + want
                assert capped(edge, find_c_heterogeneous, lam, rates, mu, target) == want
                assert outcome(heterogeneous_reference, lam, rates, mu, target, edge - 1) \
                    == capped(edge - 1, find_c_heterogeneous, lam, rates, mu, target) \
                    == CapExceeded
            cases += 1
        assert cases == 3000


def reference_wait_cdf(lam, drains, t):
    """`_wait_cdf` on the numpy reference chain."""
    log_head, _, log_one_minus_ratio, log_z = _chain(lam, np.asarray(drains))
    log_queued = float(log_head[-1]) - log_one_minus_ratio - log_z
    return 1.0 - math.exp(log_queued - (drains[-1] - lam) * t)


class TestScalarChain:
    """The scalar chain gives the numpy reference's values and decisions."""

    def test_wait_cdf_and_cutoff_match_reference(self):
        checked = 0
        for lam, rates, mu, target, _ in random_pools(1500, seed=21):
            rates = rates + [mu] * 3
            c = len(rates)
            cdfs = [(rate_pool(lam, rates), lambda t: wait_cdf_heterogeneous(lam, rates, t)),
                    (equal_pool(lam, mu, c), lambda t: wait_cdf_homogeneous(lam, mu, c, t))]
            for (_, drains), wait_cdf in cdfs:
                if not 0 < lam < drains[-1]:
                    continue
                for t in (0.0, target.t, 10 * target.t):
                    assert wait_cdf(t) == pytest.approx(
                        reference_wait_cdf(lam, drains, t), rel=1e-12, abs=0)
                assert cutoff_tail((lam, drains), target) == pytest.approx(
                    _wait_tail(lam, np.asarray(drains), target.t), rel=1e-12, abs=0)
                checked += 1
        assert checked > 2000

    def test_shrink_probe_matches_reference(self):
        # the allocator's probe: the sorted pool's running sums, stable or not
        outcomes = set()
        for lam, rates, mu, target, _ in random_pools(3000, seed=22):
            drains = np.cumsum(sorted(rates + [mu]))
            want = bool(lam < drains[-1] and _wait_tail(lam, drains, target.t) >= target.percentile)
            assert meets_target(lam, rates + [mu], target) == want, (lam, rates, mu, target)
            outcomes.add((want, bool(lam < drains[-1])))
        assert outcomes == {(True, True), (False, True), (False, False)}


def exact_cutoff_p(lam, mu, c, t):
    """The sizing rule's P(N <= L) of c equal containers in rational arithmetic
    on the float inputs, with the kernel's float cutoff L."""
    upto = math.floor(t * (mu * c) + c - 1)
    weights = [Fraction(1)]
    for n in range(1, c + 1):
        weights.append(weights[-1] * Fraction(lam) / Fraction(mu * n))
    ratio = Fraction(lam) / Fraction(mu * c)
    head = sum(weights[:c])
    total = head + weights[c] / (1 - ratio)
    if upto < c:
        return sum(weights[: upto + 1]) / total
    return (head + weights[c] * (1 - ratio ** (upto - c + 1)) / (1 - ratio)) / total


def exact_c(lam, mu, target):
    """The sizing rule's answer with P exact and p the decimal it is written as."""
    c, p = min_stable_count(lam, mu), Fraction(str(target.percentile))
    while exact_cutoff_p(lam, mu, c, target.t) < p:
        c += 1
    return c


def tie_grid():
    """Small pools at simple rational loads, where P(N <= L) can equal p exactly."""
    lams = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0, 12.0, 15.0, 20.0)
    for lam, mu, t, p in itertools.product(lams, (1.0, 2.0, 4.0, 5.0, 10.0),
                                           (0.01, 0.05, 0.1, 0.25, 0.5, 1.0),
                                           (0.5, 0.75, 0.8, 0.9, 0.95, 0.99)):
        yield lam, mu, WaitTarget(t, p)


# (lam, mu, t, p) where the numpy reference answers c = 2 although the exact
# P(N <= L) of one container is p itself: the `>=` rule takes c = 1 there.
REFERENCE_TIE_MISSES = {
    (0.25, 1.0, 0.01, 0.75), (0.25, 1.0, 0.05, 0.75), (0.25, 1.0, 0.1, 0.75),
    (0.25, 1.0, 0.25, 0.75), (0.25, 1.0, 0.5, 0.75),
    (0.5, 2.0, 0.01, 0.75), (0.5, 2.0, 0.05, 0.75), (0.5, 2.0, 0.1, 0.75),
    (0.5, 2.0, 0.25, 0.75),
    (0.5, 5.0, 0.01, 0.9), (0.5, 5.0, 0.05, 0.9), (0.5, 5.0, 0.1, 0.9),
    (1.0, 4.0, 0.01, 0.75), (1.0, 4.0, 0.05, 0.75), (1.0, 4.0, 0.1, 0.75),
    (1.0, 10.0, 0.01, 0.9), (1.0, 10.0, 0.05, 0.9), (1.0, 10.0, 0.1, 0.99),
}


class TestExactTies:
    """Where exact arithmetic puts P(N <= L) on p itself, `>=` takes the pool."""

    def test_one_container_at_nine_tenths(self):
        target = WaitTarget(0.01, 0.9)
        assert exact_cutoff_p(1.0, 10.0, 1, target.t) == Fraction(9, 10)
        assert find_c_homogeneous(1.0, 10.0, target) == 1
        assert find_c_heterogeneous(1.0, [], 10.0, target) == 1
        assert homogeneous_reference(1.0, 10.0, target) == 2

    def test_two_containers_at_nine_tenths(self):
        for t in (0.01, 0.05, 0.1):
            assert exact_cutoff_p(0.5, 1.0, 1, t) == Fraction(1, 2)
            assert exact_cutoff_p(0.5, 1.0, 2, t) == Fraction(9, 10)
            assert find_c_homogeneous(0.5, 1.0, WaitTarget(t, 0.9)) == 2
            assert homogeneous_reference(0.5, 1.0, WaitTarget(t, 0.9)) == 2

    def test_small_pools_follow_exact_arithmetic(self):
        for lam, mu, target in tie_grid():
            assert find_c_homogeneous(lam, mu, target) == exact_c(lam, mu, target), (
                lam, mu, target)

    def test_reference_differs_only_at_pinned_ties(self):
        misses = set()
        for lam, mu, target in tie_grid():
            got = find_c_homogeneous(lam, mu, target)
            if got != homogeneous_reference(lam, mu, target):
                assert exact_cutoff_p(lam, mu, got, target.t) == Fraction(str(target.percentile))
                misses.add((lam, mu, target.t, target.percentile))
        assert misses == REFERENCE_TIE_MISSES


class TestHeterogeneous:
    def test_degenerate_equals_homogeneous(self):
        hom = equal_pool(10, 10, 2)
        het = rate_pool(10, (10.0, 10.0))
        for n in range(40):
            assert occupancy_prob(het, n) == pytest.approx(occupancy_prob(hom, n), abs=1e-9)
        t = WaitTarget(0.13, SLO_PERCENTILE)
        assert cutoff_tail(het, t) == pytest.approx(cutoff_tail(hom, t), abs=1e-9)

    def test_slowest_first_denominator(self):
        # n=1 term divides by the slowest rate: P1 = P0 * 5/5 = P0
        het = rate_pool(5, (5.0, 10.0))
        assert occupancy_prob(het, 1) == pytest.approx(occupancy_prob(het, 0))

    def test_distribution_normalises(self):
        het = rate_pool(12, (4.0, 6.0, 8.0))
        total = sum(occupancy_prob(het, n) for n in range(2000))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rates_are_sorted_slowest_first(self):
        # any order gives the slowest-first pool
        for lam, t in ((5, WaitTarget(0.1, 0.9)), (12, WaitTarget(0.05, 0.99))):
            assert wait_cdf_heterogeneous(lam, (10.0, 5.0), t.t) == \
                wait_cdf_heterogeneous(lam, (5.0, 10.0), t.t)
            assert meets_target(lam, (10.0, 5.0), t) == meets_target(lam, (5.0, 10.0), t)
        assert meets_target(5, (10.0, 5.0), WaitTarget(0.1, 0.9))
        assert not meets_target(12, (10.0, 5.0), WaitTarget(0.05, 0.99))

    def test_unstable(self):
        target = WaitTarget(0.1, SLO_PERCENTILE)
        assert not meets_target(20, (5.0, 10.0), target)
        # the search restores stability before it tests the target
        k = find_c_heterogeneous(20, [5.0, 10.0], 10, target)
        assert 15 + 10 * k > 20

    def test_conservative_vs_homogeneous(self):
        # a pool with some slower containers never gets a better tail than the
        # all-standard pool of the same count
        t = WaitTarget(0.1, 0.95)
        for lam in (8, 15, 22):
            c_hom = find_c_homogeneous(lam, 10, t)
            k = find_c_heterogeneous(lam, [7.0, 7.0], 10, t)
            assert k + 2 >= c_hom or (k + 2) * 10 >= lam  # never fewer total containers
            pool = tuple(sorted([7.0, 7.0] + [10.0] * k))
            slower = cutoff_tail(rate_pool(lam, pool), t)
            same_count = cutoff_tail(equal_pool(lam, 10, len(pool)), t)
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

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(queuing, "DEFAULT_CONTAINER_CAP", 50)
        with pytest.raises(CapExceeded):
            find_c_heterogeneous(1000, [5.0], 10, WaitTarget(0.05, 0.999))

    def test_worst_case_bound_not_violated(self):
        # slowest-idle dispatch must do at least as well as the worst-case CDF
        rng = np.random.default_rng(5)
        for i in range(6):
            c = int(rng.integers(3, 8))
            fracs = rng.uniform(0.7, 1.0, size=c)
            rates = np.sort(10.0 * (1 - 0.1 * (1 - fracs) / 0.3))
            lam = float(rng.uniform(0.4, 0.8)) * float(rates.sum())
            t = float(rng.uniform(0.05, 0.2))
            bound = wait_cdf_heterogeneous(lam, rates, t)
            mc = mc_wait(lam, rates, t, num_requests=120_000, seed=900 + i,
                         policy="slowest-idle")
            assert mc.p_wait_le_t >= bound - 3 * mc.stderr


class TestWaitBudget:
    def test_deterministic_profile(self):
        prof = profile(10.0, distribution="deterministic")
        target = wait_budget(0.2, prof, SLO_PERCENTILE)
        assert target.t == pytest.approx(0.1)

    def test_exponential_p99(self):
        prof = profile(100.0, distribution="exponential")
        target = wait_budget(0.1, prof, percentile=0.99)
        assert target.t == pytest.approx(0.1 - math.log(100) / 100)
        assert target.percentile == 0.99

    def test_infeasible(self):
        prof = profile(10.0, distribution="exponential")
        with pytest.raises(InfeasibleDeadline):
            wait_budget(0.05, prof, percentile=0.99)  # ln(100)/10 = 0.46 > 0.05

    # the deadline and percentile come from the SLO, which `scenario` bounds,
    # or from `validate`'s flags; `wait_budget` and `WaitTarget` take them as
    # they are
    @pytest.mark.parametrize("deadline", [0.0, -0.1])
    def test_deadline_must_be_positive(self, capsys, deadline):
        assert config_error(f"functions.f.slo.deadline={deadline}") == (
            f"functions.f.slo.deadline: must be in (0, inf), got {deadline}")
        assert validate_usage_error(capsys, "--deadline", str(deadline)).endswith(
            f"argument --deadline: expected a number > 0, got '{deadline}'")

    @pytest.mark.parametrize("percentile", [0.0, 1.0, -0.5, 1.5])
    def test_wait_target_percentile_inside_0_1(self, capsys, percentile):
        assert config_error(f"functions.f.slo.percentile={percentile}") == (
            f"functions.f.slo.percentile: must be in (0, 1), got {percentile}")
        assert validate_usage_error(capsys, "--percentile", str(percentile)).endswith(
            f"argument --percentile: expected a number in (0, 1), got '{percentile}'")
