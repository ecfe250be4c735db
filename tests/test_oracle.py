"""The Monte-Carlo oracle itself: closed-form spot checks and self-consistency."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from edgescale import oracle
from edgescale.cli import main
from edgescale.errors import InvalidParameter
from edgescale.oracle import BATCHES, OracleResult, mc_wait
from edgescale.simulator import Simulation, _FnRuntime

from scenario_builders import basic_function, make_scenario


def joined(blocks):
    """The `(arrivals, starts, completions)` blocks of `_serve` as three whole arrays."""
    return tuple(map(np.concatenate, zip(*blocks)))


def shared_queue(lam, rates, num_requests, seed, pick_fastest):
    """`_shared_queue`'s blocks joined into whole arrays."""
    return joined(oracle._shared_queue(lam, rates, num_requests, seed, pick_fastest))


def test_mm1_tail_closed_form():
    # M/M/1: P(W > t) = rho e^{-mu(1-rho)t}; at (5, 10, t=0.5) that is ~0.041
    res = mc_wait(5, [10.0], 0.5, num_requests=200_000, seed=1, policy="fastest-idle")
    exact = 1 - 0.5 * math.exp(-10 * 0.5 * 0.5)
    assert abs(res.p_wait_le_t - exact) <= 3 * res.stderr
    assert res.sample_count > 150_000
    assert res.stderr > 0


def test_policy_equivalent_for_equal_rates():
    a = mc_wait(15, [10.0] * 3, 0.1, num_requests=150_000, seed=7, policy="fastest-idle")
    b = mc_wait(15, [10.0] * 3, 0.1, num_requests=150_000, seed=7, policy="slowest-idle")
    assert abs(a.p_wait_le_t - b.p_wait_le_t) <= 3 * math.hypot(a.stderr, b.stderr)


def test_slowest_idle_waits_more_when_rates_differ():
    fast = mc_wait(9, [3.0, 15.0], 0.15, num_requests=150_000, seed=3, policy="fastest-idle")
    slow = mc_wait(9, [3.0, 15.0], 0.15, num_requests=150_000, seed=3, policy="slowest-idle")
    assert slow.p_wait_le_t < fast.p_wait_le_t


def test_stderr_shrinks_with_horizon():
    small = mc_wait(15, [10.0] * 2, 0.1, num_requests=60_000, seed=5, policy="fastest-idle")
    big = mc_wait(15, [10.0] * 2, 0.1, num_requests=240_000, seed=5, policy="fastest-idle")
    ratio = small.stderr / big.stderr
    assert 1.3 < ratio < 3.2  # ~2 expected at 4x the samples


def test_determinism():
    a = mc_wait(12, [10.0, 10.0], 0.1, num_requests=50_000, seed=9, policy="fastest-idle")
    b = mc_wait(12, [10.0, 10.0], 0.1, num_requests=50_000, seed=9, policy="fastest-idle")
    assert a == b


def test_littles_law():
    """Time-averaged jobs in system equals lam * mean response over a window.

    Both sides come from different views of one run: the left by integrating
    the occupancy process over an interior window, the right from nominal lam
    and per-request sojourns. Edge effects make this a real consistency check
    rather than an identity.
    """
    lam, n = 18, 120_000
    arrivals, _, completions = shared_queue(lam, [10.0] * 3, n, 2, True)

    lo = float(arrivals[n // 10])
    hi = float(arrivals[9 * n // 10])
    times = np.concatenate([arrivals, completions])
    deltas = np.concatenate([np.ones(n), -np.ones(n)])
    order = np.argsort(times, kind="stable")
    times, deltas = times[order], deltas[order]
    occupancy = np.cumsum(deltas)
    inside = (times >= lo) & (times <= hi)
    seg_times = np.concatenate([[lo], times[inside], [hi]])
    start_occ = occupancy[np.searchsorted(times, lo, side="right") - 1]
    seg_occ = np.concatenate([[start_occ], occupancy[inside]])
    l_avg = float(np.sum(seg_occ * np.diff(seg_times))) / (hi - lo)

    in_window = (arrivals >= lo) & (arrivals <= hi)
    mean_response = float((completions[in_window] - arrivals[in_window]).mean())
    assert l_avg == pytest.approx(lam * mean_response, rel=0.05)


class Reached(Exception):
    """Raised by `oracle_calls` in place of the oracle's run."""


@pytest.fixture
def oracle_calls(monkeypatch):
    """The arguments of each `mc_wait` call `validate` makes. Each call
    raises Reached instead of running."""
    calls = []

    def record(lam, rates, t, num_requests, seed, policy):
        calls.append({"lam": lam, "rates": list(rates), "t": t,
                      "num_requests": num_requests, "seed": seed, "policy": policy})
        raise Reached

    monkeypatch.setattr(oracle, "mc_wait", record)
    return calls


def validate_argv(*flags):
    return ["validate", "--arrival-rate", "5", "--service-rate", "10", *flags]


# `mc_wait` checks none of its arguments but the request count's lower
# bounds: `validate`, its only caller, checks each flag by its type, limits
# requests x replications and sizes a stable pool first

def test_input_validation(oracle_calls):
    # an overloaded existing pool, no existing pool and a homogeneous pool:
    # each reaches the oracle stable, non-empty and with a policy it serves
    for flags in (["--arrival-rate", "30", "--rates", "10,10"], ["--rates", ""], []):
        with pytest.raises(Reached):
            main(validate_argv(*flags))
    assert [call["policy"] for call in oracle_calls] == [
        "slowest-idle", "fastest-idle", "fastest-idle"]
    for call in oracle_calls:
        assert call["rates"] and call["lam"] < math.fsum(call["rates"])


# `match` names the argument `mc_wait` once rejected; `validate` rejects its flag
@pytest.mark.parametrize("lam, rates, t, match", [
    (5, [math.nan, 10.0], 0.1, "rates"),
    (5, [10.0, math.nan, 4.0], 0.1, "rates"),
    (5, [math.inf], 0.1, "rates"),
    (math.nan, [10.0], 0.1, "arrival rate"),
    (math.inf, [10.0], 0.1, "arrival rate"),
    (5, [10.0], math.nan, "t must"),
    (5, [10.0], math.inf, "t must"),
    (5, [10.0], -0.1, "t must"),
])
def test_non_finite_or_negative_input_rejected(capsys, lam, rates, t, match):
    flag = {"rates": "--rates", "arrival rate": "--arrival-rate", "t must": "--deadline"}[match]
    with pytest.raises(SystemExit) as exit_info:
        main(validate_argv("--arrival-rate", str(lam), "--rates", ",".join(map(str, rates)),
                           "--deadline", str(t)))
    assert exit_info.value.code == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err


# None leaves the flag out; a count or seed `validate` takes reaches the
# oracle as the Python int written, and any other ends in one error line
@pytest.mark.parametrize("num_requests, seed, match", [
    (120_000.5, 0, "num_requests must be an integer, got 120000.5"),
    ("5000", 0, "num_requests must be an integer, got '5000'"),
    (None, 0, "num_requests must be an integer, got None"),
    (5_000, -1, "seed must be >= 0, got -1"),
    (5_000, 1.5, "seed must be an integer, got 1.5"),
    (5_000, None, "seed must be an integer, got None"),
    (10_000_001, 0, "10,000,001 requests, over the 10,000,000 limit"),
])
def test_bad_count_or_seed_rejected(capsys, oracle_calls, num_requests, seed, match):
    flag = "--seed" if match.startswith("seed") else "--requests"
    flags = []
    for name, value in (("--requests", num_requests), ("--seed", seed)):
        if value is not None:
            flags += [name, str(value)]
    try:
        rc = main(validate_argv(*flags))
    except SystemExit as exc:
        rc = exc.code
    except Reached:
        (call,) = oracle_calls
        assert type(call["num_requests"]) is int and type(call["seed"]) is int
        assert call["num_requests"] == (120_000 if num_requests is None else int(num_requests))
        assert call["seed"] == (0 if seed is None else seed)
        return
    err = capsys.readouterr().err
    assert rc in (1, 2) and err.count("error:") == 1 and f" {flag}: " in err, err
    assert oracle_calls == []


def test_numpy_integer_count_and_seed_accepted():
    want = mc_wait(5, [10.0], 0.1, num_requests=5_000, seed=3, policy="fastest-idle")
    assert mc_wait(5, [10.0], 0.1, num_requests=np.int64(5_000), seed=np.uint8(3),
                   policy="fastest-idle") == want


def test_warmup_and_batches_must_leave_samples():
    # the warmup of 1,000 leaves 50 samples for 100 batches
    with pytest.raises(InvalidParameter, match="50 samples"):
        mc_wait(5, [1.0] * 10, 0.1, num_requests=1_050, seed=0, policy="fastest-idle")
    res = mc_wait(5, [1.0] * 10, 0.1, num_requests=1_100, seed=0, policy="fastest-idle")
    assert res.sample_count == 100 and math.isfinite(res.stderr)


def scan_reference(lam, rates, num_requests, seed, pick_fastest):
    """`_shared_queue` as one O(c) scan over every server per request."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / lam, size=num_requests))
    unit_service = rng.exponential(1.0, size=num_requests)
    free_at = [0.0] * len(rates)
    starts = np.empty(num_requests)
    completions = np.empty(num_requests)
    for i in range(num_requests):
        start = max(arrivals[i], min(free_at))
        order = range(len(rates) - 1, -1, -1) if pick_fastest else range(len(rates))
        chosen = next(j for j in order if free_at[j] <= start)
        free_at[chosen] = start + unit_service[i] / rates[chosen]
        starts[i] = start
        completions[i] = free_at[chosen]
    return arrivals, starts, completions


def _random_pools(count, seed):
    rng = np.random.default_rng(seed)
    for k in range(count):
        c = int(rng.integers(1, 61))
        kind = ("equal", "mixed", "repeated")[k % 3]
        if kind == "equal":
            rates = [float(rng.uniform(0.5, 20.0))] * c
        elif kind == "mixed":
            rates = sorted(rng.uniform(0.5, 20.0, size=c).tolist())
        else:
            rates = sorted(rng.choice([1.0, 2.5, 6.0, 9.0, 10.0], size=c).tolist())
        yield pytest.param(float(rng.uniform(0.2, 0.97)) * sum(rates), rates,
                           id=f"{kind}-c{c}")


@pytest.mark.parametrize("pick_fastest", [True, False], ids=["fastest", "slowest"])
@pytest.mark.parametrize("lam, rates", [
    pytest.param(45.0, [1.0] * 55, id="homog_c55"),
    pytest.param(300.0, sorted([6.0] * 15 + [9.0] * 15 + [10.0] * 10), id="hetero_c40"),
    *_random_pools(18, seed=11),
])
def test_heaps_equal_scan_bit_for_bit(lam, rates, pick_fastest):
    n = oracle.BLOCK + 2 * oracle.SLICE + 37  # a block edge and slice edges
    want = scan_reference(lam, rates, n, 4, pick_fastest)
    got = shared_queue(lam, rates, n, 4, pick_fastest)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


def whole_array_mc_wait(lam, rates, t, num_requests, seed, policy):
    """`mc_wait` on whole arrays, every request's wait held at once: the reference."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / lam, size=num_requests))
    unit_service = rng.exponential(1.0, size=num_requests)
    _, starts, _ = joined(oracle._serve([arrivals], [unit_service], sorted(rates),
                                        policy == "fastest-idle"))
    warmup = max(oracle.MIN_WARMUP, num_requests // 100)
    measured = (starts - arrivals)[warmup:]
    hits = (measured <= t).astype(float)
    p_hat = float(hits.mean())

    usable = (len(hits) // BATCHES) * BATCHES
    per_batch = hits[:usable].reshape(BATCHES, -1).mean(axis=1)
    se_batch = float(per_batch.std(ddof=1)) / math.sqrt(BATCHES)
    one = 1.0 / len(hits)
    se_binom = math.sqrt(max(p_hat * (1.0 - p_hat), one * (1.0 - one)) / len(hits))
    return OracleResult(p_wait_le_t=p_hat, sample_count=len(measured),
                        stderr=max(se_batch, se_binom))


@pytest.mark.parametrize("num_requests", [
    1_100,  # the fewest: a warmup of 1,000 and one sample per batch
    2 * oracle.SLICE - 1, 2 * oracle.SLICE + 1, oracle.BLOCK - 1, oracle.BLOCK + 1,
    3 * oracle.BLOCK + 37, 120_000,  # a warmup of 1,200 and batches of 1,188
])
@pytest.mark.parametrize("policy", ["fastest-idle", "slowest-idle"])
@pytest.mark.parametrize("lam, rates", [
    pytest.param(25.0, [10.0] * 3, id="homog_c3"),
    *_random_pools(4, seed=23),
])
def test_streaming_equals_the_whole_array_estimate(lam, rates, policy, num_requests):
    t = 0.3 / max(rates)
    want = whole_array_mc_wait(lam, rates, t, num_requests, 5, policy)
    got = mc_wait(lam, rates, t, num_requests=num_requests, seed=5, policy=policy)
    assert [(type(v), v) for v in vars(got).values()] == [
        (type(v), v) for v in vars(want).values()]


@pytest.mark.parametrize("rates, most", [
    pytest.param([10.0] * 3, 400_000, id="one_class"),
    # the heap kernel runs slower under tracemalloc; an array slot per
    # request would hold about 7.4 MB more at 200,000 than at 20,000
    pytest.param([4.0, 10.0, 10.0, 12.0], 200_000, id="three_classes"),
])
def test_memory_does_not_grow_with_the_request_count(rates, most):
    peaks = []
    for num_requests in (20_000, most):
        # first-call allocations
        mc_wait(25.0, rates, 0.1, num_requests=2_000, seed=0, policy="fastest-idle")
        tracemalloc.start()
        try:
            mc_wait(25.0, rates, 0.1, num_requests=num_requests, seed=0, policy="fastest-idle")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 * 1024, peaks


@pytest.mark.parametrize("pick_fastest", [True, False], ids=["fastest", "slowest"])
@pytest.mark.parametrize("rates", [
    pytest.param([2.0] * 4, id="one_class"),
    pytest.param([1.0, 2.0, 2.0, 4.0, 8.0], id="four_classes"),
])
def test_block_edges_change_no_time(rates, pick_fastest):
    """One request per block serves the queue exactly as one block does.

    At 99% load most requests queue, so most block edges fall inside a busy
    period, where the start time and the heaps must carry over. Times on a
    grid of quarters over power-of-two rates tie often; only a tie makes a
    request start later than both its arrival and its server's free-at time.
    """
    rng = np.random.default_rng(12)
    n = 3_000
    arrivals = np.floor(np.cumsum(rng.exponential(1.0 / (0.99 * sum(rates)), size=n)) * 4) / 4
    unit_service = np.round(rng.exponential(1.0, size=n) * 4) / 4
    want = joined(oracle._serve([arrivals], [unit_service], rates, pick_fastest))
    got = joined(oracle._serve(np.split(arrivals, n), np.split(unit_service, n), rates,
                               pick_fastest))
    assert np.count_nonzero(want[1] > arrivals) > n // 2
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


class _FixedDraws:
    """Stands in for a numpy Generator: hands out preset exponential draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def exponential(self, scale, size):
        taken, self.draws = self.draws[:size], self.draws[size:]
        return scale * np.array(taken, dtype=float)


@pytest.mark.parametrize("pick_fastest", [True, False])
def test_tied_completions_count_as_idle(monkeypatch, pick_fastest):
    """Three servers all free up at exactly t=2 while requests queue from t=1.

    Request 3 starts at 2.0 on the fastest (or slowest) of them. Request 4
    arrives at 1.5 and must also start at 2.0, on the next of the tied
    servers: the two left idle at 2.0 do not make it start at its arrival.
    """
    gaps = [1.0, 0.0, 0.0, 0.0, 0.5, 3.0]
    units = [4.0, 2.0, 1.0, 4.0, 2.0, 1.0]  # 1 s on rates 4, 2, 1 in turn
    rates = [1.0, 2.0, 4.0]
    results = []
    for kernel in (scan_reference, shared_queue):
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: _FixedDraws(gaps + (units if pick_fastest
                                                             else units[::-1])))
        results.append(kernel(1.0, rates, len(gaps), 0, pick_fastest))
    want, got = results
    assert want[1].tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 4.5]
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


@pytest.mark.parametrize("pick_fastest", [True, False], ids=["fastest", "slowest"])
def test_tied_classes_while_every_server_is_busy(monkeypatch, pick_fastest):
    """Rates 1, 1 and 2: a rate-1 and the rate-2 server both free up at t=2.

    Requests 0-2 take every server at t=0; requests 3 and 4 queue and start
    at 2.0, the first on the tied rate the policy prefers, the second on the
    other one. The rate-1 server free at 3 is never used by them.
    """
    gaps = [0.0, 0.0, 0.0, 0.5, 0.1]
    # at t=0 the policy fills rates 2, 1, 1 (fastest) or 1, 1, 2 (slowest)
    units = [4.0, 2.0, 3.0, 1.0, 1.0] if pick_fastest else [2.0, 3.0, 4.0, 1.0, 1.0]
    rates = [1.0, 1.0, 2.0]
    results = []
    for kernel in (scan_reference, shared_queue):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraws(gaps + units))
        results.append(kernel(1.0, rates, len(gaps), 0, pick_fastest))
    want, got = results
    assert want[1].tolist() == [0.0, 0.0, 0.0, 2.0, 2.0]
    assert want[2].tolist()[3:] == ([2.5, 3.0] if pick_fastest else [3.0, 2.5])
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


@pytest.mark.parametrize("pick_fastest", [True, False], ids=["fastest", "slowest"])
def test_zero_service_time_leaves_the_server_idle(monkeypatch, pick_fastest):
    # a one-server class (rate 2) and a two-server class (rate 1): each gets
    # a zero service time and is the policy's pick again for the next request
    gaps = [1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.25]
    units = [0.0, 1.0, 0.0, 3.0, 2.0, 1.0, 1.0]
    rates = [1.0, 1.0, 2.0]
    results = []
    for kernel in (scan_reference, shared_queue):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedDraws(gaps + units))
        results.append(kernel(1.0, rates, len(gaps), 0, pick_fastest))
    want, got = results
    assert want[2][0] == want[1][0] == 1.0 and want[2][2] == want[1][2] == 1.5
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


@pytest.mark.parametrize("pick_fastest", [True, False], ids=["fastest", "slowest"])
@pytest.mark.parametrize("distinct", [20, 60])
def test_many_distinct_rates_equal_scan(distinct, pick_fastest):
    rates = sorted(np.random.default_rng(distinct).uniform(0.5, 20.0, size=distinct).tolist())
    assert len(set(rates)) == distinct
    n = oracle.BLOCK + 2 * oracle.SLICE + 37  # a block edge and slice edges
    want = scan_reference(0.95 * sum(rates), rates, n, 6, pick_fastest)
    got = shared_queue(0.95 * sum(rates), rates, n, 6, pick_fastest)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


@pytest.mark.parametrize("pick_fastest", [True, False], ids=["fastest", "slowest"])
def test_rates_apart_in_the_last_bit_are_separate_classes(pick_fastest):
    rates = sorted([0.1 + 0.2, 0.3])
    assert rates[0] < rates[1] and math.nextafter(rates[0], 1.0) == rates[1]
    n = oracle.BLOCK + 2 * oracle.SLICE + 37  # a block edge and slice edges
    lam = 0.7 * sum(rates)
    want = scan_reference(lam, rates, n, 8, pick_fastest)
    got = shared_queue(lam, rates, n, 8, pick_fastest)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
    # taken as one class, the pool would complete requests at other times
    merged = shared_queue(lam, [rates[0]] * 2, n, 8, pick_fastest)
    assert not np.array_equal(want[2], merged[2])


SERVICES = {
    "exponential": lambda mu: {"distribution": "exponential", "rate": mu},
    "deterministic": lambda mu: {"distribution": "deterministic", "rate": mu},
    "empirical": lambda mu: {"distribution": "empirical", "rate": mu,
                             "samples": [0.2 / mu, 0.5 / mu, 1.0 / mu, 3.3 / mu]},
}
MEAN_SERVICE = {"exponential": 1.0, "deterministic": 1.0, "empirical": 1.25}  # times 1/mu


def _fixed_pools(count, seed):
    """Seeded random pools: 1-6 containers at CPU fractions 0.4-1.0, some repeated."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        kind = tuple(SERVICES)[k % 3]
        fractions = rng.uniform(0.4, 1.0, size=int(rng.integers(1, 7)))
        if k % 2:
            fractions = np.round(fractions, 1)
        yield pytest.param(kind, fractions.tolist(), float(rng.choice([1.0, 10.0])),
                           float(rng.uniform(0.3, 0.95)), id=f"{kind}-{k}")


@pytest.mark.parametrize("kind, fractions, mu, load", _fixed_pools(30, seed=14))
def test_simulator_matches_the_kernel_bit_for_bit(kind, fractions, mu, load):
    """A fixed pool under worst_case dispatch is the kernel's slowest-idle queue.

    One function, no controller and no cold start: every dispatch and
    completion time of the simulator equals the kernel's when the kernel is
    fed the function's arrivals and service draws, with the containers'
    multipliers as rates.
    """
    def scenario(lam, horizon):
        fn = basic_function(rate=lam, mu=mu, initial=fractions,
                            service=SERVICES[kind](mu), cold_start_seconds=0.0)
        return make_scenario([fn], horizon=horizon, dispatch="worst_case",
                             controller={"epoch_seconds": 2 * horizon})

    profile = scenario(1.0, 1.0).functions["f1"].profile
    rates = [profile.multiplier(f) for f in fractions]
    lam = load * sum(rates) * mu / MEAN_SERVICE[kind]
    sim = Simulation(scenario(lam, 2_000 / lam))
    rt = sim.functions["f1"]
    draws = _FnRuntime(spec=rt.spec, arrivals=rt.arrivals,
                       service_rng=copy.deepcopy(rt.service_rng), estimator=None)
    requests = sim.run().requests
    assert sorted(c.multiplier for c in sim.cluster.containers.values()) == sorted(rates)

    unit_service = []
    while len(unit_service) < len(rt.arrivals):
        draws.refill_draws()
        unit_service += draws.draws
    # in ragged blocks, so the queue's state carries over block edges
    cuts = [1, 700, 1_500]
    _, starts, completions = joined(oracle._serve(
        np.split(rt.arrivals, cuts), np.split(np.array(unit_service[:len(rt.arrivals)]), cuts),
        rates, pick_fastest=False))

    horizon = sim.horizon
    assert len(requests) == len(rt.arrivals) > 1_000
    served = [r for r in requests if r.status == "completed"]
    assert len(served) > 0.9 * len(requests)
    for r, start, done in zip(requests, starts.tolist(), completions.tolist()):
        if r.status == "completed":
            assert (r.dispatch, r.completion) == (start, done)
        elif r.container_id >= 0:  # in service at the horizon
            assert r.dispatch == start and done > horizon
        else:
            assert r.status == "inflight" and start > horizon
