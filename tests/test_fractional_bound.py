"""The fractional lower bound over arrays of demands.

An array call bisects every demand at once; each demand keeps its own
bracket and the scalar branch rules, so it must price each demand exactly
as a one-element call does, on both families that have an inverse
marginal.
"""

import math

import numpy as np
import pytest

from mmcplace.costs import LinearCostModel, MmcBackendCostModel
from mmcplace.oracle import fractional_lower_bound_single_slot as bound

Y = 5.0        # MMC capacity; clouds 1..3 are MMCs, 4 the backend


def mmc():
    return MmcBackendCostModel(K=4, capacity=Y, backend_local_rate=3.0,
                               backend_migration_rate=3.0)


def linear():
    return LinearCostModel(np.array([0.0, 2.0, 1.5, 4.0, 1.5]), 0.0, 0.0,
                           1.0)


EDGES = [0.0, -1.0, -math.inf, Y, math.nextafter(Y, math.inf), Y + 1e-9,
         3 * Y, 3 * Y + 0.5, 40.0, 1e-300, math.inf]


@pytest.mark.parametrize("make", [mmc, linear])
def test_array_call_equals_one_element_calls(make):
    model = make()
    rng = np.random.default_rng(5)
    demands = np.concatenate([EDGES, rng.uniform(0.0, 25.0, 40)])
    got = bound(demands, model)
    assert isinstance(got, np.ndarray) and got.shape == demands.shape
    one = [bound(float(d), model) for d in demands]
    assert all(isinstance(b, float) for b in one)
    # bit for bit, inf included
    assert got.tolist() == one
    # and independent of the batch it comes in
    assert bound(demands[::-1], model).tolist() == one[::-1]


def _scalar_inv_marginal(model, k, mu, cap):
    """The inverse marginal of one cloud, as a scalar formula."""
    if isinstance(model, LinearCostModel):
        return cap if mu >= model.gamma[k] else 0.0
    if k == model.backend:
        return cap if mu >= model.g_backend else 0.0
    if mu < 1.0:
        return 0.0
    return min(cap, model.capacity * (1.0 - 1.0 / math.sqrt(mu)))


def _scalar_bound(total_demand, model):
    """The bound one demand at a time, scalar cost calls throughout: the
    reference the batched bisection must equal bit for bit."""
    if total_demand <= 0:
        return 0.0
    K, t = model.K, 1

    def cap(k):
        if math.isfinite(model.u(k, t, total_demand)):
            return total_demand
        return model.capacity * (1.0 - 1e-12)

    caps = [cap(k) for k in range(1, K + 1)]

    def alloc_one(k, mu):
        return min(_scalar_inv_marginal(model, k, mu, caps[k - 1]),
                   caps[k - 1])

    def alloc(mu):
        return sum(alloc_one(k, mu) for k in range(1, K + 1))

    lo_mu, hi_mu = 0.0, 1.0
    for _ in range(200):
        if alloc(hi_mu) >= total_demand:
            break
        hi_mu *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo_mu + hi_mu)
        if alloc(mid) >= total_demand:
            hi_mu = mid
        else:
            lo_mu = mid
    ys = np.array([alloc_one(k, hi_mu) for k in range(1, K + 1)])
    excess = ys.sum() - total_demand
    if excess > 0:
        lower = np.array([alloc_one(k, lo_mu) for k in range(1, K + 1)])
        slack = ys - lower
        if slack.sum() > 0:
            ys = ys - slack * (excess / slack.sum())
    elif ys.sum() < total_demand * (1 - 1e-6):
        return math.inf
    ys = np.clip(ys, 0.0, None)
    if ys.sum() > 0:
        ys *= total_demand / ys.sum()
    return float(sum(model.u(k, t, float(ys[k - 1]))
                     for k in range(1, K + 1)))


@pytest.mark.parametrize("K", [2, 5, 8, 12])
@pytest.mark.parametrize("family", ["mmc", "linear"])
def test_array_call_equals_the_scalar_reference(K, family):
    """At K >= 8 numpy's pairwise sum of a split's K loads differs from a
    cloud-order sum; the batched bound sums them as the reference does."""
    rng = np.random.default_rng(K)
    if family == "mmc":
        model = MmcBackendCostModel(K=K, capacity=Y, backend_local_rate=3.0,
                                    backend_migration_rate=3.0)
    else:
        model = LinearCostModel(
            np.concatenate([[0.0], rng.uniform(0.5, 4.0, K)]), 0.0, 0.0, 1.0)
    demands = np.concatenate([EDGES[:-1], rng.uniform(0.0, 8.0 * K, 60)])
    assert bound(demands, model).tolist() == [
        _scalar_bound(float(d), model) for d in demands]


@pytest.mark.parametrize("make", [mmc, linear])
def test_edge_demands(make):
    model = make()
    assert bound(0.0, model) == 0.0
    assert bound(-1.0, model) == 0.0
    assert bound(math.inf, model) == math.inf
    assert bound(np.array([]), model).shape == (0,)
    for d in (Y, Y + 1e-9, 3 * Y + 0.5):
        assert 0.0 < bound(d, model) < math.inf


def test_mmc_load_above_total_capacity_spills_to_the_backend():
    model = mmc()
    # past the load where the MMCs' marginal reaches the backend rate 3
    # (well below their total capacity 3Y), every extra unit goes to the
    # backend at rate 3
    full = bound(3 * Y, model)
    assert bound(3 * Y + 2.0, model) == pytest.approx(full + 2 * 3.0,
                                                      rel=1e-9)


def test_linear_takes_the_cheapest_clouds():
    # clouds 2 and 4 tie at the lowest rate, 1.5
    assert bound(np.array([2.0, 8.0]), linear()).tolist() == pytest.approx(
        [3.0, 12.0])


@pytest.mark.parametrize("demand", [math.nan, [1.0, math.nan]])
def test_nan_demand_raises(demand):
    with pytest.raises(ValueError):
        bound(demand if np.isscalar(demand) else np.array(demand), mmc())


def test_two_dimensional_demand_raises():
    with pytest.raises(ValueError):
        bound(np.ones((2, 2)), mmc())
