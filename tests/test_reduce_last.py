"""reduce_last against numpy's axis reductions, and the alpha-separation
membership lookup against np.isin."""
import itertools

import numpy as np
import pytest

from costbench.costs import TIE_EPS, CostMatrix, reduce_last, simplex_grid
from costbench.embedding import (
    build_embedding_surrogate,
    link_many,
    sample_predictions,
    verify_alpha_separation,
)

# inf - inf in a sum is NaN, as the test expects.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _inputs(shape, rng, transposed=False):
    """Normal draws with a fifth of the entries replaced by +-0, +-inf or NaN,
    and some rows made all +0.0 or all -0.0. transposed gives a rank-3 shape
    (b, n, k) as the transposed view of a C-order (b, k, n) array, the view
    dist_to_optimal_set reduces."""
    if transposed:
        b, n, k = shape
        x = rng.normal(scale=10.0, size=(b, k, n)).transpose(0, 2, 1)
    else:
        x = rng.normal(scale=10.0, size=shape)
    special = rng.random(shape) < 0.2
    x[special] = rng.choice(SPECIAL, size=int(special.sum()))
    for row in itertools.product(*map(range, shape[:-1])):
        if rng.random() < 0.3:
            x[row] = rng.choice([0.0, -0.0])
    return x


SHAPES = [(w,) for w in range(1, 10)] + [(6, w) for w in range(1, 10)] + \
    [(3, 5, w) for w in range(1, 10)]


@pytest.mark.parametrize("shape", SHAPES)
def test_reduce_last_max_and_min_are_bit_equal_to_numpy(shape, rng):
    for _ in range(20):
        for transposed in (False, True) if len(shape) == 3 else (False,):
            x = _inputs(shape, rng, transposed)
            for ufunc in (np.maximum, np.minimum):
                got = np.asarray(reduce_last(ufunc, x))
                want = ufunc.reduce(x, axis=-1)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", SHAPES)
def test_reduce_last_add_is_bit_equal_on_c_order_rows_but_for_zero_sums(shape, rng):
    for _ in range(20):
        x = _inputs(shape, rng)
        got = np.asarray(reduce_last(np.add, x))
        want = np.add.reduce(x, axis=-1)
        assert got.shape == want.shape
        same = got.view(np.int64) == want.view(np.int64)
        # The one difference: a row of zeros, all -0.0 or mixed, summed left to
        # right can give -0.0 where numpy's sum gives +0.0.
        rows = x.reshape(-1, shape[-1])[~same.reshape(-1)]
        assert (rows == 0.0).all()
        assert np.signbit(got[~same]).all() and not np.signbit(want[~same]).any()


def test_reduce_last_add_keeps_minus_zero_of_an_all_minus_zero_row():
    x = np.full((2, 3), -0.0)
    assert np.signbit(reduce_last(np.add, x)).all()
    assert not np.signbit(np.add.reduce(x, axis=-1)).any()


def test_membership_lookup_matches_isin():
    # Reports 0 and 2 share a cost row, so report_class is not the identity.
    s = build_embedding_surrogate(CostMatrix([[0, 5], [1, 0], [0, 5], [.5, .5]]))
    assert s.report_class == (0, 1, 0, 3)
    report_class = np.asarray(s.report_class)
    psi_class = report_class[link_many(s, sample_predictions(s, 500, np.random.default_rng(0)))]
    assert set(psi_class.tolist()) == {0, 1, 3}
    for n in range(1, 4):
        for classes in itertools.combinations((0, 1, 3), n):
            member = np.zeros(len(report_class), bool)
            member[list(classes)] = True
            assert np.array_equal(~member[psi_class], ~np.isin(psi_class, classes))


def test_alpha_separation_counts_every_mislinked_pair_with_duplicate_rows():
    # n_checked counts the (grid point, sample) pairs whose linked class is
    # not optimal at the grid point; here it is counted pair by pair.
    s = build_embedding_surrogate(CostMatrix([[0, 5], [1, 0], [0, 5], [.5, .5]]))
    res, n_u = 0.05, 300
    rep = verify_alpha_separation(s, res, n_u, rng_seed=3)
    U = sample_predictions(s, n_u, np.random.default_rng(3))
    psi_class = [s.report_class[r] for r in link_many(s, U).tolist()]
    want = 0
    for p in simplex_grid(2, res):
        costs = s.cost.entries @ p
        optimal = {s.report_class[r] for r in np.flatnonzero(costs <= costs.min() + TIE_EPS)}
        want += sum(c not in optimal for c in psi_class)
    assert rep.n_checked == want > 0
