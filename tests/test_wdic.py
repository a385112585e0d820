import dataclasses
import math

import numpy as np
import pytest

from helpers import (
    penalty_pwd,
    per_draw_logliks,
    reference_list_metropolis,
    reference_metropolis,
    reference_mode,
    reference_penalty,
    traced_peak,
)
from wentropy.errors import (
    DimensionMismatchError,
    EmptyDrawsError,
    OutOfSupportError,
    ZeroAcceptanceError,
)
from wentropy.wdic import (
    _BLOCK_POINTS,
    ModelSpec,
    PosteriorDraws,
    SamplerConfig,
    WeightedDataset,
    builtin_model,
    default_log_prior,
    metropolis_sample,
    normal_mean_model,
    normal_model,
    posterior_point_estimate,
    wdic,
    weighted_deviance,
    weighted_loglik,
    _penalty,
    _weighted_logliks,
)

MODEL = normal_mean_model(1.0)


def make_data(rng, n=30, mean=0.5, weights=None):
    y = rng.normal(mean, 1.0, size=(n, 1))
    if weights is None:
        weights = np.ones(n)
    return WeightedDataset(y, weights)


def normal_logpdf(y, mu, sd=1.0):
    return -0.5 * math.log(2 * math.pi * sd * sd) - (y - mu) ** 2 / (2 * sd * sd)


def conjugate_draws(rng, data, prior_var=100.0, size=4000):
    # exact posterior for the unit-variance normal-mean model
    n = data.n
    post_var = 1.0 / (n + 1.0 / prior_var)
    post_mean = post_var * data.y[:, 0].sum()
    return (
        PosteriorDraws(
            rng.normal(post_mean, math.sqrt(post_var), size=(size, 1)),
            provenance="conjugate",
        ),
        post_mean,
        post_var,
    )


def test_dataset_validation():
    with pytest.raises(ValueError):
        WeightedDataset([[0.0]], [-1.0])
    with pytest.raises(Exception):
        WeightedDataset([[0.0], [1.0]], [1.0])
    data = WeightedDataset([[0.0, 1.0], [1.0, 2.0]], [1.0, 1.0])
    for center in (math.nan, math.inf):
        with pytest.raises(ValueError, match="centers contains non-finite entries"):
            data.with_central_weights([0.5, center])


@pytest.mark.parametrize(
    "y, weights", [(np.zeros((0, 1)), np.zeros(0)), (np.zeros((3, 0)), np.ones(3)), ([], [1.0])],
    ids=["no-rows", "no-columns", "empty-list"],
)
def test_dataset_refuses_zero_rows_or_columns(y, weights):
    # refused when built, not as a division by n = 0 in the scoring or a summary
    with pytest.raises(ValueError, match="at least one row and one column, got shape"):
        WeightedDataset(y, weights)


def test_weighted_loglik_unit_weights_is_standard():
    rng = np.random.default_rng(0)
    data = make_data(rng)
    theta = np.array([0.2])
    standard = float(np.sum(normal_logpdf(data.y[:, 0], 0.2)))
    assert weighted_loglik(MODEL, theta, data) == pytest.approx(standard, abs=1e-12)


def test_weighted_loglik_zero_weights_and_linearity():
    rng = np.random.default_rng(1)
    zero = make_data(rng, weights=np.zeros(30))
    assert weighted_loglik(MODEL, [0.1], zero) == 0.0
    w = np.abs(rng.normal(size=30))
    data = WeightedDataset(zero.y, w)
    doubled = WeightedDataset(zero.y, 2 * w)
    assert weighted_loglik(MODEL, [0.1], doubled) == pytest.approx(
        2 * weighted_loglik(MODEL, [0.1], data), rel=1e-14
    )


def test_weighted_deviance_single_datum():
    data = WeightedDataset([[0.0]], [1.0])
    assert weighted_deviance(MODEL, [0.0], data) == pytest.approx(
        math.log(2 * math.pi), abs=1e-14
    )


def test_weighted_deviance_center_weight_kills_datum():
    data = WeightedDataset([[1.0], [2.0]], [1.0, 1.0]).with_central_weights([1.0])
    assert data.weights[0] == 0.0
    dev = weighted_deviance(MODEL, [0.0], data)
    assert dev == pytest.approx(-2.0 * 1.0 * normal_logpdf(2.0, 0.0), abs=1e-12)


def test_weighted_deviance_linear_in_weights():
    rng = np.random.default_rng(2)
    y = rng.normal(size=(20, 1))
    w1 = np.abs(rng.normal(size=20))
    w2 = np.abs(rng.normal(size=20))
    for lam in (0.0, 0.25, 1.0):
        mix = WeightedDataset(y, lam * w1 + (1 - lam) * w2)
        expected = lam * weighted_deviance(
            MODEL, [0.3], WeightedDataset(y, w1)
        ) + (1 - lam) * weighted_deviance(MODEL, [0.3], WeightedDataset(y, w2))
        assert weighted_deviance(MODEL, [0.3], mix) == pytest.approx(expected, rel=1e-12)


def test_out_of_support_error():
    def logd(y, theta):
        inside = (y[:, 0] >= 0.0) & (y[:, 0] <= 1.0)
        return np.where(inside, 0.0, -np.inf)

    uniform01 = ModelSpec("uniform01", logd, ((-1.0, 1.0),))
    bad = WeightedDataset([[0.5], [2.0]], [1.0, 1.0])
    with pytest.raises(OutOfSupportError):
        weighted_loglik(uniform01, [0.0], bad)
    ignored = WeightedDataset([[0.5], [2.0]], [1.0, 0.0])
    assert weighted_loglik(uniform01, [0.0], ignored) == 0.0


def test_only_minus_inf_is_zero_density():
    # -1000 lies below the log of the smallest positive double, but it is a
    # finite log density: under positive weight it is scored, not refused
    def logd(y, theta):
        deep = np.where(y[:, 0] > 1.0, -1000.0 - theta[0] ** 2, -0.5 * theta[0] ** 2)
        return np.where(y[:, 0] < -1.0, -np.inf, deep)

    model = ModelSpec("deep-tail", logd, ((-2.0, 2.0),))
    data = WeightedDataset([[2.0], [0.0], [-2.0]], [1.5, 1.0, 0.0])
    assert weighted_loglik(model, [0.5], data) == 1.5 * -1000.25 + 1.0 * -0.125
    # -inf at weight 0 still contributes 0, on the masked path and per draw
    thetas = np.linspace(-2.0, 2.0, 9)[:, None]
    assert np.array_equal(_weighted_logliks(model, thetas, data), per_draw_logliks(model, thetas, data))
    finite = WeightedDataset([[2.0], [0.0]], [1.5, 1.0])  # the all-finite fast path
    assert np.array_equal(_weighted_logliks(model, thetas, finite), per_draw_logliks(model, thetas, finite))
    with pytest.raises(OutOfSupportError, match="observation 2 has zero density"):
        weighted_loglik(model, [0.5], WeightedDataset([[2.0], [0.0], [-2.0]], [1.5, 1.0, 0.5]))


def test_penalty_identical_draws_is_zero():
    rng = np.random.default_rng(3)
    data = make_data(rng)
    draws = PosteriorDraws(np.full((150, 1), 0.4), provenance="degenerate")
    assert penalty_pwd(MODEL, draws, [0.4], data) == 0.0
    with pytest.raises(EmptyDrawsError):
        PosteriorDraws(np.zeros((5, 1)), provenance="too-few")


def test_penalty_zero_weights():
    rng = np.random.default_rng(4)
    data = make_data(rng, weights=np.zeros(30))
    draws = PosteriorDraws(rng.normal(size=(200, 1)) * 0.01, provenance="x")
    assert penalty_pwd(MODEL, draws, [0.0], data) == 0.0


def test_penalty_conjugate_effective_parameters_near_one():
    rng = np.random.default_rng(5)
    data = make_data(rng, n=50)
    draws, post_mean, _ = conjugate_draws(rng, data, size=8000)
    theta_hat = posterior_point_estimate(MODEL, draws, data, "mean")
    pwd = penalty_pwd(MODEL, draws, theta_hat, data)
    devs = np.array([weighted_deviance(MODEL, th, data) for th in draws.draws])
    se = float(np.std(devs, ddof=1) / math.sqrt(draws.draws.shape[0]))
    assert abs(pwd - 1.0) <= 3 * se


def test_wdic_unit_weights_equals_classical_dic():
    rng = np.random.default_rng(6)
    data = make_data(rng, n=40)
    draws, _, _ = conjugate_draws(rng, data, size=1000)
    result = wdic(MODEL, draws, data)
    # independent classical DIC from hand-written densities (sorted-mean
    # reductions mirror the package's documented draw-order policy)
    devs = np.sort(
        np.array(
            [-2 * np.sum(normal_logpdf(data.y[:, 0], th[0])) for th in draws.draws]
        )
    )
    theta_bar = float(np.mean(np.sort(draws.draws[:, 0])))
    dev_hat = -2 * float(np.sum(normal_logpdf(data.y[:, 0], theta_bar)))
    pd_classic = float(np.mean(devs)) - dev_hat
    dic = dev_hat + 2 * pd_classic
    assert result.dev_at_hat == dev_hat
    assert result.pwd == pytest.approx(pd_classic, abs=1e-12)
    assert result.wdic == pytest.approx(dic, abs=1e-12)


def test_wdic_degenerate_posterior():
    rng = np.random.default_rng(7)
    data = make_data(rng)
    draws = PosteriorDraws(np.full((120, 1), 0.3), provenance="degenerate")
    result = wdic(MODEL, draws, data)
    assert result.pwd == 0.0
    assert result.wdic == result.dev_at_hat
    assert result.pwd_mcse == 0.0
    assert result.ess == 120


def test_wdic_penalty_mcse_and_ess():
    rng = np.random.default_rng(13)
    data = make_data(rng, n=50)
    draws, _, _ = conjugate_draws(rng, data, size=4000)
    iid, n = wdic(MODEL, draws, data), draws.draws.shape[0]
    assert 0.5 * n <= iid.ess <= 1.5 * n
    diffs = per_draw_logliks(MODEL, draws.draws, data) * -2.0 - iid.dev_at_hat
    naive_se = float(np.std(diffs, ddof=1)) / math.sqrt(n)
    assert iid.pwd_mcse == pytest.approx(naive_se * math.sqrt(n / iid.ess))
    # a random walk with tiny steps: neighbouring draws are nearly identical
    cfg = SamplerConfig(steps=600, burn_in=100, step_size=1e-6, seed=5)
    walk = metropolis_sample(MODEL, default_log_prior(MODEL), data, cfg)
    assert wdic(MODEL, walk, data).ess < walk.draws.shape[0] / 10


def _with_holes(model: ModelSpec) -> ModelSpec:
    """``model`` with zero density at observation 0 under every draw whose
    second parameter is 2.0."""

    def log_density(y, theta):
        hole = (np.arange(y.shape[0]) == 0) & (theta[1] == 2.0)
        return np.where(hole, -np.inf, model.log_density(y, theta))

    return ModelSpec(model.name + "-holes", log_density, model.bounds)


@pytest.mark.parametrize("n_obs", [1, 7, 129, 200, 1000])
@pytest.mark.parametrize(
    "model, holes",
    [(MODEL, False), (normal_model(), False), (normal_model(), True)],
    ids=["normal-mean", "normal", "normal-holes"],
)
def test_blocked_logliks_match_per_draw_loop(model, holes, n_obs):
    rng = np.random.default_rng(n_obs)
    y = rng.normal(0.4, 1.3, size=(n_obs, 1))
    weights = np.where(rng.random(n_obs) < 0.2, 0.0, rng.exponential(size=n_obs))
    # several full blocks plus a remainder, where n_obs leaves room for them
    size = min(2 * max(1, _BLOCK_POINTS // n_obs) + 3, 3000)
    thetas = np.column_stack(
        [rng.normal(0.4, 0.5, size), rng.uniform(-1.0, 1.0, size)]
    )[:, : model.n_params]
    if holes:
        # the first two draws give weight-0 observation 0 zero density: the
        # first block takes the masked path, every later one the all-live path
        model = _with_holes(model)
        weights[0] = 0.0
        thetas[:2, 1] = 2.0
    data = WeightedDataset(y, weights)
    blocked = _weighted_logliks(model, thetas, data)
    assert np.array_equal(blocked, per_draw_logliks(model, thetas, data))
    assert np.array_equal(
        -2.0 * blocked, [weighted_deviance(model, th, data) for th in thetas]
    )


def test_penalty_out_of_support_in_later_block():
    def logd(y, theta):
        return np.where(np.abs(y[:, 0] - theta[0]) <= 1.0, 0.0, -np.inf)

    window = ModelSpec("window", logd, ((-2.0, 2.0),))
    data = WeightedDataset(np.linspace(-0.5, 0.5, 200)[:, None], np.ones(200))
    arr = np.zeros((300, 1))
    arr[250, 0] = 0.9  # observations below -0.1 fall outside; 4th block of 81 draws
    with pytest.raises(OutOfSupportError) as single:
        weighted_loglik(window, arr[250], data)
    with pytest.raises(OutOfSupportError) as blocked:
        penalty_pwd(window, PosteriorDraws(arr, provenance="x"), [0.0], data)
    assert str(blocked.value) == str(single.value)
    assert "observation 0 " in str(single.value)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_log_density_is_an_input_error(value):
    def logd(y, theta):
        return np.where(y[:, 0] > theta[0] + 1.5, value, -0.5 * (y[:, 0] - theta[0]) ** 2)

    model = ModelSpec("bad-tail", logd, ((-2.0, 2.0),))
    y = np.linspace(-1.0, 1.0, 200)[:, None]
    arr = np.zeros((150, 1))
    arr[140, 0] = -0.7  # in the second block; observations 180.. lie in the bad tail
    draws = PosteriorDraws(arr, provenance="x")
    with pytest.raises(ValueError, match=rf"^draw 140: log density {value!r} at observation 180 "):
        wdic(model, draws, WeightedDataset(y, np.ones(200)))
    # a weight-0 observation contributes 0 whatever its log density
    ignored = WeightedDataset(y, np.where(y[:, 0] > 0.8, 0.0, 1.0))
    assert math.isfinite(wdic(model, draws, ignored).wdic)

    # one bad value in a block whose every other log density is finite, after
    # an all-finite block: 150 distinct draws make blocks of 81 and 69
    def lone(y, theta):
        bad = (np.arange(y.shape[0]) == 180) & (theta[0] == -0.7)
        return np.where(bad, value, -0.5 * (y[:, 0] - theta[0]) ** 2)

    distinct = np.linspace(-1.0, 1.0, 150)[:, None]
    distinct[140, 0] = -0.7
    lone_model = ModelSpec("lone", lone, ((-2.0, 2.0),))
    with pytest.raises(ValueError, match=rf"^draw 140: log density {value!r} at observation 180 "):
        wdic(lone_model, PosteriorDraws(distinct, provenance="x"), WeightedDataset(y, np.ones(200)))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_log_density_inside_a_run_names_its_first_draw(value):
    def logd(y, theta):
        return np.where(y[:, 0] > theta[0] + 1.5, value, -0.5 * (y[:, 0] - theta[0]) ** 2)

    model = ModelSpec("bad-tail", logd, ((-2.0, 2.0),))
    y = np.linspace(-1.0, 1.0, 200)[:, None]
    arr = np.zeros((300, 1))
    arr[140:146, 0] = -0.7  # one run of six bad draws
    arr[200:260, 0] = -0.7  # the same bad draw again, later
    draws = PosteriorDraws(arr, provenance="x")
    with pytest.raises(ValueError, match=rf"^draw 140: log density {value!r} at observation 180 "):
        wdic(model, draws, WeightedDataset(y, np.ones(200)))


def test_penalty_scores_runs_as_every_draw_bit_for_bit():
    rng = np.random.default_rng(60)
    data = WeightedDataset(rng.normal(0.4, 1.3, size=(150, 1)), rng.exponential(size=150))

    def signed(y, theta):  # tells -0.0 from 0.0, as a run must
        return -0.5 * (y[:, 0] - theta[0]) ** 2 + np.copysign(0.25, theta[0])

    cases = [
        (normal_model(), np.column_stack([rng.normal(0.4, 0.1, 40), rng.normal(0.2, 0.1, 40)])),
        (MODEL, rng.normal(0.4, 0.1, (40, 1))),
        (ModelSpec("signed", signed, ((-2.0, 2.0),)), np.array([[0.0], [-0.0], [0.3]] * 14)),
    ]
    for model, distinct in cases:
        # long runs, repeats that are not consecutive, and a reordering of both
        runs = np.repeat(distinct, rng.integers(1, 60, size=distinct.shape[0]), axis=0)
        arr = np.concatenate([runs, runs[::7], distinct[::-1], runs[rng.permutation(runs.shape[0])]])
        if model.n_params == 2:  # one parameter moves while the other repeats
            arr[5:25] = [[0.3 + 0.01 * k, 0.2] for k in range(20)]
        dev_at_hat = weighted_deviance(model, arr[0], data)
        got = _penalty(model, PosteriorDraws(arr, provenance="runs"), dev_at_hat, data)
        want = reference_penalty(per_draw_logliks(model, arr, data), dev_at_hat)
        assert [v.hex() for v in got] == [v.hex() for v in want], model.name


@pytest.mark.parametrize("name", ["normal-mean", "normal-mean-sd2", "normal"])
def test_summarize_matches_the_per_row_sum(name):
    model = builtin_model(name)
    rng = np.random.default_rng(61)
    for n in (1, 2, 60, 1000):
        y = rng.normal(rng.uniform(-3.0, 3.0), rng.uniform(0.3, 3.0), size=(n, 1))
        loglik = model.summarize(y)
        for k in range(200):
            theta = [rng.uniform(-50.0, 50.0) if k % 3 == 0 else rng.normal(y.mean(), 2.0)]
            if model.n_params == 2:  # at both log-sd bounds and inside them
                theta.append((-5.0, 5.0, rng.uniform(-5.0, 5.0))[k % 3])
            rows = float(np.asarray(model.log_density(y, np.array(theta))).sum())
            assert loglik(theta) == pytest.approx(rows, rel=1e-13, abs=0.0), (n, theta)


@pytest.mark.parametrize("name", ["normal-mean", "normal-mean-sd2", "normal"])
def test_sampler_with_summarize_matches_the_per_row_path(name):
    model = builtin_model(name)
    per_row = dataclasses.replace(model, summarize=None)
    prior = default_log_prior(model, 10.0)
    for n, step_size, seed in [(1, 2.0, 1), (30, 0.4, 2), (200, 0.05, 3), (200, 0.4, 4)]:
        rng = np.random.default_rng(seed)
        data = WeightedDataset(rng.normal(0.3, 1.2, size=(n, 1)), np.ones(n))
        cfg = SamplerConfig(3000, 500, step_size, seed)
        fast = metropolis_sample(model, prior, data, cfg)
        slow = metropolis_sample(per_row, prior, data, cfg)
        assert np.array_equal(fast.draws, slow.draws)
        assert fast.acceptance_rate == slow.acceptance_rate
        assert np.allclose(fast.log_posts, slow.log_posts, rtol=1e-13, atol=0.0)


def test_wdic_invariant_under_draw_reordering():
    rng = np.random.default_rng(8)
    data = make_data(rng)
    arr = rng.normal(0.5, 0.2, size=(500, 1))
    forward = wdic(MODEL, PosteriorDraws(arr, provenance="a"), data)
    perm = rng.permutation(500)
    backward = wdic(MODEL, PosteriorDraws(arr[perm], provenance="b"), data)
    assert forward.wdic == backward.wdic
    assert forward.pwd == backward.pwd
    assert np.array_equal(forward.theta_hat, backward.theta_hat)


def test_wdic_mode_rule_picks_highest_scoring_draw():
    rng = np.random.default_rng(9)
    data = make_data(rng, n=40, mean=1.0)
    draws, post_mean, _ = conjugate_draws(rng, data, size=500)
    theta_mode = posterior_point_estimate(MODEL, draws, data, "mode")
    scores = [float(np.sum(normal_logpdf(data.y[:, 0], th[0]))) for th in draws.draws]
    assert float(theta_mode[0]) == draws.draws[int(np.argmax(scores)), 0]
    # the normal model over many blocks: same draw as per-draw scoring
    model = normal_model()
    wide = make_data(rng, n=1000, mean=1.0)
    arr = np.column_stack([rng.normal(1.0, 0.05, 300), rng.normal(0.0, 0.05, 300)])
    scores = per_draw_logliks(model, arr, WeightedDataset(wide.y, np.ones(wide.n)))
    picked = posterior_point_estimate(model, PosteriorDraws(arr, provenance="x"), wide, "mode")
    assert np.array_equal(picked, arr[int(np.argmax(scores))])


def _mode_of(arr, log_posts):
    draws = PosteriorDraws(arr, provenance="x", log_posts=log_posts)
    return posterior_point_estimate(normal_model(), draws, None, "mode")


def test_mode_rule_breaks_ties_as_the_reference_max():
    rng = np.random.default_rng(10)
    # few distinct scores and few distinct values per column: many ties
    arr = np.column_stack([rng.choice([0.1, 0.2, 0.3], 400), rng.choice([-1.0, 0.5, 2.0], 400)])
    log_posts = rng.choice([-3.0, -2.0, -1.0], 400)
    for perm in (np.arange(400), np.arange(400)[::-1], rng.permutation(400), rng.permutation(400)):
        got = _mode_of(arr[perm], log_posts[perm])
        assert np.array_equal(got, reference_mode(arr[perm], log_posts[perm]))
        assert np.array_equal(got, [0.3, 2.0])  # the same draw whatever the order
    # all scores tied, -inf included: the parameter values decide
    for score in (0.0, -np.inf):
        flat = np.full(400, score)
        assert np.array_equal(_mode_of(arr, flat), reference_mode(arr, flat))


def test_mode_rule_ties_rows_that_differ_in_the_sign_of_a_zero():
    # -0.0 == 0.0, so these rows tie and the first one in draw order is picked
    for first, second in ((-0.0, 0.0), (0.0, -0.0)):
        arr = np.array([[0.5, 1.0], [first, 1.0], [second, 1.0], [0.5, 0.5]] * 30)
        arr[::4, 0] = 0.4
        log_posts = np.tile([-1.0, 0.0, 0.0, -1.0], 30)
        got = _mode_of(arr, log_posts)
        want = reference_mode(arr, log_posts)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert math.copysign(1.0, got[0]) == math.copysign(1.0, first)


def test_mode_rule_matches_the_reference_on_a_chain():
    # a random-walk chain repeats its state: equal draws and equal scores
    rng = np.random.default_rng(11)
    data = make_data(rng, n=50, mean=0.3)
    model = normal_model()
    draws = metropolis_sample(model, default_log_prior(model, 10.0), data, SamplerConfig(3000, 500, 0.3, 12))
    got = posterior_point_estimate(model, draws, data, "mode")
    assert np.array_equal(got, reference_mode(draws.draws, draws.log_posts))


def test_posterior_draws_refuse_nan_log_posts():
    arr = np.zeros((200, 1))
    log_posts = np.zeros(200)
    log_posts[57] = np.nan
    with pytest.raises(ValueError, match="log_posts must not be NaN"):
        PosteriorDraws(arr, provenance="x", log_posts=log_posts)
    log_posts[57] = -np.inf  # an infinite log posterior is still a score
    PosteriorDraws(arr, provenance="x", log_posts=log_posts)


def test_metropolis_recovers_conjugate_posterior():
    rng = np.random.default_rng(10)
    data = make_data(rng, n=50, mean=1.2)
    cfg = SamplerConfig(steps=22_000, burn_in=2_000, step_size=0.35, seed=77)
    draws = metropolis_sample(MODEL, default_log_prior(MODEL, 10.0), data, cfg)
    n = data.n
    prior_var = 100.0
    post_var = 1.0 / (n + 1.0 / prior_var)
    post_mean = post_var * data.y[:, 0].sum()
    assert abs(float(np.mean(draws.draws[:, 0])) - post_mean) <= 4 * math.sqrt(
        post_var / draws.draws.shape[0]
    ) * 10  # allow for autocorrelation of the walk
    assert 0.1 < draws.acceptance_rate < 0.9


def test_metropolis_determinism_and_tiny_steps():
    rng = np.random.default_rng(11)
    data = make_data(rng)
    cfg = SamplerConfig(steps=600, burn_in=100, step_size=1e-6, seed=5)
    a = metropolis_sample(MODEL, default_log_prior(MODEL), data, cfg)
    b = metropolis_sample(MODEL, default_log_prior(MODEL), data, cfg)
    assert np.array_equal(a.draws, b.draws)
    assert a.acceptance_rate == b.acceptance_rate
    assert a.acceptance_rate > 0.95  # proposal collapse accepts nearly everything


def test_metropolis_zero_acceptance_error():
    rng = np.random.default_rng(12)
    data = make_data(rng)
    cfg = SamplerConfig(steps=2000, burn_in=100, step_size=1e7, seed=3)
    with pytest.raises(ZeroAcceptanceError):
        metropolis_sample(MODEL, default_log_prior(MODEL), data, cfg)


def _tight_three_parameter_model():
    def log_density(y, theta):
        a, b, c = theta
        return -0.5 * (y[:, 0] - a - b * c) ** 2 - 0.5 * c * c

    # bounds tight against the step size: many proposals fall outside them
    return ModelSpec("tight-3", log_density, ((-0.2, 0.2), (-0.5, 0.5), (0.0, 1.0)))


@pytest.mark.parametrize("case", ["normal-mean", "normal-central-weights", "tight-3"])
def test_metropolis_matches_reference_loop(case):
    rng = np.random.default_rng(40)
    data = WeightedDataset(rng.normal(0.4, 1.3, size=(60, 1)), np.ones(60))
    if case == "normal-mean":
        model, cfg = MODEL, SamplerConfig(3000, 500, 0.4, 41)
    elif case == "normal-central-weights":
        model, cfg = normal_model(), SamplerConfig(3000, 500, 0.25, 42)
        data = data.with_central_weights([0.4])
    else:
        model, cfg = _tight_three_parameter_model(), SamplerConfig(3000, 500, 0.3, 43)
    prior = default_log_prior(model, 3.0)
    seen_density, seen_prior = [], []

    def recording_density(y, theta):
        seen_density.append(theta)
        return model.log_density(y, theta)

    def recording_prior(theta):
        seen_prior.append(theta)
        return prior(theta)

    recording = ModelSpec(model.name, recording_density, model.bounds)
    assert recording.summarize is None  # the per-row path, pinned to the reference loop
    got = metropolis_sample(recording, recording_prior, data, cfg)
    draws, log_posts, rate = reference_metropolis(model, prior, data, cfg)
    assert np.array_equal(got.draws, draws)
    assert np.array_equal(got.log_posts, log_posts)
    assert got.acceptance_rate == rate
    # both callables see the same fresh (p,) float64 array per scored proposal
    assert len(seen_density) == len(seen_prior)
    assert all(a is b for a, b in zip(seen_density, seen_prior))
    assert len({id(a) for a in seen_density}) == len(seen_density)
    assert all(a.dtype == np.float64 and a.shape == (model.n_params,) for a in seen_density)
    if case == "tight-3":  # out-of-bounds proposals skipped the uniform draw
        assert cfg.steps + 1 - len(seen_density) > cfg.steps // 10


def test_normal_model_block_scores_as_the_sampler_where_np_exp_differs():
    # normal_model maps math.exp over a block's log sds because np.exp can
    # differ from it in the last bit; np.exp there would move the goldens
    rng = np.random.default_rng(62)
    log_sds = rng.uniform(-5.0, 5.0, 20000)
    differ = log_sds[np.exp(2.0 * log_sds) != [math.exp(2.0 * s) for s in log_sds.tolist()]]
    if differ.size == 0:
        pytest.skip("np.exp equals math.exp on every sampled value with this numpy build")
    model = normal_model()
    mu = 0.3
    y = np.array([[mu + 1.0]])  # one observation: the summary's sums are exact
    loglik = model.summarize(y)
    block = model.log_density(y, np.array([np.full(differ.size, mu), differ])[:, :, None])
    assert block.shape == (differ.size, 1)
    for s, got in zip(differ.tolist(), block[:, 0].tolist()):
        assert got.hex() == loglik([mu, s]).hex(), s


def test_default_log_prior_equals_the_array_expression_bit_for_bit():
    rng = np.random.default_rng(50)
    for scale in (10.0, 0.7, 3.0):
        log_prior = default_log_prior(MODEL, scale)
        for p in range(1, 13):
            for _ in range(100):
                theta = rng.normal(0.0, 20.0, size=p)
                theta[rng.random(p) < 0.2] = 0.0
                theta[rng.random(p) < 0.2] = -0.0
                old = float(
                    np.sum(
                        -0.5 * math.log(2.0 * math.pi * scale * scale)
                        - np.asarray(theta) ** 2 / (2.0 * scale * scale)
                    )
                )
                assert log_prior(theta).hex() == old.hex(), (scale, theta)
                # the sampler's summarize path passes the list of floats itself
                assert log_prior(theta.tolist()).hex() == old.hex(), (scale, theta)


@pytest.mark.parametrize(
    "case", ["normal-mean", "normal-mean-sd2", "normal", "tight-3", "burn-in-0"]
)
def test_metropolis_matches_the_list_loop_bit_for_bit(case):
    rng = np.random.default_rng(44)
    data = WeightedDataset(rng.normal(0.4, 1.3, size=(200, 1)), np.ones(200))
    cfg = SamplerConfig(4000, 500, 0.2, 45)
    if case == "tight-3":  # the per-row path, many proposals out of bounds
        model, cfg = _tight_three_parameter_model(), SamplerConfig(4000, 500, 0.3, 46)
    elif case == "burn-in-0":
        model, cfg = normal_model(), SamplerConfig(600, 0, 0.5, 47)
    else:
        model = builtin_model(case)
    prior = default_log_prior(model, 3.0)
    got = metropolis_sample(model, prior, data, cfg)
    want = reference_list_metropolis(model, prior, data, cfg)
    assert got.draws.tobytes() == want.draws.tobytes()
    assert got.log_posts.tobytes() == want.log_posts.tobytes()
    assert got.acceptance_rate == want.acceptance_rate
    assert got.provenance == want.provenance


@pytest.mark.parametrize("p", range(1, 7))
def test_scalar_normals_are_the_stream_of_one_vector_draw(p):
    # the sampler draws p scalar normals per step in place of standard_normal(p)
    for seed in range(50):
        scalar, vector = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            drawn = [scalar.standard_normal() for _ in range(p)]
            assert drawn == vector.standard_normal(p).tolist()
            assert scalar.random() == vector.random()


def test_sampler_keeps_its_draws_in_compact_storage():
    # kept draws and log posteriors as doubles, handed to PosteriorDraws
    # without a copy: about 8 * kept * (p + 1) bytes plus the buffers' growth
    # slack, where a copy would double it and Python lists of rows take
    # several times that
    rng = np.random.default_rng(48)
    data = WeightedDataset(rng.normal(0.3, 1.2, size=(200, 1)), np.ones(200))
    cfg = SamplerConfig(20_000, 2_000, 0.08, 5)
    for model in (normal_mean_model(1.0), normal_model()):
        kept_bytes = 8 * (cfg.steps - cfg.burn_in) * (model.n_params + 1)
        peak = traced_peak(metropolis_sample, model, default_log_prior(model), data, cfg)
        assert peak < 1.25 * kept_bytes, model.name


def test_sampler_hands_over_read_only_draws_and_the_constructor_copies():
    rng = np.random.default_rng(49)
    data = WeightedDataset(rng.normal(0.3, 1.2, size=(50, 1)), np.ones(50))
    model = normal_model()
    post = metropolis_sample(model, default_log_prior(model), data, SamplerConfig(600, 100, 0.3, 7))
    assert not post.draws.flags.writeable and not post.log_posts.flags.writeable
    draws, log_posts = np.ones((100, 2)), np.zeros(100)
    built = PosteriorDraws(draws, "caller", log_posts)
    assert not np.shares_memory(built.draws, draws)
    assert not np.shares_memory(built.log_posts, log_posts)
    assert draws.flags.writeable and log_posts.flags.writeable


def test_metropolis_accepts_a_zero_uniform_draw(monkeypatch):
    # random() can return exactly 0.0; its log is -inf, so the move is taken
    real_rng = np.random.default_rng

    class FirstUniformZero:
        def __init__(self, seed):
            self._rng = real_rng(seed)
            self._zero_next = True

        def standard_normal(self, size=None):
            return self._rng.standard_normal(size)

        def random(self):
            if self._zero_next:
                self._zero_next = False
                return 0.0
            return self._rng.random()

    rng = np.random.default_rng(13)
    data = make_data(rng, mean=0.5)
    prior = default_log_prior(MODEL)
    cfg = SamplerConfig(steps=400, burn_in=0, step_size=3.0, seed=8)
    first = 3.0 * float(real_rng(cfg.seed).standard_normal(1)[0])
    monkeypatch.setattr(np.random, "default_rng", FirstUniformZero)
    draws = metropolis_sample(MODEL, prior, data, cfg)
    assert draws.draws[0, 0] == first
    start = float(np.sum(MODEL.log_density(data.y, np.zeros(1)))) + prior(np.zeros(1))
    assert draws.log_posts[0] < start  # a downhill move only the zero draw accepts


@pytest.mark.parametrize("sd", [1.0, 2.0])
def test_penalty_is_weighted_draw_variance_for_normal_mean(sd):
    # the weighted deviance is quadratic in the mean, so with theta_hat the
    # draw mean pwd = (W / sd^2) * var0(draws) exactly, for any weights
    model = normal_mean_model(sd)
    rng = np.random.default_rng(60 + int(sd))
    for _ in range(5):
        weights = rng.exponential(1.0, size=40)
        weights[rng.random(40) < 0.25] = 0.0
        data = WeightedDataset(rng.normal(0.5, sd, size=(40, 1)), weights)
        draws = rng.normal(rng.normal(0.5, 0.3), 0.2, size=(400, 1))
        result = wdic(model, PosteriorDraws(draws, provenance="seeded"), data)
        exact = weights.sum() / sd**2 * float(np.var(draws))
        assert result.pwd == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_model_recovery_prefers_generating_model():
    # data from the sd-2 model with tail-emphasizing weights: the unit-sd
    # candidate pays for its scale mismatch exactly where the weights look
    model_a = builtin_model("normal-mean-sd2")
    model_b = builtin_model("normal-mean")
    wins = 0
    reps = 10
    for rep in range(reps):
        rng = np.random.default_rng(1000 + rep)
        y = rng.normal(0.8, 2.0, size=(40, 1))
        data = WeightedDataset(y, np.ones(40)).with_central_weights([0.8])
        cfg = SamplerConfig(steps=1500, burn_in=300, step_size=0.4, seed=2000 + rep)
        score = {}
        for name, model in (("a", model_a), ("b", model_b)):
            draws = metropolis_sample(model, default_log_prior(model), data, cfg)
            score[name] = wdic(model, draws, data).wdic
        wins += score["a"] < score["b"]
    assert wins >= 9


@pytest.mark.parametrize(
    "field, value",
    [("steps", 1500.5), ("burn_in", 300.2), ("seed", 1.7)],
)
def test_sampler_config_refuses_a_non_integral_count(field, value):
    kwargs = {"steps": 1500, "burn_in": 300, "step_size": 0.4, "seed": 1, field: value}
    with pytest.raises(ValueError, match=f"^{field} {value} is not an integer$"):
        SamplerConfig(**kwargs)


def test_sampler_config_takes_integral_floats_as_ints():
    cfg = SamplerConfig(steps=1500.0, burn_in=np.int64(300), step_size=1, seed=7.0)
    assert (cfg.steps, cfg.burn_in, cfg.step_size, cfg.seed) == (1500, 300, 1.0, 7)
    assert {type(v) for v in (cfg.steps, cfg.burn_in, cfg.seed)} == {int}


def test_builtin_model_registry():
    assert builtin_model("normal").n_params == 2
    with pytest.raises(ValueError):
        builtin_model("no-such-model")


def test_model_spec_takes_its_parameter_count_from_its_bounds():
    assert "n_params" not in [field.name for field in dataclasses.fields(ModelSpec)]
    model = ModelSpec("two", None, ((0, 1), (-1, 2)))
    assert model.n_params == 2 and model.bounds == ((0.0, 1.0), (-1.0, 2.0))
    with pytest.raises(ValueError, match="^a model needs at least one parameter$"):
        ModelSpec("none", None, ())


REFUSED_PARAMETERS = {
    "theta-wrong-length": (
        lambda data: weighted_loglik(MODEL, [0.1, 0.2], data), DimensionMismatchError,
        "draws have shape (1, 2), model normal-mean(sd=1) has 1 parameters",
    ),
    "theta-2d": (
        lambda data: weighted_loglik(MODEL, [[0.1]], data), DimensionMismatchError,
        "draws have shape (1, 1, 1), model normal-mean(sd=1) has 1 parameters",
    ),
    "theta-nan": (
        lambda data: weighted_loglik(MODEL, [math.nan], data), ValueError,
        "draw 0 lies outside the bounds of model normal-mean(sd=1)",
    ),
    "theta-outside": (
        lambda data: weighted_deviance(MODEL, [50.5], data), ValueError,
        "draw 0 lies outside the bounds of model normal-mean(sd=1)",
    ),
    "draws-wrong-columns": (
        lambda data: wdic(MODEL, PosteriorDraws(np.zeros((100, 2)), "x"), data),
        DimensionMismatchError,
        "draws have shape (100, 2), model normal-mean(sd=1) has 1 parameters",
    ),
    "draw-outside": (
        lambda data: wdic(MODEL, PosteriorDraws(np.c_[[0.0] * 37 + [-51.0] + [0.0] * 62], "x"), data),
        ValueError, "draw 37 lies outside the bounds of model normal-mean(sd=1)",
    ),
    "draw-nan": (
        lambda data: MODEL.check_draws([[0.0], [0.1], [math.nan]]), ValueError,
        "draw 2 lies outside the bounds of model normal-mean(sd=1)",
    ),
}


@pytest.mark.parametrize("case", list(REFUSED_PARAMETERS))
def test_check_draws_refuses_a_theta_or_draws_off_the_parameter_space(case):
    call, error, message = REFUSED_PARAMETERS[case]
    with pytest.raises(error) as refused:
        call(WeightedDataset([[0.0], [1.0]], [1.0, 1.0]))
    assert str(refused.value) == message


def test_check_draws_takes_rows_on_the_bounds_as_they_are():
    model = normal_model()
    arr = np.array([[-50.0, 5.0], [50.0, -5.0], [0.0, 0.0]])
    assert model.check_draws(arr) is arr


@pytest.mark.parametrize(
    "bound", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (1e308, 1.7e308)],
    ids=["upper-inf", "lower-inf", "both-inf", "midpoint-overflow"],
)
def test_sampler_refuses_a_non_finite_start_before_any_step(bound):
    calls = []

    def log_density(y, theta):
        calls.append(theta)
        return -0.5 * (y[:, 0] - theta[0]) ** 2

    model = ModelSpec("open", log_density, (bound,))
    cfg = SamplerConfig(steps=600, burn_in=100, step_size=0.4, seed=1)
    with pytest.raises(ValueError) as refused:
        metropolis_sample(model, calls.append, WeightedDataset([[0.0]], [1.0]), cfg)
    assert str(refused.value) == f"the sampler's start, midpoint of bound {bound}, is not finite"
    assert calls == []


def test_draws_are_scored_under_infinite_bounds():
    rng = np.random.default_rng(21)
    data = make_data(rng)
    draws, _, _ = conjugate_draws(rng, data, size=400)
    open_model = dataclasses.replace(MODEL, bounds=((-math.inf, math.inf),))
    assert wdic(open_model, draws, data) == wdic(MODEL, draws, data)


def _short_density(y, theta):
    return np.zeros(3)


# (CSV text or None, call on the CSV's path, error type, message with {path} for that path)
REFUSED_INPUT = {
    "bound-lo-not-below-hi": (
        None, lambda path: ModelSpec("flat", None, ((1.0, 1.0),)), ValueError,
        "bound (1.0, 1.0) must satisfy lo < hi",
    ),
    "log-posts-length": (
        None, lambda path: PosteriorDraws(np.zeros((100, 1)), "x", np.zeros(99)),
        DimensionMismatchError, "one log posterior per draw required",
    ),
    "draws-header": (
        "theta_2\n0.1\n", PosteriorDraws.from_csv, ValueError,
        "{path}: expected columns theta_1..theta_p; got ['theta_2']",
    ),
    "empty-csv": (
        "", PosteriorDraws.from_csv, ValueError, "{path}: empty file",
    ),
    "field-count": (
        "y_1,weight\n0.1,1\n0.2\n", WeightedDataset.from_csv, ValueError,
        "{path}: row 3 has 1 fields, header has 2",
    ),
    "no-data-rows": (
        "y_1,weight\n\n", WeightedDataset.from_csv, ValueError, "{path}: no data rows",
    ),
    "centers-count": (
        None, lambda path: WeightedDataset([[0.0, 1.0]], [1.0]).with_central_weights([0.5]),
        DimensionMismatchError, "1 centers for 2-dimensional data",
    ),
    "log-density-shape": (
        None, lambda path: weighted_loglik(
            ModelSpec("short", _short_density, ((-1.0, 1.0),)), [0.0],
            WeightedDataset([[0.0], [1.0]], [1.0, 1.0]),
        ),
        DimensionMismatchError, "log_density returned shape (3,) for 1 draws and 2 observations",
    ),
    "theta-hat-rule": (
        None, lambda path: posterior_point_estimate(
            MODEL, PosteriorDraws(np.zeros((100, 1)), "x"), WeightedDataset([[0.0]], [1.0]),
            "median",
        ),
        ValueError, "rule must be 'mean' or 'mode', got 'median'",
    ),
    "steps-not-above-burn-in": (
        None, lambda path: SamplerConfig(steps=300, burn_in=300, step_size=0.4, seed=1),
        ValueError, "need steps > burn_in >= 0, got steps=300, burn_in=300",
    ),
}


@pytest.mark.parametrize("case", list(REFUSED_INPUT))
def test_bad_input_raises_its_named_error(tmp_path, case):
    text, call, error, message = REFUSED_INPUT[case]
    path = tmp_path / "in.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(error) as refused:
        call(path)
    assert type(refused.value) is error
    assert str(refused.value) == message.format(path=path)


def test_blank_csv_rows_are_skipped(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("y_1,weight\n\n0.25,1\n , \n,\n0.5,2\n\n")
    data = WeightedDataset.from_csv(path)
    assert data.y.tolist() == [[0.25], [0.5]] and data.weights.tolist() == [1.0, 2.0]
