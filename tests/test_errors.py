"""The shared array check, the containers built on it, and plain floats in error texts."""

import math

import numpy as np
import pytest

from wentropy.discrete import DiscreteJoint
from wentropy.errors import (
    EmptyDrawsError,
    NotSymmetricError,
    OutOfSupportError,
    as_float_array,
)
from wentropy.gaussian import ConditionSpec, Gaussian
from wentropy.quadrature import CentralWeight
from wentropy.wdic import (
    ModelSpec,
    PosteriorDraws,
    WeightedDataset,
    normal_mean_model,
    normal_model,
    weighted_loglik,
)


def test_as_float_array_copies_and_freezes_the_copy():
    value = np.arange(3.0)
    arr = as_float_array(value, "x", ndim=1)
    assert arr.dtype == np.float64 and not arr.flags.writeable
    assert value.flags.writeable and not np.shares_memory(arr, value)
    assert as_float_array([[1, 2]], "x", ndim=2).tolist() == [[1.0, 2.0]]


def test_as_float_array_without_copy_freezes_a_float_array_in_place():
    buffer = np.zeros((4, 2))
    assert as_float_array(buffer, "x", ndim=2, copy=False) is buffer
    assert not buffer.flags.writeable


@pytest.mark.parametrize(
    "value, ndim, message",
    [
        ([1.0, 2.0], 2, "x must be 2-dimensional, got shape (2,)"),
        ([[1.0]], 1, "x must be 1-dimensional, got shape (1, 1)"),
        ([1.0, math.nan], 1, "x contains non-finite entries"),
        ([[-math.inf]], 2, "x contains non-finite entries"),
    ],
)
def test_as_float_array_refuses_by_name(value, ndim, message):
    with pytest.raises(ValueError) as refused:
        as_float_array(value, "x", ndim=ndim)
    assert str(refused.value) == message


def _stored_pairs():
    """(container, caller's array, stored array) for every array the six containers store."""
    mean, cov = np.array([0.5, -1.0]), np.array([[2.0, 0.3], [0.3, 1.0]])
    value = np.array([0.25])
    centers = np.array([0.5, 1.5])
    probs, s0, s1 = np.full((2, 3), 1.0 / 6.0), np.arange(2.0), np.arange(3.0)
    y, weights = np.array([[0.1], [0.7], [-0.3]]), np.array([1.0, 0.5, 2.0])
    draws, log_posts = np.ones((100, 1)), np.zeros(100)
    gaussian = Gaussian(mean, cov)
    spec = ConditionSpec((0,), (1,), value)
    weight = CentralWeight(centers)
    joint = DiscreteJoint(probs, (s0, s1))
    data = WeightedDataset(y, weights)
    post = PosteriorDraws(draws, "caller", log_posts)
    return [
        ("Gaussian.mean", mean, gaussian.mean),
        ("Gaussian.cov", cov, gaussian.cov),
        ("ConditionSpec.value", value, spec.value),
        ("CentralWeight.centers", centers, weight.centers),
        ("DiscreteJoint.probs", probs, joint.probs),
        ("DiscreteJoint.support[0]", s0, joint.support[0]),
        ("DiscreteJoint.support[1]", s1, joint.support[1]),
        ("WeightedDataset.y", y, data.y),
        ("WeightedDataset.weights", weights, data.weights),
        ("PosteriorDraws.draws", draws, post.draws),
        ("PosteriorDraws.log_posts", log_posts, post.log_posts),
    ]


def test_containers_store_read_only_copies_of_the_callers_arrays():
    for name, given, stored in _stored_pairs():
        assert given.flags.writeable, name
        assert not np.shares_memory(given, stored), name
        assert not stored.flags.writeable, name
        assert np.array_equal(given, stored), name


@pytest.mark.parametrize(
    "probs, support",
    [
        ([[0.5, math.nan], [0.25, 0.25]], ([0.0, 1.0], [0.0, 1.0])),
        ([[0.5, math.inf], [0.25, 0.25]], ([0.0, 1.0], [0.0, 1.0])),
        ([[0.5, 0.0], [0.25, 0.25]], ([0.0, math.inf], [0.0, 1.0])),
        ([[0.5, 0.0], [0.25, 0.25]], ([0.0, 1.0], [math.nan, 1.0])),
    ],
    ids=["nan-prob", "inf-prob", "inf-label", "nan-label"],
)
def test_discrete_joint_refuses_non_finite_probabilities_and_labels(probs, support):
    with pytest.raises(ValueError, match="contains non-finite entries"):
        DiscreteJoint(np.array(probs), support)


def test_discrete_joint_names_an_axis_count_mismatch():
    with pytest.raises(ValueError, match=r"probs must be 1-dimensional, got shape \(2, 2\)"):
        DiscreteJoint(np.full((2, 2), 0.25), ([0.0, 1.0],))
    with pytest.raises(ValueError, match=r"support\[1\] must have length 2"):
        DiscreteJoint(np.full((2, 2), 0.25), ([0.0, 1.0], [0.0, 1.0, 2.0]))


def test_posterior_draws_refuses_3d_draws_and_keeps_its_other_refusals():
    with pytest.raises(ValueError, match=r"draws must be 2-dimensional, got shape \(100, 1, 1\)"):
        PosteriorDraws(np.zeros((100, 1, 1)), "cube")
    with pytest.raises(EmptyDrawsError):
        PosteriorDraws(np.zeros((99, 1)), "short")
    with pytest.raises(ValueError, match="log_posts must not be NaN"):
        PosteriorDraws(np.zeros((100, 1)), "x", np.full(100, math.nan))
    # a log posterior may be -inf: the draw has zero posterior mass
    assert PosteriorDraws(np.zeros((100, 1)), "x", np.full(100, -math.inf)).size == 100


def test_adopt_hands_over_the_buffers_without_a_copy():
    draws, log_posts = np.zeros((100, 1)), np.zeros(100)
    post = PosteriorDraws._adopt(draws, "sampler", log_posts, 0.5)
    assert post.draws is draws and post.log_posts is log_posts
    assert not draws.flags.writeable and not log_posts.flags.writeable


@pytest.mark.parametrize("model", [normal_mean_model(1.0), normal_model()], ids=lambda m: m.name)
# [1e154] * 2: the sum of squares is 0, but n (|ybar| + bound)^2 at the mean's bound is not finite
@pytest.mark.parametrize("column", [[1e155, 0.0, 0.0], [1e200] * 3, [1e308] * 3, [1e154] * 2])
def test_normal_summary_refuses_data_whose_sums_overflow(model, column):
    with pytest.raises(ValueError, match="overflow the normal model's sum of squares"):
        model.summarize(np.array(column)[:, None])


def test_normal_summary_takes_data_up_to_the_float_range():
    # the largest (ybar - mu)^2 inside the mean's bounds stays finite
    loglik = normal_mean_model(1.0).summarize(np.full((3, 1), 1e150))
    assert math.isfinite(loglik([-50.0])) and math.isfinite(loglik([50.0]))


def test_error_texts_print_plain_floats():
    cov = np.eye(2)
    cov[0, 1] = 0.5
    with pytest.raises(NotSymmetricError) as asym:
        Gaussian(np.zeros(2), cov)
    assert str(asym.value) == "cov[0,1]=0.5 vs cov[1,0]=0.0 (difference 5.000e-01)"
    with pytest.raises(ValueError) as total:
        DiscreteJoint(np.array([[0.5, 0.25], [0.25, 0.25]]), ([0.0, 1.0], [0.0, 1.0]))
    assert str(total.value) == "probabilities sum to 1.25, not 1"

    def window(y, theta):
        return np.where(np.abs(y[:, 0] - theta[0]) <= 1.0, 0.0, -np.inf)

    data = WeightedDataset([[0.0], [5.0]], [1.0, 1.0])
    with pytest.raises(OutOfSupportError) as support:
        weighted_loglik(ModelSpec("window", window, ((-2.0, 2.0),)), [0.0], data)
    assert str(support.value) == "observation 1 has zero density under window but weight 1.0"
