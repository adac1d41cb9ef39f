"""Unit tests for the MLP container and actor/critic builders."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    DynamicFixedPointNumerics,
    Linear,
    ReLU,
    build_actor,
    build_critic,
)


class TestMLP:
    def _simple_mlp(self, rng):
        return MLP([Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng)])

    def test_forward_shape(self, rng):
        mlp = self._simple_mlp(rng)
        out = mlp.forward(np.ones((3, 4)))
        assert out.shape == (3, 2)

    def test_single_vector_promoted_to_batch(self, rng):
        mlp = self._simple_mlp(rng)
        out = mlp.forward(np.ones(4))
        assert out.shape == (1, 2)

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError):
            MLP([])

    def test_backward_returns_input_gradient(self, rng):
        mlp = self._simple_mlp(rng)
        x = rng.normal(size=(3, 4))
        mlp.forward(x)
        grad = mlp.backward(np.ones((3, 2)))
        assert grad.shape == (3, 4)

    def test_end_to_end_gradient_matches_numerical(self, rng):
        mlp = self._simple_mlp(rng)
        x = rng.normal(size=(2, 4))
        upstream = rng.normal(size=(2, 2))
        mlp.zero_grad()
        mlp.forward(x)
        mlp.backward(upstream)
        grads = mlp.gradients()
        params = mlp.parameters()
        name = "0.linear.weight"
        eps = 1e-6
        analytic = grads[name][1, 3]
        params[name][1, 3] += eps
        plus = np.sum(mlp.forward(x) * upstream)
        params[name][1, 3] -= 2 * eps
        minus = np.sum(mlp.forward(x) * upstream)
        params[name][1, 3] += eps
        assert analytic == pytest.approx((plus - minus) / (2 * eps), rel=1e-4, abs=1e-6)

    def test_parameters_are_views(self, rng):
        mlp = self._simple_mlp(rng)
        params = mlp.parameters()
        key = next(iter(params))
        params[key][...] = 0.0
        assert np.all(mlp.parameters()[key] == 0.0)

    def test_set_parameters_validates(self, rng):
        mlp = self._simple_mlp(rng)
        with pytest.raises(ValueError, match="unknown parameter 'nope'"):
            mlp.set_parameters({"nope": np.zeros((1,))})
        params = mlp.parameters()
        key = next(iter(params))
        with pytest.raises(ValueError):
            mlp.set_parameters({key: np.zeros((1, 1))})

    def test_copy_from(self, rng):
        a = self._simple_mlp(rng)
        b = self._simple_mlp(rng)
        b.copy_from(a)
        x = rng.normal(size=(2, 4))
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    def test_soft_update(self, rng):
        a = self._simple_mlp(rng)
        b = self._simple_mlp(rng)
        before = {k: v.copy() for k, v in b.parameters().items()}
        b.soft_update_from(a, tau=0.25)
        for name, value in b.parameters().items():
            expected = 0.25 * a.parameters()[name] + 0.75 * before[name]
            np.testing.assert_allclose(value, expected)

    def test_soft_update_rejects_bad_tau(self, rng):
        a = self._simple_mlp(rng)
        with pytest.raises(ValueError):
            a.soft_update_from(self._simple_mlp(rng), tau=1.5)

    def test_parameter_count_and_size(self, rng):
        mlp = self._simple_mlp(rng)
        assert mlp.parameter_count == (4 * 8 + 8) + (8 * 2 + 2)
        assert mlp.model_size_bytes(32) == mlp.parameter_count * 4
        assert mlp.model_size_bytes(16) == mlp.parameter_count * 2

    def test_layer_shapes(self, rng):
        mlp = self._simple_mlp(rng)
        assert mlp.layer_shapes == [(4, 8), (8, 2)]

    def test_numerics_observes_activations(self, rng):
        numerics = DynamicFixedPointNumerics()
        mlp = MLP([Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng)], numerics=numerics)
        mlp.forward(rng.normal(size=(5, 4)))
        assert numerics.range_tracker.initialized


class TestParameterErrors:
    """Every parameter set that does not fit is a ``ValueError`` naming the
    offending parameter, never a bare ``KeyError``."""

    def _mlp(self, rng, *widths):
        widths = widths or (4, 8, 2)
        layers = []
        for index, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            if index:
                layers.append(ReLU())
            layers.append(Linear(fan_in, fan_out, rng=rng))
        return MLP(layers)

    def test_set_parameters_names_a_wrong_shape(self, rng):
        mlp = self._mlp(rng)
        with pytest.raises(ValueError, match=r"shape mismatch for '2\.linear\.bias'"):
            mlp.set_parameters({"2.linear.bias": np.zeros(3)})

    def test_copy_from_a_network_with_an_extra_parameter(self, rng):
        mlp = self._mlp(rng)
        with pytest.raises(ValueError, match=r"unknown parameter '4\.linear\.weight'"):
            mlp.copy_from(self._mlp(rng, 4, 8, 2, 3))

    def test_copy_from_a_network_of_another_shape(self, rng):
        mlp = self._mlp(rng)
        before = mlp._flat.copy()
        with pytest.raises(ValueError, match=r"shape mismatch for '0\.linear\.weight'"):
            mlp.copy_from(self._mlp(rng, 4, 6, 2))
        np.testing.assert_array_equal(mlp._flat, before)

    def test_soft_update_from_a_network_missing_a_parameter(self, rng):
        mlp = self._mlp(rng, 4, 8, 2, 3)
        with pytest.raises(ValueError, match=r"has no parameter '4\.linear\.weight'"):
            mlp.soft_update_from(self._mlp(rng), tau=0.5)

    def test_soft_update_from_a_network_of_another_shape(self, rng):
        mlp = self._mlp(rng)
        with pytest.raises(ValueError, match=r"shape mismatch for '0\.linear\.weight'"):
            mlp.soft_update_from(self._mlp(rng, 4, 6, 2), tau=0.5)


class TestBuilders:
    def test_actor_shapes_match_paper(self, rng):
        actor = build_actor(17, 6, rng=rng)
        assert actor.layer_shapes == [(17, 400), (400, 300), (300, 6)]

    def test_critic_shapes_match_paper(self, rng):
        critic = build_critic(17, 6, rng=rng)
        assert critic.layer_shapes == [(23, 400), (400, 300), (300, 1)]

    def test_actor_output_bounded_by_tanh(self, rng):
        actor = build_actor(8, 3, (16, 12), rng=rng)
        out = actor.forward(rng.normal(scale=100, size=(10, 8)))
        assert np.all(np.abs(out) <= 1.0)

    def test_critic_scalar_output(self, rng):
        critic = build_critic(8, 3, (16, 12), rng=rng)
        out = critic.forward(rng.normal(size=(10, 11)))
        assert out.shape == (10, 1)

    def test_final_layer_initialised_small(self, rng):
        actor = build_actor(8, 3, (16, 12), rng=rng)
        final = [layer for layer in actor.layers if isinstance(layer, Linear)][-1]
        assert np.max(np.abs(final.weight)) <= 3e-3

    def test_custom_hidden_sizes(self, rng):
        actor = build_actor(5, 2, (10, 7, 4), rng=rng)
        assert actor.layer_shapes == [(5, 10), (10, 7), (7, 4), (4, 2)]
