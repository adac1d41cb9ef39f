"""Coherence of the projected-weight cache in :class:`repro.nn.Linear`.

A dense layer keeps the ``(weight, bias)`` projection it last computed.  The
tests here compare it with math that never caches anything:

* :func:`reference_passes` recomputes one forward / backward pass with
  ``x @ pw(W.copy()) + pw(b.copy())`` after every writer the code base has;
* :func:`as_reference` turns a twin agent into the uncached per-tensor
  learner (a dense layer that projects on every pass, a backward pass that
  projects after every layer and computes every gradient, an Adam step, a
  Polyak average and a projection per named tensor), and whole runs of
  ``update`` must end with every parameter, target, Adam moment and every
  gradient an optimizer consumed equal.

Since a network keeps its parameters and gradients in one flat buffer each,
the tests also pin that every layer array stays a view into that buffer after
every writer, and that gradient accumulation across passes is elementwise
``grad += project(product)``.

The reference reads ``layer._weight`` on purpose: ``layer.weight`` hands out
a writable handle and drops the cache, which would hide a stale projection
from the very test looking for it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.envs import HopperEnv
from repro.fixedpoint import QFormat
from repro.nn import (
    MLP,
    SGD,
    Adam,
    FixedPointNumerics,
    Layer,
    Linear,
    ReLU,
    build_actor,
    make_numerics,
)
from repro.rl import (
    ActorPolicy,
    AsyncCollector,
    CollectorWorker,
    DDPGAgent,
    DDPGConfig,
    ReplayBuffer,
    TransitionBatch,
    load_agent_into,
    save_agent,
)
from repro.serving import restore_serving_agent

STATE_DIM, ACTION_DIM, HIDDEN = 11, 3, (12, 8)


# --------------------------------------------------------------------------- #
# The uncached reference
# --------------------------------------------------------------------------- #
def reference_passes(mlp: MLP, inputs, upstream):
    """``(output, input gradient, {layer: (grad_weight, grad_bias)})``, uncached."""
    numerics = mlp.numerics
    pw, pg = numerics.project_weight, numerics.project_gradient
    activation = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    tape, current = [], None
    for layer in mlp.layers:
        if isinstance(layer, Linear):
            current = layer.name
            weight, bias = pw(layer._weight.copy()), pw(layer._bias.copy())
            tape.append((layer, activation, weight))
            activation = activation @ weight + bias
        elif isinstance(layer, ReLU):
            mask = activation > 0.0
            tape.append((layer, mask, None))
            activation = activation * mask
        else:
            activation = np.tanh(activation)
            tape.append((layer, activation, None))
        numerics.observe_activation(activation, layer=current)
        activation = numerics.project_activation(activation, layer=current)
    gradient = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
    gradients = {}
    for layer, saved, weight in reversed(tape):
        if isinstance(layer, Linear):
            gradient = pg(gradient)
            gradients[layer.name] = (pg(saved.T @ gradient), pg(gradient.sum(axis=0)))
            gradient = gradient @ weight.T
        elif isinstance(layer, ReLU):
            gradient = gradient * saved
        else:
            gradient = gradient * (1.0 - saved ** 2)
        gradient = pg(gradient)
    return activation, gradient, gradients


def assert_coherent(mlp: MLP, inputs, upstream) -> np.ndarray:
    """One real forward / backward pass equals the uncached reference."""
    expected_output, expected_gradient, expected = reference_passes(mlp, inputs, upstream)
    mlp.zero_grad()
    output = mlp.forward(inputs)
    gradient = mlp.backward(upstream)
    np.testing.assert_array_equal(output, expected_output)
    np.testing.assert_array_equal(gradient, expected_gradient)
    for layer in mlp.layers:
        if isinstance(layer, Linear):
            np.testing.assert_array_equal(layer.grad_weight, expected[layer.name][0])
            np.testing.assert_array_equal(layer.grad_bias, expected[layer.name][1])
    return output


def _actor(seed: int = 0, numerics=None) -> MLP:
    return build_actor(
        STATE_DIM, ACTION_DIM, HIDDEN,
        rng=np.random.default_rng(seed),
        numerics=numerics or make_numerics("fixed32"),
    )


def _agent(regime: str = "fixed32", seed: int = 7):
    return DDPGAgent(
        STATE_DIM, ACTION_DIM, DDPGConfig(hidden_sizes=HIDDEN),
        numerics=make_numerics(regime), rng=np.random.default_rng(seed),
    )


@pytest.fixture
def passes():
    rng = np.random.default_rng(99)
    return rng.normal(size=(5, STATE_DIM)), rng.normal(size=(5, ACTION_DIM))


def _warm(mlp: MLP, passes) -> np.ndarray:
    """Fill every layer's cache, checking the pass that fills it."""
    before = assert_coherent(mlp, *passes)
    assert all(
        layer._projected is not None for layer in mlp.layers if isinstance(layer, Linear)
    )
    return before


def _assert_followed(mlp: MLP, passes, before: np.ndarray) -> None:
    """The write changed the output, and the cached layers saw it."""
    after = assert_coherent(mlp, *passes)
    assert not np.array_equal(before, after)


# --------------------------------------------------------------------------- #
# Every writer, one at a time
# --------------------------------------------------------------------------- #
class TestWriters:
    @pytest.mark.parametrize("projected", [True, False])
    def test_adam_step(self, passes, projected):
        mlp = _actor()
        project = mlp.numerics.project_weight if projected else None
        optimizer = Adam(mlp.parameters(), learning_rate=1e-2, project=project)
        before = _warm(mlp, passes)
        for _ in range(3):
            optimizer.step(mlp.gradients())
            _assert_followed(mlp, passes, before)
            before = mlp.forward(passes[0])

    def test_adam_step_hands_its_projection_to_the_layers(self, passes):
        mlp = _actor()
        optimizer = Adam(mlp.parameters(), 1e-2, project=mlp.numerics.project_weight)
        _warm(mlp, passes)
        optimizer.step(mlp.gradients())
        for layer in mlp.layers:
            if isinstance(layer, Linear):
                _, _, weight, bias = layer._projected
                np.testing.assert_array_equal(weight, layer._weight)
                np.testing.assert_array_equal(bias, layer._bias)
                assert not np.shares_memory(weight, layer._weight)

    def test_a_foreign_projection_is_not_adopted(self, passes):
        mlp = _actor()
        coarse = FixedPointNumerics(weight_format=QFormat(16, 4))
        optimizer = Adam(mlp.parameters(), 1e-2, project=coarse.project_weight)
        before = _warm(mlp, passes)
        optimizer.step(mlp.gradients())
        assert all(
            layer._projected is None for layer in mlp.layers if isinstance(layer, Linear)
        )
        _assert_followed(mlp, passes, before)

    def test_sgd_step_with_momentum(self, passes):
        mlp = _actor()
        optimizer = SGD(
            mlp.parameters(), learning_rate=1e-2, momentum=0.9,
            project=mlp.numerics.project_weight,
        )
        before = _warm(mlp, passes)
        for _ in range(3):
            optimizer.step(mlp.gradients())
            _assert_followed(mlp, passes, before)
            before = mlp.forward(passes[0])

    def test_soft_update_from(self, passes):
        mlp, other = _actor(0), _actor(1)
        before, source_before = _warm(mlp, passes), _warm(other, passes)
        mlp.soft_update_from(other, 0.25)
        _assert_followed(mlp, passes, before)
        # Reading the source neither changed it nor cost it its projection.
        assert all(
            layer._projected is not None
            for layer in other.layers if isinstance(layer, Linear)
        )
        np.testing.assert_array_equal(assert_coherent(other, *passes), source_before)

    def test_set_parameters(self, passes):
        mlp, other = _actor(0), _actor(1)
        before = _warm(mlp, passes)
        name = "0.actor_fc0.weight"
        mlp.set_parameters({name: other.parameters()[name]})
        _assert_followed(mlp, passes, before)

    def test_copy_from(self, passes):
        mlp, other = _actor(0), _actor(1)
        before = _warm(mlp, passes)
        mlp.copy_from(other)
        _assert_followed(mlp, passes, before)
        np.testing.assert_array_equal(mlp.forward(passes[0]), other.forward(passes[0]))

    def test_actor_policy_load_parameters(self, passes):
        agent = _agent()
        policy = ActorPolicy.from_agent(agent)
        before = _warm(policy.actor, passes)
        policy.load_parameters(_actor(3).parameters())
        _assert_followed(policy.actor, passes, before)

    def test_broadcast_weights(self, passes):
        agent = _agent()
        workers = [
            CollectorWorker.from_agent(
                w, agent, HopperEnv(seed=0, max_episode_steps=30), 2, seed=10
            )
            for w in range(2)
        ]
        collector = AsyncCollector(
            workers, ReplayBuffer(100, STATE_DIM, ACTION_DIM, seed=0),
            source_agent=agent, sync_interval=8,
        )
        replicas = [worker.engine.agent.actor for worker in workers]
        before = [_warm(replica, passes) for replica in replicas]
        _warm(agent.actor, passes)
        agent.actor.copy_from(_actor(5))
        collector.broadcast_weights()
        for replica, old in zip(replicas, before):
            _assert_followed(replica, passes, old)
            np.testing.assert_array_equal(
                replica.forward(passes[0]), agent.actor.forward(passes[0])
            )

    def test_load_agent_into(self, passes, tmp_path):
        saved = _agent(seed=1)
        path = save_agent(saved, tmp_path / "agent.npz")
        agent = _agent(seed=2)
        before = _warm(agent.actor, passes)
        load_agent_into(agent, path)
        _assert_followed(agent.actor, passes, before)
        np.testing.assert_array_equal(
            agent.actor.forward(passes[0]), saved.actor.forward(passes[0])
        )

    def test_restore_serving_agent(self, passes, tmp_path):
        saved = _agent("fixar-dynamic", seed=1)
        saved.act(passes[0][0])  # a range to freeze
        saved.numerics.switch_to_half()
        path = save_agent(saved, tmp_path / "agent.npz")
        agent, _metadata = restore_serving_agent(path)
        assert_coherent(agent.actor, *passes)
        np.testing.assert_array_equal(
            agent.act_batch(passes[0]), saved.act_batch(passes[0])
        )

    def test_whole_array_assignment_through_the_handle(self, passes):
        mlp = _actor()
        layer = mlp.layers[0]
        before = _warm(mlp, passes)
        layer.weight[...] = np.random.default_rng(1).normal(size=layer._weight.shape)
        _assert_followed(mlp, passes, before)
        before = mlp.forward(passes[0])
        layer.bias[...] = 0.5
        _assert_followed(mlp, passes, before)

    def test_replacing_the_arrays(self, passes):
        mlp = _actor()
        layer = mlp.layers[0]
        before = _warm(mlp, passes)
        layer.weight = np.full(layer._weight.shape, 0.125)
        _assert_followed(mlp, passes, before)
        before = mlp.forward(passes[0])
        layer.bias = np.full(layer._bias.shape, -0.25)
        _assert_followed(mlp, passes, before)

    def test_element_nudges_through_the_handle(self, passes):
        mlp = _actor()
        layer = mlp.layers[2]
        before = _warm(mlp, passes)
        for _ in range(3):
            layer.weight[1, 2] += 0.125
            _assert_followed(mlp, passes, before)
            before = mlp.forward(passes[0])

    def test_in_place_arithmetic_on_parameters(self, passes):
        mlp = _actor()
        before = _warm(mlp, passes)
        for value in mlp.parameters().values():
            value += 0.25
        _assert_followed(mlp, passes, before)

    def test_layer_parameters_hands_out_handles_too(self, passes):
        mlp = _actor()
        before = _warm(mlp, passes)
        mlp.layers[0].parameters()["actor_fc0.bias"][...] = 1.0
        _assert_followed(mlp, passes, before)


# --------------------------------------------------------------------------- #
# Numerics changes
# --------------------------------------------------------------------------- #
class TestNumericsChanges:
    def test_replacing_a_layers_numerics(self, passes):
        mlp = _actor()
        before = _warm(mlp, passes)
        coarse = FixedPointNumerics(weight_format=QFormat(16, 4))
        for layer in mlp.layers:
            if isinstance(layer, Linear):
                layer.numerics = coarse
        mlp.numerics = coarse
        _assert_followed(mlp, passes, before)

    def test_swapping_the_weight_format(self, passes):
        mlp = _actor()
        before = _warm(mlp, passes)
        mlp.numerics.weight_format = QFormat(16, 4)
        _assert_followed(mlp, passes, before)

    def test_switch_to_half_mid_run(self, passes):
        mlp = _actor(numerics=make_numerics("fixar-dynamic"))
        before = _warm(mlp, passes)
        mlp.numerics.switch_to_half()
        _assert_followed(mlp, passes, before)

    def test_switch_layer_to_half_mid_run(self, passes):
        mlp = _actor(numerics=make_numerics("fixar-dynamic"))
        before = _warm(mlp, passes)
        mlp.numerics.switch_layer_to_half("actor_fc1", num_bits=4)
        _assert_followed(mlp, passes, before)


# --------------------------------------------------------------------------- #
# set_parameters / soft_update_from are all-or-nothing
# --------------------------------------------------------------------------- #
class TestAtomicWrites:
    def _snapshot(self, mlp):
        return {name: value.tobytes() for name, value in mlp._parameters().items()}

    def test_unknown_last_name_writes_nothing(self, passes):
        mlp, other = _actor(0), _actor(1)
        before, snapshot = _warm(mlp, passes), self._snapshot(mlp)
        params = dict(other.parameters())
        params["nope"] = np.zeros(1)
        with pytest.raises(ValueError, match="unknown parameter 'nope'"):
            mlp.set_parameters(params)
        assert self._snapshot(mlp) == snapshot
        np.testing.assert_array_equal(assert_coherent(mlp, *passes), before)

    def test_bad_last_shape_writes_nothing(self, passes):
        mlp, other = _actor(0), _actor(1)
        before, snapshot = _warm(mlp, passes), self._snapshot(mlp)
        params = dict(other.parameters())
        last = next(reversed(params))
        params[last] = np.zeros((2, 2))
        with pytest.raises(ValueError, match=r"shape mismatch for .*: \(3,\) vs \(2, 2\)"):
            mlp.set_parameters(params)
        assert self._snapshot(mlp) == snapshot
        np.testing.assert_array_equal(assert_coherent(mlp, *passes), before)

    def test_soft_update_from_a_network_missing_a_name(self, passes):
        mlp = _actor(0)
        # Same leading layers, so the first names match, but no output layer.
        short = MLP(_actor(1).layers[:4], numerics=mlp.numerics)
        before, snapshot = _warm(mlp, passes), self._snapshot(mlp)
        with pytest.raises(ValueError, match="has no parameter '4.actor_out.weight'"):
            mlp.soft_update_from(short, 0.5)
        assert self._snapshot(mlp) == snapshot
        np.testing.assert_array_equal(assert_coherent(mlp, *passes), before)


# --------------------------------------------------------------------------- #
# One flat buffer per network
# --------------------------------------------------------------------------- #
def assert_views_of_the_buffers(mlp: MLP) -> None:
    for layer in mlp.layers:
        if isinstance(layer, Linear):
            for array in (layer._weight, layer._bias):
                assert np.shares_memory(array, mlp._flat), layer.name
            for array in (layer.grad_weight, layer.grad_bias):
                assert np.shares_memory(array, mlp._grad_flat), layer.name
    for array in mlp._parameters().values():
        assert np.shares_memory(array, mlp._flat)
    for array in mlp.gradients().values():
        assert np.shares_memory(array, mlp._grad_flat)


class TestOneBufferPerNetwork:
    def test_every_writer_keeps_the_layers_views_of_the_buffer(self, tmp_path, passes):
        agent = _agent()
        networks = [agent.actor, agent.critic, agent.target_actor, agent.target_critic]
        for mlp in networks:
            assert_views_of_the_buffers(mlp)
        other = _actor(3)
        agent.actor.set_parameters(other.parameters())
        agent.actor.set_parameters({"0.actor_fc0.bias": np.zeros(HIDDEN[0])})
        agent.target_actor.copy_from(other)
        agent.target_actor.soft_update_from(agent.actor, 0.5)
        agent.actor.layers[0].weight = np.full((STATE_DIM, HIDDEN[0]), 0.25)
        agent.actor.layers[0].bias = np.full(HIDDEN[0], -0.25)
        agent.update(next(_batches(1)))
        load_agent_into(agent, save_agent(_agent(seed=3), tmp_path / "agent.npz"))
        for mlp in networks:
            assert_views_of_the_buffers(mlp)
        np.testing.assert_array_equal(agent.actor.layers[0]._weight, _agent(seed=3).actor.layers[0]._weight)

        workers = [
            CollectorWorker.from_agent(w, agent, HopperEnv(seed=0, max_episode_steps=30), 2)
            for w in range(2)
        ]
        collector = AsyncCollector(
            workers, ReplayBuffer(100, STATE_DIM, ACTION_DIM), source_agent=agent
        )
        collector.broadcast_weights()
        for worker in workers:
            replica = worker.engine.agent.actor
            assert_views_of_the_buffers(replica)
            np.testing.assert_array_equal(replica._flat, agent.actor._flat)
            assert not np.shares_memory(replica._flat, agent.actor._flat)

    def test_assigning_a_parameter_copies_into_the_buffer_with_its_shape(self):
        mlp = _actor()
        layer = mlp.layers[0]
        with pytest.raises(ValueError, match=r"cannot assign shape \(2, 2\)"):
            layer.weight = np.zeros((2, 2))
        value = np.full(layer._bias.shape, 0.5)
        layer.bias = value
        value[...] = 0.0
        np.testing.assert_array_equal(mlp._parameters()["0.actor_fc0.bias"], 0.5)

    def test_a_network_optimizer_rejects_a_plain_gradient_dict(self):
        mlp = _actor()
        optimizer = Adam(mlp.parameters(), 1e-2)
        before = mlp._flat.copy()
        with pytest.raises(TypeError, match=r"gradients\(\)"):
            optimizer.step(dict(mlp.gradients()))
        np.testing.assert_array_equal(mlp._flat, before)

    def test_two_passes_without_zero_grad_accumulate_per_tensor(self, passes):
        mlp = _actor()
        rng = np.random.default_rng(3)
        runs = [(rng.normal(size=(5, STATE_DIM)), rng.normal(size=(5, ACTION_DIM))) for _ in range(2)]
        expected = {}
        for inputs, upstream in runs:
            _, _, gradients = reference_passes(mlp, inputs, upstream)
            for name, (weight, bias) in gradients.items():
                before = expected.get(name, (0.0, 0.0))
                expected[name] = (before[0] + weight, before[1] + bias)
        mlp.zero_grad()
        for inputs, upstream in runs:
            mlp.forward(inputs)
            mlp.backward(upstream)
        for layer in mlp.layers:
            if isinstance(layer, Linear):
                np.testing.assert_array_equal(layer.grad_weight, expected[layer.name][0])
                np.testing.assert_array_equal(layer.grad_bias, expected[layer.name][1])

    @pytest.mark.parametrize("regime", ["fixed32", "fixar-dynamic", "float32"])
    def test_backward_switches_skip_only_unread_work(self, passes, regime):
        mlp = _actor(numerics=make_numerics(regime))
        inputs, upstream = passes
        _, expected_gradient, expected = reference_passes(mlp, inputs, upstream)
        mlp.zero_grad()
        mlp.forward(inputs)
        assert mlp.backward(upstream, input_grad=False) is None
        for layer in mlp.layers:
            if isinstance(layer, Linear):
                np.testing.assert_array_equal(layer.grad_weight, expected[layer.name][0])
                np.testing.assert_array_equal(layer.grad_bias, expected[layer.name][1])
        accumulated = mlp._grad_flat.copy()
        mlp.forward(inputs)
        np.testing.assert_array_equal(
            mlp.backward(upstream, parameter_grads=False), expected_gradient
        )
        np.testing.assert_array_equal(mlp._grad_flat, accumulated)


# --------------------------------------------------------------------------- #
# Whole learner runs against the uncached per-tensor learner
# --------------------------------------------------------------------------- #
class ReferenceLinear(Layer):
    """A dense layer that projects its weights on every pass."""

    def __init__(self, linear: Linear):
        self.name, self.numerics = linear.name, linear.numerics
        self.in_features, self.out_features = linear.in_features, linear.out_features
        # The very arrays the optimizers and target updates already hold.
        self.weight, self.bias = linear._weight, linear._bias
        self.grad_weight, self.grad_bias = linear.grad_weight, linear.grad_bias
        self._inputs = None

    def forward(self, inputs):
        self._inputs = inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        weight = self.numerics.project_weight(self.weight)
        return inputs @ weight + self.numerics.project_weight(self.bias)

    def backward(self, grad_output):
        grad_output = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        grad_output = self.numerics.project_gradient(grad_output)
        weight = self.numerics.project_weight(self.weight)
        self.grad_weight += self.numerics.project_gradient(self._inputs.T @ grad_output)
        self.grad_bias += self.numerics.project_gradient(grad_output.sum(axis=0))
        return grad_output @ weight.T

    def parameters(self):
        return {f"{self.name}.weight": self.weight, f"{self.name}.bias": self.bias}

    def gradients(self):
        return {f"{self.name}.weight": self.grad_weight, f"{self.name}.bias": self.grad_bias}

    def zero_grad(self):
        self.grad_weight[...] = 0.0
        self.grad_bias[...] = 0.0


class ReferenceMLP(MLP):
    """Per-tensor passes: a projection after every layer, every gradient
    computed whatever the caller reads, a Polyak average per tensor."""

    def forward(self, inputs):
        activation = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        current = None
        for layer in self.layers:
            if isinstance(layer, ReferenceLinear):
                current = layer.name
            activation = layer.forward(activation)
            self.numerics.observe_activation(activation, layer=current)
            activation = self.numerics.project_activation(activation, layer=current)
        return activation

    def backward(self, grad_output, **_switches):
        gradient = np.atleast_2d(np.asarray(grad_output, dtype=np.float64))
        for layer in reversed(self.layers):
            gradient = layer.backward(gradient)
            gradient = self.numerics.project_gradient(gradient)
        return gradient

    def zero_grad(self):
        for layer in self.layers:
            layer.zero_grad()

    def soft_update_from(self, other, tau):
        source = other._parameters()
        for name, value in self._parameters().items():
            value[...] = tau * source[name] + (1.0 - tau) * value


class ReferenceAdam:
    """Adam one named tensor at a time, allocating its temporaries."""

    def __init__(self, optimizer: Adam):
        self.parameters = dict(optimizer.parameters)
        self.learning_rate, self.project = optimizer.learning_rate, optimizer.project
        self.beta1, self.beta2, self.epsilon = optimizer.beta1, optimizer.beta2, optimizer.epsilon
        self.step_count = 0
        self._moment1 = {name: np.zeros_like(v) for name, v in self.parameters.items()}
        self._moment2 = {name: np.zeros_like(v) for name, v in self.parameters.items()}

    def step(self, gradients):
        self.step_count += 1
        bias_correction1 = 1.0 - self.beta1 ** self.step_count
        bias_correction2 = 1.0 - self.beta2 ** self.step_count
        for name, param in self.parameters.items():
            grad = gradients[name]
            m, v = self._moment1[name], self._moment2[name]
            m[...] = self.beta1 * m + (1.0 - self.beta1) * grad
            v[...] = self.beta2 * v + (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
        if self.project is not None:
            for value in self.parameters.values():
                value[...] = self.project(value)

    def state(self):
        return {"moment1": self._moment1, "moment2": self._moment2}


def as_reference(agent):
    """Swap every network and optimizer of ``agent`` for the per-tensor ones."""
    for owner, value in list(vars(agent).items()):
        if isinstance(value, MLP):
            value.__class__ = ReferenceMLP
            value.layers = [
                ReferenceLinear(layer) if isinstance(layer, Linear) else layer
                for layer in value.layers
            ]
        elif isinstance(value, Adam):
            setattr(agent, owner, ReferenceAdam(value))
    return agent


def _batches(count: int, size: int = 16):
    rng = np.random.default_rng(2024)
    for _ in range(count):
        yield TransitionBatch(
            states=rng.normal(size=(size, STATE_DIM)),
            actions=rng.uniform(-1.0, 1.0, size=(size, ACTION_DIM)),
            rewards=rng.normal(size=(size, 1)),
            next_states=rng.normal(size=(size, STATE_DIM)),
            dones=(rng.random(size=(size, 1)) < 0.1).astype(np.float64),
        )


def _record_consumed(agent) -> list:
    """Every gradient any optimizer of ``agent`` consumes, copied as it steps."""
    consumed = []
    for owner, optimizer in vars(agent).items():
        if isinstance(optimizer, (Adam, ReferenceAdam)):

            def recording(gradients, owner=owner, step=optimizer.step):
                consumed.append({f"{owner}/{k}": np.array(v) for k, v in gradients.items()})
                step(gradients)

            optimizer.step = recording
    return consumed


def _learner_state(agent):
    """Parameters of every network (targets included) and Adam moments.

    Not the gradient buffers: the critic's no longer ends an update holding
    the actor objective's sum, which the per-tensor learner computes through
    the critic and throws away; the gradients that matter are the ones each
    optimizer consumed (:func:`_record_consumed`).
    """
    state = {}
    for owner, value in vars(agent).items():
        if isinstance(value, MLP):
            for name, array in value._parameters().items():
                state[f"{owner}/{name}"] = array
        elif isinstance(value, (Adam, ReferenceAdam)):
            for moment, arrays in value.state().items():
                for name, array in arrays.items():
                    state[f"{owner}/{moment}/{name}"] = array
    return state


@pytest.mark.parametrize("regime", ["fixar-dynamic", "fixed32", "fixed16", "float32"])
def test_fifty_updates_match_the_uncached_learner(regime):
    agent = _agent(regime)
    twin = as_reference(_agent(regime))
    consumed, expected_consumed = _record_consumed(agent), _record_consumed(twin)
    probe = np.random.default_rng(5).normal(size=(STATE_DIM,))
    for index, batch in enumerate(_batches(50)):
        if index == 25 and regime == "fixar-dynamic":
            agent.numerics.switch_to_half()
            twin.numerics.switch_to_half()
        metrics, expected = agent.update(batch), twin.update(batch)
        np.testing.assert_equal(vars(metrics), vars(expected))
        np.testing.assert_array_equal(agent.act(probe), twin.act(probe))
    state, expected_state = _learner_state(agent), _learner_state(twin)
    assert state.keys() == expected_state.keys() and len(state) > 30
    for name, array in state.items():
        np.testing.assert_array_equal(array, expected_state[name], err_msg=name)
    assert len(consumed) == len(expected_consumed) >= 100
    for step, expected_step in zip(consumed, expected_consumed):
        assert step.keys() == expected_step.keys()
        for name, array in step.items():
            np.testing.assert_array_equal(array, expected_step[name], err_msg=name)


# --------------------------------------------------------------------------- #
# The count contract (no wall clock)
# --------------------------------------------------------------------------- #
def _count_projections(monkeypatch) -> dict:
    calls = {"project_weight": 0, "quantize": 0}
    project_weight, quantize = FixedPointNumerics.project_weight, QFormat.quantize

    def counted_project_weight(self, weight):
        calls["project_weight"] += 1
        return project_weight(self, weight)

    def counted_quantize(self, values):
        calls["quantize"] += 1
        return quantize(self, values)

    monkeypatch.setattr(FixedPointNumerics, "project_weight", counted_project_weight)
    monkeypatch.setattr(QFormat, "quantize", counted_quantize)
    return calls


@pytest.mark.perf
@pytest.mark.smoke
def test_weight_projections_per_update_and_per_act(monkeypatch):
    """One update projects 4 weight buffers; acting projects 6 arrays, once.

    Two projections are the two optimizers' post-step snaps (which are also
    the online networks' next cache fill) and two refill the two target
    networks after their soft update — one per network buffer.  A hundred
    ``act`` calls fill the actor's three layers at most once and never
    project again.
    """
    calls = _count_projections(monkeypatch)
    agent = _agent("fixar-dynamic")
    batches = list(_batches(2))
    state = np.random.default_rng(5).normal(size=(STATE_DIM,))
    agent.update(batches[0])  # every cache filled, optimizers warm

    calls.update(project_weight=0, quantize=0)
    agent.update(batches[1])
    assert calls["project_weight"] == 4
    # + 27 layer outputs over the five forward passes + 18 gradients: the
    # three backward passes project what their three dense layers are handed
    # (9) and the two input gradients between layers (6); the critic's pass
    # for the actor also projects the input gradient it returns (1), and the
    # two passes that compute weight gradients project their products once
    # each (2).
    assert calls["quantize"] == 4 + 27 + 18

    calls.update(project_weight=0, quantize=0)
    for _ in range(100):
        agent.act(state)
    assert calls["project_weight"] == 0  # the optimizer's projection was the fill
    assert calls["quantize"] == 100 * 6

    agent.actor.parameters()  # handles handed out: one refill, then none
    calls.update(project_weight=0, quantize=0)
    agent.act(state)
    assert calls["project_weight"] == 6
    for _ in range(99):
        agent.act(state)
    assert calls["project_weight"] == 6
    assert calls["quantize"] == 6 + 100 * 6


@pytest.mark.perf
@pytest.mark.smoke
def test_a_weight_broadcast_reads_the_learner_without_dropping_its_projection(monkeypatch):
    calls = _count_projections(monkeypatch)
    agent = _agent("fixar-dynamic")
    agent.update(next(_batches(1)))
    workers = [
        CollectorWorker.from_agent(w, agent, HopperEnv(seed=0, max_episode_steps=30), 2)
        for w in range(2)
    ]
    collector = AsyncCollector(
        workers, ReplayBuffer(100, STATE_DIM, ACTION_DIM), source_agent=agent
    )
    state = np.random.default_rng(5).normal(size=(STATE_DIM,))
    calls.update(project_weight=0)
    collector.broadcast_weights()
    agent.act(state)
    assert calls["project_weight"] == 0
