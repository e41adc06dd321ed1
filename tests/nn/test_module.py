"""Tests for the Module/Parameter system."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Dense, Module, Parameter, ReLU, Sequential
from repro.runtime import compute_dtype


class Net(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Dense(4, 3, rng=0)
        self.fc2 = Dense(3, 2, rng=1)

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


class TestParameter:
    def test_requires_grad(self):
        assert Parameter(np.ones(3)).requires_grad

    def test_adopts_policy_dtype(self):
        # Parameters always carry the active policy's compute dtype,
        # whatever dtype the initial array arrived in.
        assert Parameter(np.ones(3, dtype=np.float32)).dtype == compute_dtype()
        assert Parameter(np.ones(3, dtype=np.float64)).dtype == compute_dtype()

    def test_repr(self):
        assert "shape=(2, 3)" in repr(Parameter(np.ones((2, 3))))


class TestRegistration:
    def test_named_parameters_nested(self):
        names = dict(Net().named_parameters()).keys()
        assert names == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}

    def test_parameters_count(self):
        net = Net()
        assert net.num_parameters() == 4 * 3 + 3 + 3 * 2 + 2

    def test_children(self):
        assert len(list(Net().children())) == 2

    def test_named_modules_includes_self(self):
        names = [name for name, _m in Net().named_modules()]
        assert "" in names and "fc1" in names and "fc2" in names

    def test_sequential_parameter_names_are_indexed(self):
        seq = Sequential(Dense(2, 2, rng=0), ReLU(), Dense(2, 1, rng=1))
        names = dict(seq.named_parameters()).keys()
        assert "0.weight" in names and "2.weight" in names


class TestTrainEval:
    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor([1.0]))


class TestGradients:
    def test_zero_grad(self):
        net = Net()
        out = net(Tensor(np.ones((2, 4)))).sum()
        out.backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestStateDict:
    def test_roundtrip(self):
        net1, net2 = Net(), Net()
        # Different seeds would be nicer but Net is deterministic; mutate.
        for p in net1.parameters():
            p.data = p.data + 1.0
        net2.load_state_dict(net1.state_dict())
        for p1, p2 in zip(net1.parameters(), net2.parameters()):
            assert np.array_equal(p1.data, p2.data)

    def test_state_dict_copies(self):
        net = Net()
        state = net.state_dict()
        state["fc1.weight"][0, 0] = 999.0
        assert net.fc1.weight.data[0, 0] != 999.0

    def test_missing_key_raises(self):
        net = Net()
        state = net.state_dict()
        del state["fc1.weight"]
        with pytest.raises(KeyError, match="fc1.weight"):
            net.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        net = Net()
        state = net.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            net.load_state_dict(state)



def test_repr_shows_tree():
    text = repr(Net())
    assert "Net(" in text and "(fc1)" in text and "Dense" in text
