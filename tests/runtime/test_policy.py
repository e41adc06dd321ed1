"""Tests for the runtime precision-policy subsystem.

The suite runs under any ``REPRO_DTYPE`` (CI exercises float64 and
float32), so assertions compare against the environment-selected default
rather than hard-coding float64.
"""

import os
import threading

import numpy as np
import pytest

ENV_DEFAULT = np.dtype(os.environ.get("REPRO_DTYPE", "float64"))


def other_dtype(dtype):
    """The supported float dtype that is not ``dtype``."""
    if np.dtype(dtype) == np.dtype(np.float64):
        return np.dtype(np.float32)
    return np.dtype(np.float64)

from repro import runtime
from repro.autograd import Tensor, check_gradients
from repro.data import DataLoader, load_dataset
from repro.defenses import build_trainer
from repro.models import mnist_mlp
from repro.nn import Dense, Sequential
from repro.optim import SGD, Adam
from repro.runtime import (
    Policy,
    active_policy,
    compute_dtype,
    get_default_policy,
    precision,
    set_default_policy,
)


class TestPolicy:
    def test_default_policy_matches_env(self):
        policy = get_default_policy()
        assert policy.compute_dtype == ENV_DEFAULT
        # Gradient checking stays float64 whatever the env selects.
        assert policy.grad_check_dtype == np.dtype(np.float64)

    def test_from_dtype(self):
        policy = Policy.from_dtype("float32")
        assert policy.compute_dtype == np.dtype(np.float32)
        # Gradient checking always stays at float64.
        assert policy.grad_check_dtype == np.dtype(np.float64)

    def test_accum_defaults_to_compute(self):
        """A leaf's gradient buffer is created in the policy's compute
        dtype, even for a float64 leaf under a float32 policy."""
        with precision("float32"):
            w = Tensor(np.ones((2, 3)), requires_grad=True)
            (w * w).sum().backward()
        assert w.data.dtype == np.dtype(np.float64)
        assert w.grad.dtype == np.dtype(np.float32)

    def test_accumulation_keeps_grad_dtype(self):
        """A second backward into a float64 leaf under a float32 policy
        accumulates into the float32 ``.grad`` instead of widening it."""
        with precision("float32"):
            w = Tensor(np.ones((2, 3)), requires_grad=True)
            (w * w).sum().backward()
            (w * 3.0).sum().backward()
        assert w.grad.dtype == np.dtype(np.float32)
        np.testing.assert_array_equal(w.grad, np.full((2, 3), 5.0))

    def test_rejects_non_float_dtype(self):
        with pytest.raises(ValueError):
            Policy.from_dtype("int64")
        with pytest.raises(ValueError):
            Policy.from_dtype("float16")

    def test_set_default_policy_roundtrip(self):
        original = get_default_policy()
        flipped = other_dtype(original.compute_dtype)
        try:
            set_default_policy(str(flipped))
            assert compute_dtype() == flipped
        finally:
            set_default_policy(original)
        assert compute_dtype() == original.compute_dtype


class TestPrecisionStack:
    def test_push_pop(self):
        base = compute_dtype()
        flipped = other_dtype(base)
        with precision(str(flipped)):
            assert compute_dtype() == flipped
        assert compute_dtype() == base

    def test_nesting_restores_each_level(self):
        base = compute_dtype()
        flipped = other_dtype(base)
        with precision(str(flipped)):
            assert compute_dtype() == flipped
            with precision(str(base)):
                assert compute_dtype() == base
            assert compute_dtype() == flipped
        assert compute_dtype() == base

    def test_pop_on_exception(self):
        base = compute_dtype()
        with pytest.raises(RuntimeError):
            with precision(str(other_dtype(base))):
                raise RuntimeError("boom")
        assert compute_dtype() == base

    def test_accepts_policy_instance(self):
        policy = Policy(
            compute_dtype=np.dtype(np.float32),
            grad_check_dtype=np.dtype(np.float32),
        )
        with precision(policy):
            assert active_policy() is policy

    def test_stack_is_thread_local(self):
        base = compute_dtype()
        flipped = other_dtype(base)
        seen = {}
        barrier = threading.Barrier(2)

        def worker():
            # The main thread's active precision region must not leak here:
            # a fresh thread sees the process default, not the caller's.
            barrier.wait(timeout=5)
            seen["worker"] = compute_dtype()
            with precision(str(flipped)):
                seen["worker_inner"] = compute_dtype()

        thread = threading.Thread(target=worker)
        with precision(str(flipped)):
            thread.start()
            barrier.wait(timeout=5)
            thread.join(timeout=5)
            seen["main"] = compute_dtype()
        assert seen["main"] == flipped
        assert seen["worker"] == base
        assert seen["worker_inner"] == flipped


class TestModuleToDtype:
    def _model(self):
        return Sequential(Dense(4, 8), Dense(8, 2))

    def test_params_cast_in_place(self):
        model = self._model()
        params = list(model.parameters())
        model.to_dtype("float32")
        after = list(model.parameters())
        assert all(a is b for a, b in zip(params, after))  # identity kept
        assert all(p.data.dtype == np.dtype(np.float32) for p in params)

    def test_optimizer_buffers_follow_params(self):
        for make_opt in (
            lambda ps: SGD(ps, lr=0.1),
            lambda ps: Adam(ps, lr=0.01),
        ):
            model = self._model()
            optimizer = make_opt(list(model.parameters()))
            x = np.random.default_rng(0).normal(size=(8, 4))

            def step():
                optimizer.zero_grad()
                dtype = next(iter(model.parameters())).data.dtype
                out = model(Tensor(x.astype(dtype)))
                out.sum().backward()
                optimizer.step()

            step()  # allocate state buffers at float64
            model.to_dtype("float32")
            step()  # buffers must re-sync to the new parameter dtype
            for param in model.parameters():
                assert param.data.dtype == np.dtype(np.float32)
        # Adam's moment buffers followed the cast as well.
        for buffer in (*optimizer._m, *optimizer._v):
            assert buffer.dtype == np.dtype(np.float32)

    def test_rejects_integer_dtype(self):
        with pytest.raises(TypeError):
            self._model().to_dtype("int32")


class TestFloat32EndToEnd:
    def test_epochwise_trainer_cache_stays_float32(self):
        with precision("float32"):
            train, _ = load_dataset(
                "digits", train_per_class=5, test_per_class=1, seed=0
            )
            loader = DataLoader(train, batch_size=16, rng=0)
            model = mnist_mlp(seed=0)
            trainer = build_trainer(
                "proposed", model, epsilon=0.25, lr=1e-3
            )
            for _ in range(2):
                loss = trainer.train_epoch(loader)
            assert np.isfinite(loss)
            assert trainer.cache_size > 0
            store = trainer.delta_store
            cache_dtypes = {store.delta(i).dtype for i in store.indices()}
            assert cache_dtypes == {np.dtype(np.float32)}
            param_dtypes = {p.data.dtype for p in model.parameters()}
            assert param_dtypes == {np.dtype(np.float32)}

    def test_grad_check_pins_float64_under_float32_policy(self):
        with precision("float32"):
            x = Tensor(
                np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True
            )
            # Passes only if finite differences run at grad_check_dtype:
            # eps=1e-6 perturbations vanish in float32 arithmetic.
            check_gradients(lambda t: (t * t).sum(), (x,))
