"""Attack passes take input gradients only.

An attack step needs dL/dx and nothing else, so the victim's parameters
are frozen while it runs its forward and backward.  These tests pin the
two consequences: an attack leaves every ``param.grad`` untouched, and a
trainer's update is exactly the gradient of its training loss, with no
attack-step gradients mixed in.
"""

import numpy as np
import pytest

from repro.attacks import build_attack
from repro.attacks.base import frozen_parameters
from repro.data import DataLoader
from repro.defenses import build_trainer
from repro.models import mnist_mlp

ATTACKS = ["fgsm", "bim", "pgd", "mim", "pgd_l2", "deepfool"]

# Where each trainer obtains its adversarial half: (attribute path, method).
ATTACK_HOOKS = {
    "fgsm_adv": ((), "adversarial_batch"),
    "atda": (("_attack",), "generate"),
    "proposed": ((), "adversarial_batch"),
    "bim10_adv": ((), "adversarial_batch"),
    "trades": ((), "_maximise_kl"),
}


def _batch(digits_small, size=40):
    train, _ = digits_small
    return next(iter(DataLoader(train, batch_size=size, rng=0)))


def _fresh_trainer(method):
    return build_trainer(
        method, mnist_mlp(seed=0), epsilon=0.3, warmup_epochs=0
    )


def _hook_owner(trainer, method):
    path, name = ATTACK_HOOKS[method]
    owner = trainer
    for attr in path:
        owner = getattr(owner, attr)
    return owner, name


def _no_param_grads(model):
    return all(p.grad is None for p in model.parameters())


@pytest.mark.parametrize("name", ATTACKS)
def test_attack_leaves_param_grads_alone(name, digits_small):
    batch = _batch(digits_small, size=16)
    model = mnist_mlp(seed=0)
    kwargs = {"max_steps": 3} if name == "deepfool" else {}
    attack = build_attack(name, model, epsilon=0.3, **kwargs)
    attack.generate(batch.x, batch.y)
    assert _no_param_grads(model)
    assert all(p.requires_grad for p in model.parameters())


def test_epochwise_step_leaves_param_grads_alone(digits_small):
    batch = _batch(digits_small, size=16)
    trainer = _fresh_trainer("proposed")
    trainer.adversarial_batch(batch)
    assert trainer.cache_size == len(batch.y)
    assert _no_param_grads(trainer.model)


def test_trades_inner_maximisation_leaves_param_grads_alone(digits_small):
    from repro.autograd import Tensor

    batch = _batch(digits_small, size=16)
    trainer = _fresh_trainer("trades")
    clean_logits = trainer.model(Tensor(batch.x)).data
    trainer._maximise_kl(batch.x, clean_logits)
    assert _no_param_grads(trainer.model)


@pytest.mark.parametrize("method", list(ATTACK_HOOKS))
def test_update_is_gradient_of_training_loss(method, digits_small,
                                             monkeypatch):
    """The gradient ``optimizer.step`` sees equals, bit for bit, the
    gradient of the training loss rebuilt from the same ``x_adv`` on an
    identical fresh trainer whose attack is replaced by that constant."""
    batch = _batch(digits_small)
    trainer = _fresh_trainer(method)

    crafted = []
    owner, name = _hook_owner(trainer, method)
    real_attack = getattr(owner, name)

    def recording_attack(*args):
        x_adv = real_attack(*args)
        crafted.append(np.array(x_adv, copy=True))
        return x_adv

    monkeypatch.setattr(owner, name, recording_attack)
    seen = []
    real_step = trainer.optimizer.step

    def spying_step():
        seen.append([p.grad.copy() for p in trainer.model.parameters()])
        real_step()

    monkeypatch.setattr(trainer.optimizer, "step", spying_step)
    trainer.train_epoch([batch])
    assert len(crafted) == 1 and len(seen) == 1

    replay = _fresh_trainer(method)
    owner, name = _hook_owner(replay, method)
    monkeypatch.setattr(owner, name, lambda *args: crafted[0])
    replay.model.train()
    replay.compute_batch_loss(batch).backward()
    expected = [p.grad for p in replay.model.parameters()]
    assert len(expected) == len(seen[0])
    for got, want in zip(seen[0], expected):
        assert np.array_equal(got, want)


def test_parameters_restored_after_attack_raises(digits_small):
    batch = _batch(digits_small, size=8)
    model = mnist_mlp(seed=0)
    frozen_in_forward = []

    def exploding_forward(x):
        frozen_in_forward.append(
            not any(p.requires_grad for p in model.parameters())
        )
        raise RuntimeError("boom")

    model.head.forward = exploding_forward
    attack = build_attack("bim", model, epsilon=0.3, num_steps=2)
    with pytest.raises(RuntimeError, match="boom"):
        attack.generate(batch.x, batch.y)
    assert frozen_in_forward == [True]
    assert all(p.requires_grad for p in model.parameters())


def test_only_trainable_parameters_are_flipped():
    model = mnist_mlp(seed=0)
    fixed = model.head.weight
    fixed.requires_grad = False
    with frozen_parameters(model):
        assert not any(p.requires_grad for p in model.parameters())
    assert not fixed.requires_grad
    assert all(
        p.requires_grad for p in model.parameters() if p is not fixed
    )


def test_free_adv_still_updates_from_shared_backward(digits_small,
                                                     monkeypatch):
    batch = _batch(digits_small)
    trainer = build_trainer(
        "free_adv", mnist_mlp(seed=0), epsilon=0.3, warmup_epochs=0,
        replays=2,
    )
    seen = []
    real_step = trainer.optimizer.step

    def spying_step():
        seen.append([p.grad for p in trainer.model.parameters()])
        real_step()

    monkeypatch.setattr(trainer.optimizer, "step", spying_step)
    trainer.train_epoch([batch])
    assert len(seen) == 2
    for grads in seen:
        assert all(g is not None and np.any(g != 0) for g in grads)
