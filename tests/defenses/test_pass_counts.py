"""Forward/backward passes per batch for each Table I trainer.

The paper's cost argument is a pass count: the epochwise defense pays the
single-step price (one attack gradient plus the training step) instead of
BIM(k)-Adv's k attack gradients.  One model pass is one
``FeatureClassifier.embed`` call; one backward pass is one
``Tensor.backward`` call.  The clean and adversarial halves of the
training loss are separate forwards but share one backward, so the
single-step methods run 3 forwards and 2 backwards per batch and
BIM(k)-Adv runs k + 2 and k + 1.
"""

import pytest

from repro.autograd import Tensor
from repro.data import DataLoader
from repro.defenses import build_trainer
from repro.models import mnist_mlp
from repro.models.classifier import FeatureClassifier

# method: (forwards per batch, backwards per batch)
EXPECTED = {
    "vanilla": (1, 1),
    "fgsm_adv": (3, 2),
    "atda": (3, 2),
    "proposed": (3, 2),
    "bim10_adv": (12, 11),
    "bim30_adv": (32, 31),
}


def _counting(counts, key, real):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("method", list(EXPECTED))
def test_passes_per_batch(method, digits_small, monkeypatch):
    train, _ = digits_small
    loader = DataLoader(train, batch_size=50, rng=0)
    # Adversarial trainers start attacking from the first epoch.
    kwargs = {} if method == "vanilla" else {"warmup_epochs": 0}
    trainer = build_trainer(method, mnist_mlp(seed=0), epsilon=0.3, **kwargs)
    counts = {"forward": 0, "backward": 0}
    monkeypatch.setattr(
        FeatureClassifier, "embed",
        _counting(counts, "forward", FeatureClassifier.embed),
    )
    monkeypatch.setattr(
        Tensor, "backward", _counting(counts, "backward", Tensor.backward)
    )
    trainer.train_epoch(loader)
    batches = len(loader)
    assert batches > 1
    per_batch = (counts["forward"] / batches, counts["backward"] / batches)
    assert per_batch == EXPECTED[method]
