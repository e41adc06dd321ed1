"""repro — reproduction of Liu, Khalil & Khreishah (DSN-W 2019):
"Using Intuition from Empirical Properties to Simplify Adversarial
Training Defense".

The package is organised bottom-up:

* :mod:`repro.autograd` — numpy reverse-mode automatic differentiation.
* :mod:`repro.nn` — neural-network layers, losses, module system.
* :mod:`repro.optim` — optimizers.
* :mod:`repro.data` — datasets, loaders, synthetic MNIST/Fashion stand-ins.
* :mod:`repro.models` — classifier architectures used in the experiments.
* :mod:`repro.attacks` — FGSM / BIM / PGD white-box attacks, plus SPSA and
  random noise as gradient-free cross-checks.
* :mod:`repro.defenses` — vanilla, FGSM-Adv, Iter-Adv, ATDA, and the
  paper's proposed epoch-wise trainer.
* :mod:`repro.eval` — robustness metrics and measurement protocols.
* :mod:`repro.experiments` — runners for Figure 1, Figure 2, Table I and
  the design-choice ablations.
* :mod:`repro.telemetry` — zero-dependency observability: tracing spans,
  counters/gauges/histograms, JSONL run records and the ``repro report``
  per-epoch timing breakdown.

Quickstart::

    from repro.data import load_dataset, DataLoader
    from repro.models import mnist_mlp
    from repro.defenses import build_trainer
    from repro.eval import RobustnessEvaluator

    train, test = load_dataset("digits")
    model = mnist_mlp(seed=0)
    trainer = build_trainer("proposed", model, epsilon=0.25, warmup_epochs=5)
    trainer.fit(DataLoader(train, rng=0), epochs=80)
    x, y = test.arrays()
    print(RobustnessEvaluator.paper_suite(0.25).evaluate(model, x, y))
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
