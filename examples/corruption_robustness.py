"""Corruption robustness: does adversarial training help benign noise?

Trains a vanilla and a defended (proposed-method) classifier and compares
their accuracy under the common-corruption suite (noise, blur, contrast,
pixelation, ...) at increasing severity — the non-adversarial companion to
the paper's evaluation.

Run:
    python examples/corruption_robustness.py
"""

import argparse

import numpy as np

from repro.data import DataLoader, corruption_sweep, load_dataset
from repro.defenses import build_trainer
from repro.eval import format_percent, format_table
from repro.models import mnist_mlp


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=40)
    args = parser.parse_args()

    train, test = load_dataset(
        "digits", train_per_class=100, test_per_class=30, seed=0
    )
    x, y = test.arrays()
    loader = DataLoader(train, batch_size=128, rng=0)

    models = {}
    for name in ("vanilla", "proposed"):
        print(f"training {name} ...")
        model = mnist_mlp(seed=0)
        build_trainer(name, model, epsilon=0.25, warmup_epochs=5).fit(
            loader, epochs=args.epochs
        )
        models[name] = model

    severities = (1, 3, 5)
    sweeps = {
        name: corruption_sweep(model, x, y, severities=severities, rng=0)
        for name, model in models.items()
    }

    corruption_names = sorted(next(iter(sweeps.values())))
    headers = ["corruption"] + [
        f"{model}@s{severity}"
        for model in sweeps
        for severity in severities
    ]
    rows = []
    for corruption in corruption_names:
        row = [corruption]
        for model in sweeps:
            for severity in severities:
                row.append(
                    format_percent(sweeps[model][corruption][severity])
                )
        rows.append(row)
    print()
    print(format_table(headers, rows, title="corruption robustness"))

    for name, sweep in sweeps.items():
        mean = np.mean(
            [sweep[c][s] for c in corruption_names for s in severities]
        )
        print(f"mean corrupted accuracy [{name}]: {format_percent(mean)}")


if __name__ == "__main__":
    main()
