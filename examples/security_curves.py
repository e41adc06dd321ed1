"""Security curves: robust accuracy as a function of the attack budget.

Trains an undefended and a defended (proposed-method) classifier, then
sweeps the BIM(10) budget from small to large and prints both accuracy
curves — the standard whole-range comparison of defenses, and another view
of the crossover the paper's Table I captures at a single budget.

Run:
    python examples/security_curves.py
    python examples/security_curves.py --dataset fashion --epochs 60
"""

import argparse

from repro.attacks import BIM
from repro.data import DataLoader, load_dataset, dataset_epsilon
from repro.defenses import build_trainer
from repro.eval import format_curve, security_curves
from repro.models import mnist_mlp


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dataset", choices=("digits", "fashion"), default="digits"
    )
    parser.add_argument("--epochs", type=int, default=40)
    args = parser.parse_args()

    eps = dataset_epsilon(args.dataset)
    train, test = load_dataset(
        args.dataset, train_per_class=100, test_per_class=30, seed=0
    )
    x, y = test.arrays()
    loader = DataLoader(train, batch_size=128, rng=0)

    models = {}
    for name in ("vanilla", "proposed"):
        print(f"training {name} ...")
        model = mnist_mlp(seed=0)
        build_trainer(name, model, epsilon=eps, warmup_epochs=5).fit(
            loader, epochs=args.epochs
        )
        models[name] = model

    epsilons = [eps * f for f in (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)]
    curves = security_curves(
        models,
        lambda m, e: BIM(m, e, num_steps=10),
        x,
        y,
        epsilons,
    )
    for name, ys in curves.items():
        print()
        print(
            format_curve(
                [f"{e:.3f}" for e in epsilons],
                ys,
                x_label="epsilon",
                y_label="accuracy",
                title=f"-- {name} vs BIM(10) --",
            )
        )


if __name__ == "__main__":
    main()
