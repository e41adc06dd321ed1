"""Attack gallery: compare FGSM / BIM / PGD / random noise.

Trains a vanilla classifier and runs every attack in the library against
it at the same budget, reporting accuracy, the actual l_inf perturbation
used, and an ASCII rendering of one clean/adversarial pair.

Run:
    python examples/attack_gallery.py
"""

import argparse

import numpy as np

from repro.attacks import BIM, FGSM, PGD, RandomNoise
from repro.data import DataLoader, load_dataset
from repro.defenses import build_trainer
from repro.eval import clean_accuracy, format_percent, format_table, robust_accuracy
from repro.models import mnist_mlp


def ascii_image(image: np.ndarray, width: int = 28) -> str:
    """Render a [0, 1] grayscale image with ASCII shades."""
    shades = " .:-=+*#%@"
    rows = []
    for row in np.asarray(image).reshape(width, width):
        rows.append(
            "".join(shades[min(int(v * (len(shades) - 1)), 9)] for v in row)
        )
    return "\n".join(rows)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.25)
    parser.add_argument("--epochs", type=int, default=15)
    args = parser.parse_args()

    train, test = load_dataset(
        "digits", train_per_class=100, test_per_class=30, seed=0
    )
    test_x, test_y = test.arrays()

    print("training a vanilla classifier ...")
    model = mnist_mlp(seed=0)
    build_trainer("vanilla", model, epsilon=args.epsilon).fit(
        DataLoader(train, batch_size=128, rng=0), epochs=args.epochs
    )
    print(
        "clean accuracy:",
        format_percent(clean_accuracy(model, test_x, test_y)),
    )

    eps = args.epsilon
    attacks = [
        RandomNoise(model, eps, rng=0),
        FGSM(model, eps),
        BIM(model, eps, num_steps=10),
        PGD(model, eps, num_steps=10, rng=0),
    ]
    rows = []
    for attack in attacks:
        x_adv = attack.generate(test_x, test_y)
        acc = robust_accuracy(model, attack, test_x, test_y)
        linf = float(np.abs(x_adv - test_x).max())
        rows.append([attack.name, format_percent(acc), f"{linf:.3f}"])
    print()
    print(
        format_table(
            ["attack", "accuracy", "max |perturbation|"],
            rows,
            title=f"attack comparison at eps={eps}",
        )
    )

    # Show one clean/adversarial pair.
    bim = BIM(model, eps, num_steps=10)
    x_adv = bim.generate(test_x[:1], test_y[:1])
    clean_pred = model.predict(test_x[:1])[0]
    adv_pred = model.predict(x_adv)[0]
    print(f"\nclean example (predicted {clean_pred}, true {test_y[0]}):")
    print(ascii_image(test_x[0]))
    print(f"\nBIM adversarial example (predicted {adv_pred}):")
    print(ascii_image(x_adv[0]))


if __name__ == "__main__":
    main()
