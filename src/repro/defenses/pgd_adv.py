"""PGD adversarial training (Madry et al., 2017) — extension baseline.

Identical to :class:`~repro.defenses.adversarial.IterAdvTrainer` except the
inner attack uses a uniform random start inside the epsilon-ball, which
prevents the training attack from repeatedly probing the same boundary
point.  Included for the paper's future-work comparison of Iter-Adv
variants.
"""

from __future__ import annotations

from ..attacks import Attack, build_attack
from .adversarial import IterAdvTrainer

__all__ = ["PgdAdvTrainer"]


class PgdAdvTrainer(IterAdvTrainer):
    """Iter-Adv with PGD (random-start BIM) as the training attack.

    The random starts draw from the trainer's ``rng``
    (see :class:`~repro.defenses.trainer.Trainer`).
    """

    name = "pgd_adv"

    def make_attack(self) -> Attack:
        """Build the PGD training attack bound to the current model."""
        return build_attack(
            "pgd",
            self.model,
            epsilon=self.epsilon,
            num_steps=self.num_steps,
            step_size=self.step_size,
            rng=self.rng,
            loss_fn=self.loss_fn,
        )
