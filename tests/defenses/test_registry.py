"""Tests for the defense registry."""

import pytest

from repro.defenses import (
    AtdaTrainer,
    EpochwiseAdvTrainer,
    FgsmAdvTrainer,
    IterAdvTrainer,
    PAPER_DEFENSES,
    Trainer,
    build_trainer,
)
from repro.models import mnist_mlp
from repro.optim import Adam, SGD


class TestBuildTrainer:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("vanilla", Trainer),
            ("fgsm_adv", FgsmAdvTrainer),
            ("atda", AtdaTrainer),
            ("proposed", EpochwiseAdvTrainer),
            ("bim10_adv", IterAdvTrainer),
            ("bim30_adv", IterAdvTrainer),
        ],
    )
    def test_builds_expected_class(self, name, cls):
        trainer = build_trainer(name, mnist_mlp(seed=0), epsilon=0.2)
        assert type(trainer) is cls

    def test_bim_step_counts(self):
        t10 = build_trainer("bim10_adv", mnist_mlp(seed=0), epsilon=0.2)
        t30 = build_trainer("bim30_adv", mnist_mlp(seed=0), epsilon=0.2)
        assert t10.num_steps == 10
        assert t30.num_steps == 30

    def test_all_names_listed(self):
        for name in PAPER_DEFENSES:
            build_trainer(name, mnist_mlp(seed=0), epsilon=0.2)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown defense"):
            build_trainer("magnet", mnist_mlp(seed=0), epsilon=0.2)

    def test_custom_optimizer_respected(self):
        model = mnist_mlp(seed=0)
        opt = SGD(model.parameters(), lr=0.5)
        trainer = build_trainer("vanilla", model, epsilon=0.2, optimizer=opt)
        assert trainer.optimizer is opt

    def test_default_optimizer_is_adam(self):
        trainer = build_trainer("vanilla", mnist_mlp(seed=0), epsilon=0.2)
        assert isinstance(trainer.optimizer, Adam)

    def test_kwargs_forwarded(self):
        trainer = build_trainer(
            "proposed", mnist_mlp(seed=0), epsilon=0.2, reset_interval=7
        )
        assert trainer.reset_interval == 7


class TestIterAdvPattern:
    """``bim{N}_adv`` / ``pgd{N}_adv`` resolve for ANY step count."""

    def test_arbitrary_bim_steps(self):
        trainer = build_trainer("bim7_adv", mnist_mlp(seed=0), epsilon=0.2)
        assert type(trainer) is IterAdvTrainer
        assert trainer.num_steps == 7

    def test_arbitrary_pgd_steps(self):
        from repro.defenses import PgdAdvTrainer

        trainer = build_trainer("pgd5_adv", mnist_mlp(seed=0), epsilon=0.2)
        assert type(trainer) is PgdAdvTrainer
        assert trainer.num_steps == 5

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="unknown defense"):
            build_trainer("cw9_adv", mnist_mlp(seed=0), epsilon=0.2)


class TestCanonicalNamesAndShim:
    def test_defense_names(self):
        from repro.defenses import defense_names
        from repro.defenses.registry import (
            EXTENSION_DEFENSES,
            PAPER_DEFENSES,
        )

        assert defense_names(include_extensions=False) == PAPER_DEFENSES
        assert defense_names() == PAPER_DEFENSES + EXTENSION_DEFENSES

    def test_every_canonical_name_builds(self):
        from repro.defenses import defense_names

        for name in defense_names():
            build_trainer(name, mnist_mlp(seed=0), epsilon=0.2)

    def test_old_row_names_still_resolve(self):
        """The pre-registry names keep building the same trainer types."""
        old_rows = {
            "vanilla": Trainer,
            "fgsm_adv": FgsmAdvTrainer,
            "atda": AtdaTrainer,
            "proposed": EpochwiseAdvTrainer,
            "bim10_adv": IterAdvTrainer,
            "bim30_adv": IterAdvTrainer,
        }
        for name, cls in old_rows.items():
            assert type(
                build_trainer(name, mnist_mlp(seed=0), epsilon=0.2)
            ) is cls


class TestTrainingAttackSpecs:
    """The defense trainers resolve their attacks via the attack registry."""

    def test_iter_adv_attack_comes_from_registry(self):
        from repro.attacks import BIM

        trainer = build_trainer("bim10_adv", mnist_mlp(seed=0), epsilon=0.2)
        attack = trainer.make_attack()
        assert type(attack) is BIM
        assert attack.num_steps == 10
        assert attack.epsilon == 0.2

    def test_mixed_trainer_accepts_spec_strings(self):
        from repro.attacks import MIM
        from repro.defenses import FgsmAdvTrainer

        model = mnist_mlp(seed=0)
        trainer = FgsmAdvTrainer(
            model,
            Adam(model.parameters(), lr=1e-3),
            epsilon=0.2,
            attack_spec="mim:num_steps=3",
        )
        attack = trainer.make_attack()
        assert type(attack) is MIM
        assert attack.num_steps == 3
        assert attack.epsilon == 0.2

    def test_clean_spec_rejected(self):
        from repro.defenses import FgsmAdvTrainer

        model = mnist_mlp(seed=0)
        trainer = FgsmAdvTrainer(
            model,
            Adam(model.parameters(), lr=1e-3),
            epsilon=0.2,
            attack_spec="clean",
        )
        with pytest.raises(ValueError, match="real attack"):
            trainer.make_attack()
