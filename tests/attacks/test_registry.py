"""Tests for the canonical attack registry and spec grammar."""

import numpy as np
import pytest

from repro.attacks import (
    BIM,
    FGSM,
    PGD,
    AttackSpec,
    RandomNoise,
    attack_names,
    build_attack,
    canonical_attack_name,
    check_attack_spec,
    parse_attack_spec,
)
from repro.attacks.losses import margin_loss
from repro.eval import RobustnessEvaluator
from repro.models import mnist_mlp


@pytest.fixture(scope="module")
def model():
    return mnist_mlp(seed=0)


class TestParse:
    def test_bare_name(self):
        spec = parse_attack_spec("fgsm")
        assert spec == AttackSpec("fgsm", {})

    def test_params_coerced(self):
        # Parsing is grammar only; check_attack_spec vets the names.
        spec = parse_attack_spec(
            "pgd:num_steps=10,step_size=0.05,flag=true,rng=none"
        )
        assert spec.name == "pgd"
        assert spec.params == {
            "num_steps": 10,
            "step_size": 0.05,
            "flag": True,
            "rng": None,
        }
        assert isinstance(spec.params["num_steps"], int)
        assert isinstance(spec.params["step_size"], float)

    def test_alias_expansion(self):
        assert parse_attack_spec("bim10") == AttackSpec(
            "bim", {"num_steps": 10}
        )
        assert parse_attack_spec("bim30") == AttackSpec(
            "bim", {"num_steps": 30}
        )
        assert parse_attack_spec("random_noise").name == "noise"

    def test_spec_params_override_alias_params(self):
        spec = parse_attack_spec("bim10:num_steps=7")
        assert spec.params["num_steps"] == 7

    def test_case_and_whitespace(self):
        assert parse_attack_spec("  FGSM  ").name == "fgsm"

    def test_render_round_trips(self):
        spec = parse_attack_spec("pgd:rng=3,num_steps=10")
        assert parse_attack_spec(spec.render()) == spec

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_attack_spec("bim:numsteps")
        with pytest.raises(ValueError, match="non-empty"):
            parse_attack_spec("")
        with pytest.raises(ValueError, match="non-empty"):
            parse_attack_spec(None)

    def test_passthrough(self):
        spec = AttackSpec("bim", {"num_steps": 4})
        assert parse_attack_spec(spec) is spec


class TestCanonicalNames:
    def test_known_names(self):
        assert canonical_attack_name("bim10") == "bim"
        assert canonical_attack_name("fgsm") == "fgsm"
        for clean in ("clean", "none", "original"):
            assert canonical_attack_name(clean) == "clean"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown attack"):
            canonical_attack_name("cw")

    def test_attack_names_sorted_canonical(self):
        names = attack_names()
        assert names == tuple(sorted(names))
        assert "bim" in names and "bim10" not in names


class TestBuild:
    @pytest.mark.parametrize(
        "spec,cls",
        [
            ("fgsm", FGSM),
            ("bim", BIM),
            ("pgd", PGD),
            ("noise", RandomNoise),
            ("random_noise", RandomNoise),
        ],
    )
    def test_builds_expected_class(self, model, spec, cls):
        attack = build_attack(spec, model, epsilon=0.25)
        assert type(attack) is cls
        assert attack.epsilon == 0.25

    def test_clean_specs_build_none(self, model):
        for spec in ("clean", "none", "original"):
            assert build_attack(spec, model, epsilon=0.25) is None

    def test_alias_step_counts(self, model):
        assert build_attack("bim10", model, epsilon=0.25).num_steps == 10
        assert build_attack("bim30", model, epsilon=0.25).num_steps == 30

    def test_spec_epsilon_overrides_keyword(self, model):
        attack = build_attack("bim:epsilon=0.1", model, epsilon=0.25)
        assert attack.epsilon == 0.1

    def test_missing_epsilon_rejected(self, model):
        with pytest.raises(ValueError, match="needs an epsilon"):
            build_attack("bim", model)

    def test_overrides_yield_to_spec_params(self, model):
        attack = build_attack(
            "bim:num_steps=3", model, epsilon=0.25, num_steps=7
        )
        assert attack.num_steps == 3

    def test_loss_fn_override(self, model):
        attack = build_attack(
            "fgsm", model, epsilon=0.25, loss_fn=margin_loss
        )
        assert attack.loss_fn is margin_loss

    def test_unknown_attack(self, model):
        with pytest.raises(KeyError, match="unknown attack"):
            build_attack("cw", model, epsilon=0.25)

    @pytest.mark.parametrize(
        "spec", ["bim:early_stop=true", "pgd:restarts=3", "fgsm:num_steps=2"]
    )
    def test_unknown_parameter_rejected(self, model, spec):
        with pytest.raises(ValueError, match="accepted: epsilon"):
            check_attack_spec(spec)
        with pytest.raises(ValueError, match="takes no parameter"):
            build_attack(spec, model, epsilon=0.25)

    def test_accepted_parameters_follow_the_constructor_chain(self):
        # SPSA's own keywords, BIM's via **kwargs, then Attack's.
        for key in ("samples", "num_steps", "clip_max", "epsilon"):
            check_attack_spec(f"spsa:{key}=1")
        assert check_attack_spec("bim10").params == {"num_steps": 10}
        assert check_attack_spec("clean").name == "clean"

    def test_removed_attack_is_unknown(self):
        with pytest.raises(KeyError, match="unknown attack"):
            check_attack_spec("mim")

    def test_built_attack_runs(self, model, digits_small):
        train, _test = digits_small
        x, y = train.arrays()
        x = np.asarray(x, dtype=np.float64)[:8]
        y = np.asarray(y)[:8]
        attack = build_attack(
            "pgd:num_steps=2,rng=0", model, epsilon=0.25
        )
        x_adv = attack.generate(x, y)
        assert x_adv.shape == x.shape
        assert np.all(np.abs(x_adv - x) <= 0.25 + 1e-12)


@pytest.mark.parametrize("name", attack_names())
def test_every_registered_attack_runs(name, model, digits_small):
    """Every name ``repro audit --attack`` accepts builds through the same
    spec parser and evaluator and runs on a small batch."""
    _train, test = digits_small
    x, y = (array[:8] for array in test.arrays())
    suite = RobustnessEvaluator.from_specs([name], epsilon=0.25)
    assert 0.0 <= suite.evaluate(model, x, y)[name] <= 1.0
    attack = build_attack(parse_attack_spec(name), model, epsilon=0.25)
    x_adv = attack.generate(x, y)
    assert x_adv.shape == x.shape
    assert np.all(np.abs(x_adv - x) <= 0.25 + 1e-6)
