"""The shared config codec: round trips, rejection, validation on every construction."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from szdl.cli import load_run_config
from szdl.model import ModelConfig
from szdl.train import CHECKPOINT_VERSION, TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def nested_config():
    return TrainConfig(
        model=ModelConfig(input_extent=32, width_scale=1 / 8, se_ratio=4,
                          classifier_dims=(16, 8)),
        learning_rate=3e-4, seed=11, augment=False)


class TestCodec:
    def test_nested_round_trip(self):
        cfg = nested_config()
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_through_json(self):
        cfg = nested_config()
        assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_subset_keeps_defaults(self):
        cfg = TrainConfig.from_dict({"seed": 4, "model": {"se_ratio": 8}})
        assert cfg == TrainConfig(seed=4, model=ModelConfig(se_ratio=8))

    @pytest.mark.parametrize("data", [[], "seed", 3, None])
    def test_non_dict_rejected(self, data):
        with pytest.raises(TypeError):
            TrainConfig.from_dict(data)

    @pytest.mark.parametrize("data", [{"batch_size": 2.5}, {"augment": 1}, {"seed": True},
                                      {"model": {"se_ratio": "4"}},
                                      {"model": {"classifier_dims": 64}}])
    def test_wrong_value_type_rejected(self, data):
        with pytest.raises(TypeError):
            TrainConfig.from_dict(data)

    def test_int_stands_for_float(self):
        assert TrainConfig.from_dict({"learning_rate": 1}).learning_rate == 1.0

    def test_nested_non_dict_rejected(self):
        with pytest.raises(TypeError):
            TrainConfig.from_dict({"model": [96]})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            TrainConfig.from_dict({"model": {"bogus": 1}})


class TestValidOnConstruction:
    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            replace(TrainConfig(), learning_rate=-1)

    @pytest.mark.parametrize("field", [{"classifier_dims": (8, 4, 2)}])
    def test_model_config_unbuildable_fields_rejected(self, field):
        with pytest.raises(ValueError):
            ModelConfig(**field)


class TestReadme:
    def test_run_config_example_loads(self, tmp_path):
        block = re.search(r"## Run config.*?```json\n(.*?)```", README.read_text(),
                          re.S).group(1)
        path = tmp_path / "config.json"
        path.write_text(block)
        cfg = load_run_config(path)
        assert cfg == TrainConfig()

    def test_checkpoint_paragraph_states_version(self):
        paragraph = re.search(r"- \*\*Checkpoint\*\*.*?(?=\n- \*\*)", README.read_text(),
                              re.S).group(0)
        assert f"magic `SZDL`, version {CHECKPOINT_VERSION}," in paragraph
        assert f"expected {CHECKPOINT_VERSION}`" in paragraph
