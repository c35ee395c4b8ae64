"""Each config dataclass checks its fields against their annotations."""

import dataclasses
import math
import re
import typing

import numpy as np
import pytest

from denoiseclf import cli
from denoiseclf.denoise import DenoiseConfig
from denoiseclf.encoder import EncoderConfig
from denoiseclf.errors import ConfigError
from denoiseclf.model import ModelConfig
from denoiseclf.noise import NoiseSpec, pool_of
from denoiseclf.train import TrainConfig

# each config class with the arguments of one valid instance
CONFIGS = [
    (EncoderConfig, {}),
    (DenoiseConfig, {"dims": (64, 16, 8, 4)}),
    (ModelConfig, {}),
    (TrainConfig, {}),
    (NoiseSpec, {"pool": ("a", "b")}),
]


def _fields(*types):
    """(class, valid arguments, field name) of every field of the five
    config classes whose annotation is one of ``types``."""
    params = []
    for cls, valid in CONFIGS:
        hints = typing.get_type_hints(cls)
        params += [pytest.param(cls, valid, f.name,
                                id=f"{cls.__name__}.{f.name}")
                   for f in dataclasses.fields(cls) if hints[f.name] in types]
    return params


@pytest.mark.parametrize("cls,valid,name", _fields(int, int | None))
def test_an_int_field_rejects_floats_bools_and_strings(cls, valid, name):
    for value in (2.0, True, "2"):
        with pytest.raises(ConfigError, match=f"^{name} must be an int, got "):
            cls(**valid | {name: value})


@pytest.mark.parametrize("cls,valid,name", _fields(float, float | None))
def test_a_float_field_rejects_bools_and_strings_and_takes_an_int(
        cls, valid, name):
    for value in (True, "0.1"):
        with pytest.raises(ConfigError,
                           match=f"^{name} must be a float, got "):
            cls(**valid | {name: value})
    assert getattr(cls(**valid | {name: 1}), name) == 1


@pytest.mark.parametrize("cls,valid,name", _fields(
    tuple[int, int, int, int], tuple[int, int, int], tuple[str, ...]))
def test_a_list_given_to_a_tuple_field_is_stored_as_the_tuple(
        cls, valid, name):
    config = cls(**valid)
    as_list = cls(**valid | {name: list(getattr(config, name))})
    assert isinstance(getattr(as_list, name), tuple)
    assert as_list == config


def test_a_str_element_of_dims_is_rejected():
    with pytest.raises(ConfigError, match=r"^dims\[2\] must be an int, "
                                          r"got '8'$"):
        DenoiseConfig(dims=(64, 16, "8", 4))


@pytest.mark.parametrize("cls,args,message", [
    (ModelConfig, {"n_post": -2}, "n_post must be >= 0, got -2"),
    (TrainConfig, {"batch_size": 2.5}, "batch_size must be an int, got 2.5"),
    (TrainConfig, {"seed": 1.5}, "seed must be an int, got 1.5"),
    (NoiseSpec, {"seed": 1.5}, "seed must be an int, got 1.5"),
    (NoiseSpec, {"p_delete": True}, "p_delete must be a float, got True"),
    (EncoderConfig, {"hidden_size": "x"},
     "hidden_size must be an int, got 'x'"),
    (ModelConfig, {"denoise": {"dims": [64, 16, 8, 4]}},
     "denoise must be a DenoiseConfig, got "),
    (NoiseSpec, {"pool": ("a", 1)}, r"pool\[1\] must be a str, got 1"),
], ids=["n-post-negative", "batch-size-a-float", "train-seed-a-float",
        "noise-seed-a-float", "p-delete-a-bool", "hidden-size-a-str",
        "denoise-a-dict", "pool-holds-an-int"])
def test_wrongly_typed_configs_do_not_construct(cls, args, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        cls(**args)


def test_optional_fields_parse_an_empty_value_as_none():
    assert cli._KINDS["n_post"]("") is None
    assert cli._KINDS["n_post"]("3") == 3
    assert cli._KINDS["ff_size"]("") is None
    assert cli._KINDS["ff_size"]("48") == 48
    assert cli._KINDS["target_wer"]("") is None
    assert cli._KINDS["target_wer"]("0.25") == 0.25


def test_only_options_without_a_field_state_a_type():
    stated = {name for opts in cli.OPTIONS.values()
              for name, _, _, *own in opts if own}
    assert stated == {"test_fraction", "synthetic_per_class", "mode"}


@pytest.mark.parametrize("cls,args,message", [
    (NoiseSpec, {"seed": -1}, "seed must be >= 0, got -1"),
    (TrainConfig, {"seed": -1}, "seed must be >= 0, got -1"),
    (NoiseSpec, {"target_wer": math.inf},
     r"target WER must lie in \(0, 2\], got inf"),
    (NoiseSpec, {"target_wer": math.nan},
     r"target WER must lie in \(0, 2\], got nan"),
    (NoiseSpec, {"target_wer": 0.0},
     r"target WER must lie in \(0, 2\], got 0.0"),
    (NoiseSpec, {"target_wer": 2.5},
     r"target WER must lie in \(0, 2\], got 2.5"),
    # a zero width would divide by zero in the stage's fan-in init
    (DenoiseConfig, {"dims": (16, 8, 4, 2), "hidden_dims": (0, 5, 3)},
     r"hidden_dims must be >= 1, got \(0, 5, 3\)"),
], ids=["noise-seed-negative", "train-seed-negative", "target-inf",
        "target-nan", "target-zero", "target-past-two", "hidden-width-zero"])
def test_out_of_range_configs_do_not_construct(cls, args, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        cls(**args)


def test_range_bounds_construct():
    assert NoiseSpec(seed=0, target_wer=2.0).target_wer == 2.0
    assert NoiseSpec(target_wer=1e-9).seed == 0
    assert TrainConfig(seed=0).seed == 0


@pytest.mark.parametrize("word", ["Cat!", "two words", "?", "", "cat "])
def test_a_pool_word_that_is_not_one_token_is_refused(word):
    with pytest.raises(ConfigError, match=f"^pool word {re.escape(repr(word))}"
                                          " is not one normalize token$"):
        NoiseSpec(pool=("a", word, "b"))


@pytest.mark.parametrize("seed", range(5))
def test_the_pool_of_any_corpus_is_accepted(seed):
    # pool_of keeps the normalize tokens of text with capitals,
    # punctuation, digits and apostrophes
    rng = np.random.default_rng(seed)
    chars = list("abcXYZ019'.,!? -\t")
    corpus = ["".join(rng.choice(chars, size=rng.integers(0, 40)))
              for _ in range(30)]
    pool = pool_of(corpus)
    assert pool and NoiseSpec(pool=pool).pool == pool
