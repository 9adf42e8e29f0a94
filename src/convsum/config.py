"""Flat, typed key=value run configuration.

The schema below is the documented contract: one `key = value` per line,
`#` comments, unknown keys are errors. `conv_layers` is a comma-separated
integer list (empty string for none).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import get_type_hints

from .attention import AttentionConfig
from .decoding import DecodingConfig
from .errors import ConfigError, ContractError
from .files import read_text
from .model import ModelConfig, Summarizer
from .optim import OptimizerState
from .providers import EmbeddingProvider, StubProvider
from .tokenizer import Vocab
from .windowing import WindowingConfig


# RunConfig fields named differently in the sub-config they fill
_RENAMED = {"adam_eps": "eps"}


@dataclass
class RunConfig:
    """Every run setting, flat. A setting a sub-config uses takes its default
    from that class and is passed to it by name (see `_sub`)."""

    # run
    seed: int = 0
    vocab: str = ""
    corpus: str = ""
    checkpoint_dir: str = "checkpoints"
    steps: int = 1000
    batch_size: int = 8
    checkpoint_every: int = 500
    max_source_len: int = 512
    full_text: bool = False
    # model
    d_model: int = ModelConfig.d_model
    enc_layers: int = ModelConfig.enc_layers
    dec_layers: int = ModelConfig.dec_layers
    ff_size: int = ModelConfig.ff_size
    heads: int = AttentionConfig.heads
    token_kernel: int = AttentionConfig.token_kernel
    head_kernel: int = AttentionConfig.head_kernel
    circular: bool = AttentionConfig.circular
    conv_layers: tuple = AttentionConfig.conv_layers
    dropout: float = ModelConfig.dropout
    label_smoothing: float = ModelConfig.label_smoothing
    integration: str = ModelConfig.integration
    copy: bool = ModelConfig.copy
    decoder_conditioned: bool = ModelConfig.decoder_conditioned
    # embedding provider
    provider: str = "none"
    provider_width: int = 64  # the stub's width; a model reads it from its provider
    provider_window: int = 512
    provider_seed: int = 0
    window: int = WindowingConfig.window
    stride: int = WindowingConfig.stride
    # optimizer
    warmup: int = OptimizerState.warmup
    beta1: float = OptimizerState.beta1
    beta2: float = OptimizerState.beta2
    adam_eps: float = OptimizerState.eps
    # decoding
    beam_size: int = DecodingConfig.beam_size
    min_length: int = DecodingConfig.min_length
    max_length: int = DecodingConfig.max_length
    coverage_beta: float = DecodingConfig.coverage_beta

    def __post_init__(self):
        self.conv_layers = tuple(self.conv_layers)

    def _sub(self, cls, **given):
        """`cls` built from every field it shares with this config, plus `given`."""
        ours = {_RENAMED.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        return cls(**{f.name: ours[f.name] for f in fields(cls) if f.name in ours}, **given)

    def attention_config(self) -> AttentionConfig:
        return self._sub(AttentionConfig)

    def model_config(self) -> ModelConfig:
        return self._sub(ModelConfig, attention=self.attention_config())

    def windowing_config(self) -> WindowingConfig:
        return self._sub(WindowingConfig)

    def decoding_config(self) -> DecodingConfig:
        return self._sub(DecodingConfig)

    def optimizer_state(self) -> OptimizerState:
        return self._sub(OptimizerState)

    def validate(self) -> "RunConfig":
        """Check the run loop's counts, the seeds and the provider's width
        and window, and construct every sub-config, so an invalid value fails
        here, before any data is read.

        A sub-config's own ContractError is re-raised as a ConfigError: here
        the bad value came from a config file or a flag.
        """
        for name in ("steps", "batch_size", "checkpoint_every", "max_source_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("seed", "provider_seed"):  # numpy generators take no negative seed
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        try:
            self.model_config()
            self.windowing_config()
            self.decoding_config()
            self.optimizer_state()
        except ContractError as e:
            raise ConfigError(str(e)) from e
        if self.provider not in ("none", "stub"):
            raise ConfigError(f"unknown provider '{self.provider}' (expected 'none' or 'stub')")
        if self.provider == "none" and (self.integration != "none" or self.decoder_conditioned):
            raise ConfigError("integration and decoder_conditioned need a provider, not 'none'")
        if self.provider != "none" and self.provider_width < 1:
            raise ConfigError(f"provider_width must be >= 1, got {self.provider_width}")
        if self.provider != "none" and self.provider_window < self.window:
            raise ConfigError(f"provider_window {self.provider_window} is smaller than "
                              f"window {self.window}: a window would not fit the provider")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """A config from decoded values (a checkpoint's JSON meta, or parsed
        flags); each value must have its key's SCHEMA kind."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in d.items():
            if not _has_kind(value, SCHEMA[key]):
                raise ConfigError(f"config key '{key}': {value!r} is not of kind {SCHEMA[key]}")
        return cls(**d)


# key -> parser kind, from RunConfig's annotations; this is the documented
# schema for config files and flags ("ints": a comma-separated int list)
_KINDS = {int: "int", float: "float", bool: "bool", str: "str", tuple: "ints"}
SCHEMA: dict[str, str] = {
    name: _KINDS[kind] for name, kind in get_type_hints(RunConfig).items()
}


def _has_kind(value, kind: str) -> bool:
    """Whether a decoded value has a schema kind: an int is not a bool, a
    float may be an int, and "ints" is a list or tuple of ints."""
    if kind == "ints":
        return type(value) in (list, tuple) and all(type(x) is int for x in value)
    return type(value) in {"int": (int,), "float": (int, float), "bool": (bool,),
                           "str": (str,)}[kind]


def parse_value(key: str, raw: str, kind: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "ints":
            return tuple(int(x) for x in raw.split(",") if x.strip() != "")
        return raw
    except ValueError as e:
        raise ConfigError(f"config key '{key}': cannot parse {raw!r} as {kind}") from e


def parse_config_text(text: str) -> RunConfig:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"config line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key '{key}'")
        values[key] = parse_value(key, raw, SCHEMA[key])
    return RunConfig(**values).validate()


def load_config(path: str) -> RunConfig:
    return parse_config_text(read_text(path, "config file", ConfigError))


def build_provider(cfg: RunConfig, vocab_size: int) -> EmbeddingProvider | None:
    if cfg.provider == "none":
        return None
    if cfg.provider == "stub":
        return StubProvider(
            vocab_size,
            width=cfg.provider_width,
            max_window=cfg.provider_window,
            seed=cfg.provider_seed,
        )
    raise ConfigError(f"unknown provider '{cfg.provider}' (expected 'none' or 'stub')")


def build_model(cfg: RunConfig, vocab: Vocab) -> tuple[Summarizer, OptimizerState]:
    model = Summarizer(
        cfg.model_config(),
        vocab,
        provider=build_provider(cfg, len(vocab)),
        windowing=cfg.windowing_config(),
        seed=cfg.seed,
    )
    return model, cfg.optimizer_state()


# fields that must agree between a checkpoint and a requested configuration
ARCH_FIELDS = (
    "d_model", "enc_layers", "dec_layers", "ff_size", "heads",
    "token_kernel", "head_kernel", "circular", "conv_layers",
    "integration", "copy", "decoder_conditioned",
    "provider", "provider_width", "provider_window", "provider_seed",
    "window", "stride",
)


def check_arch_compatible(expected: RunConfig, got: RunConfig) -> None:
    for name in ARCH_FIELDS:
        a, b = getattr(expected, name), getattr(got, name)
        if a != b:
            raise ConfigError(
                f"checkpoint/config mismatch on '{name}': checkpoint has {a!r}, requested {b!r}"
            )
