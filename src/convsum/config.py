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
from .model import ModelConfig, Summarizer
from .optim import OptimizerState
from .providers import EmbeddingProvider, StubProvider
from .tokenizer import Vocab
from .windowing import WindowingConfig


@dataclass
class RunConfig:
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
    d_model: int = 256
    enc_layers: int = 3
    dec_layers: int = 3
    ff_size: int = 1024
    heads: int = 4
    token_kernel: int = 11
    head_kernel: int = 3
    circular: bool = False
    conv_layers: tuple = (0,)
    dropout: float = 0.1
    label_smoothing: float = 0.1
    integration: str = "none"
    copy: bool = True
    decoder_conditioned: bool = False
    # embedding provider
    provider: str = "none"
    provider_width: int = 64
    provider_window: int = 512
    provider_seed: int = 0
    window: int = 512
    stride: int = 256
    # optimizer
    warmup: int = 4000
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9
    # decoding
    beam_size: int = 4
    min_length: int = 55
    max_length: int = 150
    coverage_beta: float = 0.0

    def attention_config(self) -> AttentionConfig:
        return AttentionConfig(
            heads=self.heads,
            token_kernel=self.token_kernel,
            head_kernel=self.head_kernel,
            circular=self.circular,
            conv_layers=tuple(self.conv_layers),
        )

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            d_model=self.d_model,
            enc_layers=self.enc_layers,
            dec_layers=self.dec_layers,
            ff_size=self.ff_size,
            attention=self.attention_config(),
            dropout=self.dropout,
            label_smoothing=self.label_smoothing,
            integration=self.integration,
            copy=self.copy,
            provider_width=self.provider_width,
            decoder_conditioned=self.decoder_conditioned,
        )

    def windowing_config(self) -> WindowingConfig:
        return WindowingConfig(window=self.window, stride=self.stride)

    def decoding_config(self) -> DecodingConfig:
        return DecodingConfig(
            beam_size=self.beam_size,
            min_length=self.min_length,
            max_length=self.max_length,
            coverage_beta=self.coverage_beta,
        )

    def validate(self) -> "RunConfig":
        """Construct every sub-config so invalid combinations fail eagerly.

        A sub-config's own ContractError is re-raised as a ConfigError: here
        the bad value came from a config file or a flag.
        """
        try:
            self.model_config()
            self.windowing_config()
            self.decoding_config()
        except ContractError as e:
            raise ConfigError(str(e)) from e
        if self.provider not in ("none", "stub"):
            raise ConfigError(f"unknown provider '{self.provider}' (expected 'none' or 'stub')")
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["conv_layers"] = list(self.conv_layers)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        if "conv_layers" in d:
            d["conv_layers"] = tuple(d["conv_layers"])
        return cls(**d)


# key -> parser kind, from RunConfig's annotations; this is the documented
# schema for config files and flags ("ints": a comma-separated int list)
_KINDS = {int: "int", float: "float", bool: "bool", str: "str", tuple: "ints"}
SCHEMA: dict[str, str] = {
    name: _KINDS[kind] for name, kind in get_type_hints(RunConfig).items()
}


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
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return parse_config_text(text)


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
    opt = OptimizerState(
        d_model=cfg.d_model,
        warmup=cfg.warmup,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        eps=cfg.adam_eps,
    )
    return model, opt


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
