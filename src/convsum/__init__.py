"""convsum: desk-scale abstractive summarization.

A small numpy stack: reverse-mode tensor engine, convolutional
(local) self-attention Transformer encoder-decoder with a copy output layer,
sliding-window conditioning on frozen embedding providers, beam-search
decoding, and ROUGE evaluation.
"""

__version__ = "0.1.0"

from .attention import AttentionConfig
from .autodiff import Tensor, backward
from .config import RunConfig
from .decoding import DecodingConfig, beam_search
from .model import ModelConfig, Summarizer
from .optim import OptimizerState, adam_noam_step, noam_rate
from .providers import EmbeddingProvider, StubProvider
from .rouge import RougeScore, rouge_l, rouge_n
from .tokenizer import Vocab, build_vocab, detokenize, tokenize
from .windowing import WindowingConfig, encode_long

__all__ = [
    "AttentionConfig",
    "DecodingConfig",
    "EmbeddingProvider",
    "ModelConfig",
    "OptimizerState",
    "RougeScore",
    "RunConfig",
    "StubProvider",
    "Summarizer",
    "Tensor",
    "Vocab",
    "WindowingConfig",
    "adam_noam_step",
    "backward",
    "beam_search",
    "build_vocab",
    "detokenize",
    "encode_long",
    "noam_rate",
    "rouge_l",
    "rouge_n",
    "tokenize",
]
