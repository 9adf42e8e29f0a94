"""Transformer encoder-decoder summarizer with a copy (pointer) output layer,
optional convolutional self-attention in encoder layers, and optional
conditioning on a frozen embedding provider via stacking or concatenation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import (
    AttentionConfig,
    attend,
    attention_inits,
    conv_multi_head_attention,
    multi_head_attention,
    project_kv,
)
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .optim import Init, Parameters, adam_noam_step, zero_grads
from .providers import EmbeddingProvider
from .tokenizer import Vocab
from .windowing import WindowingConfig, encode_long

INTEGRATION_MODES = ("none", "stacking", "concatenation")


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 256
    enc_layers: int = 3
    dec_layers: int = 3
    ff_size: int = 1024
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    dropout: float = 0.1
    label_smoothing: float = 0.1
    integration: str = "none"
    copy: bool = True
    decoder_conditioned: bool = False

    def __post_init__(self):
        for name in ("d_model", "ff_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.attention.heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by {self.attention.heads} heads"
            )
        if self.enc_layers < 1 or self.dec_layers < 1:
            raise ConfigError("encoder and decoder need at least one layer each")
        conv = self.attention.conv_layers
        if len(set(conv)) != len(conv) or not all(0 <= i < self.enc_layers for i in conv):
            raise ConfigError(
                f"conv_layers {tuple(conv)} must be distinct encoder layer indices "
                f"in [0, {self.enc_layers})"
            )
        if self.integration not in INTEGRATION_MODES:
            raise ConfigError(f"integration must be one of {INTEGRATION_MODES}")
        if self.integration == "concatenation" and self.enc_layers - self.conv_branch_layers < 1:
            raise ConfigError(
                "concatenation needs at least one conv-branch and one plain encoder layer"
            )
        if not 0.0 <= self.dropout < 1.0 or not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError("dropout and label_smoothing must be in [0, 1)")

    @property
    def conv_branch_layers(self) -> int:
        """Depth of the parallel conv branch in concatenation mode: ceil(layers/3)."""
        return -(-self.enc_layers // 3)


_SINUSOID_TABLES: dict[int, np.ndarray] = {}


def _sinusoid(length: int, d: int) -> np.ndarray:
    """Read-only sinusoid position rows 0..length-1 at width d.

    One table per width, grown on demand (at least doubling) and sliced; a row
    does not depend on how many rows are built, so a slice equals a table built
    at exactly `length`.
    """
    table = _SINUSOID_TABLES.get(d)
    if table is None or table.shape[0] < length:
        rows = length if table is None else max(length, 2 * table.shape[0])
        pos = np.arange(rows)[:, None]
        dim = np.arange(d // 2)[None, :]
        angle = pos / np.power(10000.0, 2.0 * dim / d)
        table = np.zeros((rows, d))
        table[:, 0::2] = np.sin(angle)
        table[:, 1::2] = np.cos(angle)
        table.setflags(write=False)
        _SINUSOID_TABLES[d] = table
    return table[:length]


def _keys(src_mask: np.ndarray | None) -> np.ndarray | None:
    """Attention mask (B, 1, 1, L) of a key-padding mask (B, L); None stays None."""
    return None if src_mask is None else src_mask[..., None, None, :]


def _linear_init(din: int, dout: int) -> tuple[Init, Init]:
    lim = math.sqrt(6.0 / (din + dout))
    return Init((din, dout), lambda rng, shape: rng.uniform(-lim, lim, shape)), Init((dout,))


def _embedding_init(V: int, d: int) -> Init:
    return Init((V, d), lambda rng, shape: rng.normal(0.0, d ** -0.5, shape))


class Summarizer:
    """One model instance: parameters, forward paths, and the training step.

    Parameters live in a name->Tensor `optim.Parameters` (the checkpoint
    unit), their values and gradients views of one flat arena. The
    computation graph is single-threaded per instance; a frozen instance may
    serve concurrent decodes.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        vocab: Vocab,
        provider: EmbeddingProvider | None = None,
        windowing: WindowingConfig | None = None,
        seed: int = 0,
    ):
        if (cfg.integration != "none" or cfg.decoder_conditioned) and provider is None:
            raise ConfigError(f"integration '{cfg.integration}' requires an embedding provider")
        self.cfg = cfg
        self.vocab = vocab
        self.provider = provider
        self.windowing = windowing or WindowingConfig()
        if provider is not None and provider.max_window < self.windowing.window:
            raise ConfigError(
                f"provider window {provider.max_window} smaller than "
                f"windowing window {self.windowing.window}"
            )
        self.rng = np.random.default_rng(seed)
        self.params = Parameters(self._param_inits(), np.random.default_rng(seed))
        self._blocks: dict[str, dict[str, Tensor]] = {}

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------

    def _param_inits(self) -> dict[str, Init]:
        """Every parameter's Init, in layout and draw order."""
        cfg = self.cfg
        d, V = cfg.d_model, len(self.vocab)
        p: dict[str, Init] = {}

        def put_attention(prefix: str):
            for k, t in attention_inits(d).items():
                p[f"{prefix}.{k}"] = t

        def put_norm(prefix: str):
            p[f"{prefix}.g"], p[f"{prefix}.b"] = Init((d,), fill=1.0), Init((d,))

        def put_feed_forward(prefix: str):
            p[f"{prefix}.w1"], p[f"{prefix}.b1"] = _linear_init(d, cfg.ff_size)
            p[f"{prefix}.w2"], p[f"{prefix}.b2"] = _linear_init(cfg.ff_size, d)

        if cfg.integration in ("none", "concatenation"):
            p["src_embed"] = _embedding_init(V, d)
        if cfg.integration == "stacking":
            p["ctx_proj.w"], p["ctx_proj.b"] = _linear_init(self.provider.width, d)
        if cfg.integration == "concatenation":
            p["cat_proj.w"], p["cat_proj.b"] = _linear_init(d + self.provider.width, d)
        for i in range(cfg.enc_layers):
            put_attention(f"enc.{i}.att")
            put_norm(f"enc.{i}.ln1")
            put_feed_forward(f"enc.{i}.ff")
            put_norm(f"enc.{i}.ln2")

        if cfg.decoder_conditioned:
            p["dec_proj.w"], p["dec_proj.b"] = _linear_init(self.provider.width, d)
        else:
            p["tgt_embed"] = _embedding_init(V, d)
        for i in range(cfg.dec_layers):
            put_attention(f"dec.{i}.self")
            put_norm(f"dec.{i}.ln1")
            put_attention(f"dec.{i}.cross")
            put_norm(f"dec.{i}.ln2")
            put_feed_forward(f"dec.{i}.ff")
            put_norm(f"dec.{i}.ln3")

        p["gen.w"], p["gen.b"] = _linear_init(d, V)
        if cfg.copy:
            p["copy.wq"], p["copy.bq"] = _linear_init(d, d)
            p["copy.gate.w"], p["copy.gate.b"] = _linear_init(2 * d, 1)
        return p

    def _block(self, prefix: str) -> dict[str, Tensor]:
        """Parameters named `prefix.<key>`, keyed by <key>; built on first use
        (checkpoint restores update the tensors in place, never replace them)."""
        block = self._blocks.get(prefix)
        if block is None:
            pl = prefix + "."
            block = {k[len(pl):]: v for k, v in self.params.items() if k.startswith(pl)}
            self._blocks[prefix] = block
        return block

    # ------------------------------------------------------------------
    # encoder
    # ------------------------------------------------------------------

    def _drop(self, x: Tensor, training: bool) -> Tensor:
        return ad.dropout(x, self.cfg.dropout, self.rng, training)

    def _add_norm(self, x: Tensor, sub: Tensor, norm: str, training: bool) -> Tensor:
        """layer_norm(x + dropout(sub)) with the gain and bias of `norm`, as
        one tape op; the dropout mask is drawn where `_drop` would draw it."""
        rate = self.cfg.dropout
        keep = ad.dropout_mask(rate, self.rng, sub.shape, training)
        return ad.layer_norm(x, self.params[f"{norm}.g"], self.params[f"{norm}.b"],
                             residual=sub, keep=keep, rate=rate)

    def _encoder_layer(
        self, x: Tensor, i: int, use_conv: bool, training: bool, src_mask: np.ndarray | None
    ) -> Tensor:
        att = self._block(f"enc.{i}.att")
        if use_conv:
            a, _ = conv_multi_head_attention(x, att, self.cfg.attention, src_mask)
        else:
            a, _ = multi_head_attention(x, x, att, self.cfg.attention.heads, _keys(src_mask))
        x = self._add_norm(x, a, f"enc.{i}.ln1", training)
        return self._feed_forward(x, f"enc.{i}.ff", f"enc.{i}.ln2", training)

    def _feed_forward(self, x: Tensor, prefix: str, norm: str, training: bool) -> Tensor:
        """The feed-forward sublayer `prefix` on x, added to x and normed by `norm`."""
        return self._add_norm(x, ad.feed_forward(x, **self._block(prefix)), norm, training)

    def _embedding(self, table: str, ids: np.ndarray, pe: np.ndarray, training: bool) -> Tensor:
        """Rows of embedding `table` for ids (..., N), scaled by sqrt(d_model),
        plus sinusoid rows pe (N or 1, d), then dropout."""
        x = ad.embedding_lookup(self.params[table], ids) * math.sqrt(self.cfg.d_model)
        return self._drop(x + ad.constant(pe), training)

    def _provider_context(self, src_ids: np.ndarray, src_mask: np.ndarray | None) -> Tensor:
        """Provider embeddings (..., L, width) of each source, zero on padding."""
        rows = src_ids.reshape(-1, src_ids.shape[-1])
        lengths = [rows.shape[1]] * len(rows) if src_mask is None else src_mask.sum(axis=-1)
        ctx = np.zeros((*src_ids.shape, self.provider.width))
        for out, ids, n in zip(ctx.reshape(len(rows), *ctx.shape[-2:]), rows, lengths):
            out[:n] = encode_long(ids[:n], self.provider, self.windowing)
        return ad.constant(ctx)  # frozen: no gradient flows into the provider

    def encode(self, src_ids, training: bool = False, src_mask: np.ndarray | None = None) -> Tensor:
        """Source token ids (L,) -> memory (L, d_model) under the configured
        integration; a padded batch (B, L) gives (B, L, d_model).

        src_mask (B, L) marks a padded batch's real positions; every real
        position then reads only its own example. None means no padding.
        """
        src_ids = np.asarray(src_ids, dtype=np.int64)
        if src_ids.size == 0:
            raise ContractError("encode: zero-length input")
        cfg, p = self.cfg, self.params
        # concatenation: a conv branch over learned embeddings, joined with the
        # raw provider branch on the feature axis and projected, then the plain
        # layers from `join` on
        join = cfg.conv_branch_layers if cfg.integration == "concatenation" else None
        conv_at = range(join) if join else cfg.attention.conv_layers
        if cfg.integration == "stacking":
            ctx = self._provider_context(src_ids, src_mask)
            x = self._drop(ad.linear(ctx, p["ctx_proj.w"], p["ctx_proj.b"]), training)
        else:
            pe = _sinusoid(src_ids.shape[-1], cfg.d_model)
            x = self._embedding("src_embed", src_ids, pe, training)
        for i in range(cfg.enc_layers):
            if i == join:
                ctx = self._provider_context(src_ids, src_mask)
                x = ad.linear(ad.concat([x, ctx], axis=-1), p["cat_proj.w"], p["cat_proj.b"])
                x = self._drop(x, training)
            x = self._encoder_layer(x, i, i in conv_at, training, src_mask)
        return x

    # ------------------------------------------------------------------
    # decoder
    # ------------------------------------------------------------------

    def _target_embedding(self, ids: np.ndarray, pe: np.ndarray, training: bool) -> Tensor:
        """Decoder inputs (..., N, d) for target ids (..., N) plus sinusoid rows pe (N or 1, d)."""
        if not self.cfg.decoder_conditioned:
            return self._embedding("tgt_embed", ids, pe, training)
        table = ad.constant(self.provider.token_table[ids])
        x = ad.linear(table, self.params["dec_proj.w"], self.params["dec_proj.b"])
        return self._drop(x + ad.constant(pe), training)

    def _decoder_layer(
        self,
        x: Tensor,
        i: int,
        self_kv: tuple[Tensor, Tensor],
        cross_kv: tuple[Tensor, Tensor],
        mask: np.ndarray | None,
        cross_mask: np.ndarray | None,
        training: bool,
    ) -> tuple[Tensor, Tensor]:
        """Decoder layer i on x (..., T, d) given its self-attention keys/values
        and the cross-attention keys/values of memory, with the masks of each
        attention; returns (output, cross weights (..., H, T, L))."""
        heads = self.cfg.attention.heads
        a, _ = attend(x, *self_kv, self._block(f"dec.{i}.self"), heads, mask)
        x = self._add_norm(x, a, f"dec.{i}.ln1", training)
        c, cross_weights = attend(x, *cross_kv, self._block(f"dec.{i}.cross"), heads, cross_mask)
        x = self._add_norm(x, c, f"dec.{i}.ln2", training)
        return self._feed_forward(x, f"dec.{i}.ff", f"dec.{i}.ln3", training), cross_weights

    def _decoder_states(
        self,
        memory: Tensor,
        prefix_ids: np.ndarray,
        training: bool,
        src_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Run the decoder stack over prefixes (..., T) and memory (..., L, d);
        returns (states (..., T, d), last cross-attention (..., H, T, L))."""
        prefix_ids = np.asarray(prefix_ids, dtype=np.int64)
        T = prefix_ids.shape[-1]
        if T == 0:
            raise ContractError("decode: empty prefix")
        if (prefix_ids[..., 0] != self.vocab.bos_id).any():
            raise ContractError("decode: prefix must begin with BOS")
        x = self._target_embedding(prefix_ids, _sinusoid(T, self.cfg.d_model), training)
        causal = np.tril(np.ones((T, T), dtype=bool))
        cross_mask = _keys(src_mask)
        cross_weights = None
        for i in range(self.cfg.dec_layers):
            self_kv = project_kv(x, self._block(f"dec.{i}.self"))
            cross_kv = project_kv(memory, self._block(f"dec.{i}.cross"))
            x, cross_weights = self._decoder_layer(
                x, i, self_kv, cross_kv, causal, cross_mask, training
            )
        return x, cross_weights

    def pointer_generator(
        self,
        decoder_states: Tensor,
        memory: Tensor,
        src_ids: np.ndarray,
        src_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Mix a copy distribution over source tokens with the generator softmax.

        decoder_states (..., T, d) over memory (..., L, d) and src_ids (..., L);
        returns (gate (..., T, 1), mixed distribution (..., T, V), copy
        attention (..., T, L)). The gate multiplies the copy side; duplicate
        source tokens accumulate their attention mass onto the shared
        vocabulary id. src_mask (..., L) keeps the copy attention of a padded
        batch off its padding.
        """
        src_ids = np.asarray(src_ids, dtype=np.int64)
        if memory.shape[-2] != src_ids.shape[-1]:
            raise ContractError("pointer_generator: memory length must match source ids")
        p = self.params
        d = self.cfg.d_model
        n = memory.data.ndim
        q = ad.linear(decoder_states, p["copy.wq"], p["copy.bq"])
        scores = ad.scale(ad.matmul(q, ad.transpose(memory, (*range(n - 2), n - 1, n - 2))),
                          d ** -0.5)
        attn = ad.softmax(scores, None if src_mask is None else src_mask[..., None, :])
        context = ad.matmul(attn, memory)
        gate = ad.sigmoid(
            ad.linear(ad.concat([decoder_states, context], axis=-1),
                      p["copy.gate.w"], p["copy.gate.b"])
        )
        p_copy = ad.scatter_probs(attn, src_ids, len(self.vocab))
        p_soft = ad.softmax(ad.linear(decoder_states, p["gen.w"], p["gen.b"]))
        one_minus = ad.add(ad.scale(gate, -1.0), ad.constant(1.0))
        mixed = ad.add(ad.mul(gate, p_copy), ad.mul(one_minus, p_soft))
        return gate, mixed, attn

    def _output_head(
        self,
        states: Tensor,
        cross: Tensor,
        memory: Tensor,
        src_ids: np.ndarray,
        src_mask: np.ndarray | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Next-token distributions (..., N, V) plus source attention (..., N, L)
        for decoder states (..., N, d); `cross` is the last layer's
        cross-attention weights (..., H, N, L), which give the attention when
        there is no copy layer."""
        if self.cfg.copy:
            _, mixed, attn = self.pointer_generator(states, memory, src_ids, src_mask=src_mask)
            return mixed, attn
        probs = ad.softmax(ad.linear(states, self.params["gen.w"], self.params["gen.b"]))
        mean_cross = cross.data.sum(axis=-3) * (1.0 / self.cfg.attention.heads)  # a constant
        return probs, ad.constant(mean_cross.reshape(*states.shape[:-1], memory.shape[-2]))

    def decode_step(
        self, memory: Tensor, src_ids, prefix_ids, training: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Next-token distribution for the last prefix position, recomputed
        over the full prefix: the reference for `start_decode`.

        Returns (probabilities (V,), source attention (L,)); the attention row
        feeds the decoder's coverage accounting.
        """
        states, cross = self._decoder_states(memory, prefix_ids, training)
        probs, attn = self._output_head(states, cross, memory, src_ids)
        return probs.data[-1].copy(), attn.data[-1].copy()

    def start_decode(self, memory: Tensor, src_ids) -> "DecoderState":
        """Incremental decoder over memory for hypotheses held as batch rows."""
        return DecoderState(self, memory, np.asarray(src_ids, dtype=np.int64))

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def pad_batch(self, batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source ids, BOS..EOS target ids) pairs -> sources (B, L_max), source
        lengths (B,) and targets (B, T_max), each padded with PAD."""
        if not batch:
            raise ContractError("train_step: empty batch")
        pad, bos = self.vocab.pad_id, self.vocab.bos_id
        srcs = [np.asarray(s, dtype=np.int64) for s, _ in batch]
        tgts = [np.asarray(t, dtype=np.int64) for _, t in batch]
        if any(s.ndim != 1 or s.size == 0 for s in srcs):
            raise ContractError("encode: zero-length input")
        if any(t.ndim != 1 or t.size < 2 or t[0] != bos for t in tgts):
            raise ContractError("sequence_loss: target must be BOS/EOS-wrapped")
        lengths = np.array([s.size for s in srcs])
        src = np.full((len(batch), lengths.max()), pad, dtype=np.int64)
        tgt = np.full((len(batch), max(t.size for t in tgts)), pad, dtype=np.int64)
        for b, (s, t) in enumerate(zip(srcs, tgts)):
            src[b, :s.size] = s
            tgt[b, :t.size] = t
        return src, lengths, tgt

    def sequence_loss(
        self, src_ids, tgt_ids, training: bool = True, src_lengths=None
    ) -> tuple[Tensor, int]:
        """Teacher-forced loss for one (source (L,), BOS..EOS target (T,)) pair,
        or for a padded batch of them as one graph: sources (B, L) with their
        lengths src_lengths (B,), and PAD-padded targets (B, T).

        Returns (mean loss over the non-pad target tokens, their count): for a
        batch, the token-weighted mean of its pairs' losses. A batch whose
        sources all have length L builds no mask.
        """
        src_ids = np.asarray(src_ids, dtype=np.int64)
        tgt_ids = np.asarray(tgt_ids, dtype=np.int64)
        if tgt_ids.shape[-1] < 2 or (tgt_ids[..., 0] != self.vocab.bos_id).any():
            raise ContractError("sequence_loss: target must be BOS/EOS-wrapped")
        src_mask, L = None, src_ids.shape[-1]
        if src_lengths is not None:
            lengths = np.asarray(src_lengths)
            if lengths.shape != src_ids.shape[:-1] or lengths.min() < 1 or lengths.max() > L:
                raise ContractError(f"sequence_loss: source lengths must lie in [1, {L}]")
            if (lengths < L).any():
                src_mask = np.arange(L) < lengths[..., None]
        memory = self.encode(src_ids, training, src_mask)
        tgt_in, tgt_out = tgt_ids[..., :-1], tgt_ids[..., 1:]
        smoothing, pad, V = self.cfg.label_smoothing, self.vocab.pad_id, len(self.vocab)
        states, _ = self._decoder_states(memory, tgt_in, training, src_mask)
        if self.cfg.copy:  # the copy mixture is a distribution; the generator gives logits
            _, out, _ = self.pointer_generator(states, memory, src_ids, src_mask=src_mask)
            loss_fn = ad.label_smoothed_nll
        else:
            out = ad.linear(states, self.params["gen.w"], self.params["gen.b"])
            loss_fn = ad.label_smoothed_cross_entropy
        loss = loss_fn(ad.reshape(out, (-1, V)), tgt_out.ravel(), smoothing, pad)
        return loss, int((tgt_out != pad).sum())

    def train_step(self, batch, opt_state) -> tuple[float, float]:
        """One optimizer update on a batch of (source ids, BOS..EOS target ids).

        The batch is padded and runs as one graph. Loss is the token-weighted
        mean over the batch. Returns (loss, lr). Finite checks run once on the
        loss, and once on the gradients by Adam's pre-pass, which raises before
        anything moves (`autodiff.checked_step`); a failure replays the step to
        name the op and leaves the parameters and Adam state as they were.
        """
        src, lengths, tgt = self.pad_batch(batch)
        # The gradient and moment buffers outlive the step: allocated before
        # its first graph, they leave the heap that graph grew free for the
        # next one.
        zero_grads(self.params)
        opt_state.bind(self.params)
        rng_state = self.rng.bit_generator.state

        def step() -> tuple[float, float]:
            loss, _ = self.sequence_loss(src, tgt, True, lengths)
            ad._check_finite("sequence_loss", loss.data)
            ad.backward(loss)
            return loss.item(), adam_noam_step(opt_state, self.params)

        def reset() -> None:  # the replay draws the same dropout masks
            self.rng.bit_generator.state = rng_state
            zero_grads(self.params)

        return ad.checked_step(step, reset=reset)


class DecoderState:
    """Incremental decoding of B hypotheses over one source, one per batch row.

    Keeps each decoder layer's self-attention keys/values (B, t, d) for the
    t tokens fed so far, and the cross-attention keys/values of memory,
    projected once. `step` feeds one token per row (BOS first) and runs the
    decoder stack and output layer on those B positions only; `reorder` makes
    the rows follow the hypotheses that survive a beam step. Records no tape.
    """

    def __init__(self, model: Summarizer, memory: Tensor, src_ids: np.ndarray):
        if memory.shape[0] != src_ids.size:
            raise ContractError("start_decode: memory length must match source ids")
        self.model, self.memory, self.src_ids = model, memory, src_ids
        n = model.cfg.dec_layers
        with ad.no_grad():
            self.cross_kv = [project_kv(memory, model._block(f"dec.{i}.cross")) for i in range(n)]
        self.keys: list[np.ndarray | None] = [None] * n
        self.values: list[np.ndarray | None] = [None] * n
        self.pos = 0
        self.rows = 1

    def step(self, last_tokens) -> tuple[np.ndarray, np.ndarray]:
        """Feed last_tokens (B,); returns (probabilities (B, V), source attention (B, L)).

        Finite checks run once, on those and on the new key/value rows
        (`autodiff.checked_step`); the caches and position change only after
        they pass, so a step that raises leaves the state as it was.
        """
        m = self.model
        ids = np.asarray(last_tokens, dtype=np.int64).reshape(-1)
        B, d, n = ids.size, m.cfg.d_model, m.cfg.dec_layers
        if self.pos == 0 and not (ids == m.vocab.bos_id).all():
            raise ContractError("decode: the first step must feed BOS")
        if self.pos > 0 and B != self.rows:
            raise ContractError(f"decode: {B} tokens fed to {self.rows} rows")

        def run():
            keys, values = [], []
            pe = _sinusoid(self.pos + 1, d)[self.pos:]
            x = m._target_embedding(ids[:, None], pe, False)  # (B, 1, d)
            for i in range(n):
                k, v = project_kv(x, m._block(f"dec.{i}.self"))
                if self.pos > 0:
                    k = ad.constant(np.concatenate([self.keys[i], k.data], axis=1))
                    v = ad.constant(np.concatenate([self.values[i], v.data], axis=1))
                keys.append(k.data)
                values.append(v.data)
                x, cross = m._decoder_layer(x, i, (k, v), self.cross_kv[i], None, None, False)
            probs, attn = m._output_head(ad.reshape(x, (B, d)), cross, self.memory, self.src_ids)
            return probs.data, attn.data, keys, values

        def outputs(r):  # the new key/value rows; the cached ones passed when they were new
            return (r[0], r[1], *(kv[:, -1] for kv in r[2] + r[3]))

        with ad.no_grad():
            probs, attn, self.keys, self.values = ad.checked_step(run, outputs)
        self.pos += 1
        self.rows = B
        return probs, attn

    def reorder(self, rows) -> None:
        """Row r becomes the old row rows[r]; rows may repeat or drop rows."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size == 0 or rows.min() < 0 or rows.max() >= self.rows:
            raise ContractError(f"decode: reorder rows must lie in [0, {self.rows})")
        if self.pos > 0:
            self.keys = [k[rows] for k in self.keys]
            self.values = [v[rows] for v in self.values]
        self.rows = rows.size
