"""Shared test utilities: finite-difference gradient checking and synthetic
corpora with a lead bias (summary = first sentence)."""

from __future__ import annotations

import numpy as np

WORD_POOL = [
    "alpine", "basket", "candle", "direct", "ember", "fabric", "garden", "hollow",
    "indigo", "jigsaw", "kettle", "lantern", "meadow", "nectar", "orbit", "pepper",
    "quartz", "ribbon", "saddle", "timber", "umber", "velvet", "walnut", "yonder",
    "zephyr", "anchor", "bridge", "canyon", "drift", "echo", "falcon", "glacier",
    "harbor", "island", "jungle", "kernel", "ledger", "mirror", "needle", "onion",
    "pillar", "quiver", "river", "signal", "tunnel", "urban", "valley", "window",
]


def make_lead_corpus(
    n_docs: int,
    seed: int,
    n_sentences=(3, 5),
    sentence_len=(4, 7),
    pool=None,
) -> list[dict]:
    """Documents whose summary is exactly the first source sentence."""
    rng = np.random.default_rng(seed)
    pool = pool or WORD_POOL
    docs = []
    for _ in range(n_docs):
        k = int(rng.integers(n_sentences[0], n_sentences[1] + 1))
        sentences = []
        for _ in range(k):
            n = int(rng.integers(sentence_len[0], sentence_len[1] + 1))
            words = [pool[i] for i in rng.integers(0, len(pool), size=n)]
            sentences.append(" ".join(words) + " .")
        docs.append({"source": " ".join(sentences), "summary": sentences[0]})
    return docs


def numeric_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. array x (mutated in place)."""
    g = np.zeros_like(x)
    flat, gf = x.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def grad_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def check_grads(build_loss, tensors: dict[str, "object"], eps: float = 1e-5, tol: float = 1e-4):
    """Assert analytic grads of build_loss() match central differences for every tensor.

    build_loss re-runs the forward pass from the tensors' current .data and
    returns a scalar Tensor; the numeric side perturbs .data in place.
    """
    from convsum import autodiff as ad

    loss = build_loss()
    ad.backward(loss)
    analytic = {k: t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for k, t in tensors.items()}
    for name, t in tensors.items():
        num = numeric_grad(lambda: build_loss().item(), t.data, eps)
        err = grad_rel_err(analytic[name], num)
        assert err < tol, f"gradient mismatch for {name}: rel err {err:.3e}"


def closure_arrays(fn) -> list[np.ndarray]:
    """The arrays a tape node's backward closure keeps alive: reached through
    closure cells, nested functions, tuples, lists and dicts, with the base of
    every view. A tensor held there stands for its data, not for its own closure."""
    from convsum import autodiff as ad

    found, seen, todo = [], set(), [fn]
    while todo:
        obj = todo.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            todo.append(obj.base)
        elif isinstance(obj, ad.Tensor):
            todo.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            todo.extend(cell.cell_contents for cell in obj.__closure__)
    return found
