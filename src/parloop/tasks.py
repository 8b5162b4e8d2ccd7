"""Synthetic token tasks for training demos and convergence tests.

Each task yields (tokens, mask) batches where mask[j] marks positions whose
next-token prediction should count toward the loss; None means every
position that has a target counts. ``scored_rows`` spans the scored rows
of a batch, and the training step runs each layer only on the rows that
feed them (see ``train.scored_loss``). Sampling is driven by an explicit
Rng so a seed pins the whole data stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, EmptyInputError
from .tensor import Rng, Tensor, cross_entropy, is_int

EVAL_BATCHES, EVAL_BATCH_SIZE = 4, 32   # eval_accuracy's sample


@dataclass
class TaskSpec:
    name: str
    vocab: int
    seq_len: int
    sample: Callable  # (rng: Rng, batch: int) -> (tokens [b, n], mask [b, n] | None)
    params: dict = field(default_factory=dict)


def _copy_like(src_len: int, symbols: int, reverse: bool):
    vocab = symbols + 1
    sep = symbols
    n = 2 * src_len + 1

    def sample(rng: Rng, batch: int):
        src = rng.integers(0, symbols, (batch, src_len))
        tgt = src[:, ::-1] if reverse else src
        tokens = np.concatenate(
            [src, np.full((batch, 1), sep, dtype=src.dtype), tgt], axis=1)
        mask = np.zeros((batch, n), dtype=bool)
        mask[:, src_len:n - 1] = True  # predictions of the echoed half
        return tokens, mask

    return vocab, n, sample


def make_task(name: str, **kw) -> TaskSpec:
    """Task factory.

    copy / reverse: src_len (default 8), symbols (default 16); the model
      sees the source, a separator, then must emit the source again
      (reversed for `reverse`). Only the echoed half is scored.
    modular_add: modulus (default 23), triples (default 6); sequences of
      (a, b, (a+b) mod m) triples, scored on predicting each sum.
    char_lm: seq_len (default 64); byte-level language modeling over an
      embedded proverb corpus, scored everywhere.
    """
    if name in ("copy", "reverse"):
        src_len = kw.pop("src_len", 8)
        symbols = kw.pop("symbols", 16)
        _reject_extras(name, kw)
        if not (is_int(src_len) and is_int(symbols)) or src_len < 1 or symbols < 2:
            raise ConfigError("copy/reverse need integers src_len >= 1 and symbols >= 2")
        vocab, n, sample = _copy_like(src_len, symbols, reverse=(name == "reverse"))
        return TaskSpec(name, vocab, n, sample,
                        params={"src_len": src_len, "symbols": symbols})
    if name == "modular_add":
        modulus = kw.pop("modulus", 23)
        triples = kw.pop("triples", 6)
        _reject_extras(name, kw)
        if not (is_int(modulus) and is_int(triples)) or modulus < 2 or triples < 1:
            raise ConfigError("modular_add needs integers modulus >= 2 and triples >= 1")
        n = 3 * triples

        def sample(rng: Rng, batch: int):
            a = rng.integers(0, modulus, (batch, triples))
            b = rng.integers(0, modulus, (batch, triples))
            tokens = np.stack([a, b, (a + b) % modulus], axis=2).reshape(batch, n)
            mask = np.zeros((batch, n), dtype=bool)
            mask[:, 1::3] = True  # the position holding b predicts the sum
            return tokens, mask

        return TaskSpec(name, modulus, n, sample,
                        params={"modulus": modulus, "triples": triples})
    if name == "char_lm":
        seq_len = kw.pop("seq_len", 64)
        _reject_extras(name, kw)
        if not is_int(seq_len) or seq_len < 2:
            raise ConfigError("char_lm needs an integer seq_len >= 2")
        corpus = np.frombuffer(CORPUS.encode("utf-8"), dtype=np.uint8)
        if seq_len >= len(corpus):
            raise ConfigError(f"seq_len {seq_len} exceeds corpus size {len(corpus)}")

        def sample(rng: Rng, batch: int):
            starts = rng.integers(0, len(corpus) - seq_len, (batch,))
            tokens = np.stack([corpus[s:s + seq_len] for s in starts]).astype(np.int64)
            return tokens, None

        return TaskSpec(name, 256, seq_len, sample, params={"seq_len": seq_len})
    raise ConfigError(f"unknown task {name!r}")


def _reject_extras(name: str, kw: dict) -> None:
    if kw:
        raise ConfigError(f"unknown options for task {name!r}: {sorted(kw)}")


def scored_rows(tokens: np.ndarray, mask: Optional[np.ndarray] = None) -> tuple:
    """(first, stop): the input rows [first, stop) that span every scored
    prediction of the batch. A row is scored when it has a target (every
    row but the last) and, with a mask, the mask marks it in some example.
    Raises EmptyInputError when no row is scored."""
    n = np.shape(tokens)[1]
    if mask is None:
        scored = np.arange(n - 1)
    else:
        scored = np.flatnonzero(np.asarray(mask, dtype=bool)[:, :n - 1].any(axis=0))
    if scored.size == 0:
        raise EmptyInputError("no position of the batch is scored")
    return int(scored[0]), int(scored[-1]) + 1


def cross_entropy_loss(logits: Tensor, tokens: np.ndarray,
                       mask: Optional[np.ndarray] = None, first_row: int = 0) -> Tensor:
    """Next-token loss: row j of logits is input row first_row + j, scored
    against the token after it. The logits may cover every row (the last
    has no target and never contributes) or, as the training step forms
    them, just the scored rows [first_row, stop) of ``scored_rows``.

    mask, when given, is [b, n] over input positions; only the rows the
    logits cover are read.
    """
    tokens = np.asarray(tokens)
    stop = min(first_row + logits.shape[1], tokens.shape[1] - 1)
    targets = tokens[:, first_row + 1:stop + 1]
    use = None if mask is None else np.asarray(mask, dtype=bool)[:, first_row:stop]
    if stop - first_row < logits.shape[1]:
        logits = logits[:, :stop - first_row]
    return cross_entropy(logits, targets, use)


def eval_accuracy(forward_fn, task: TaskSpec, seed: int) -> float:
    """Teacher-forced argmax accuracy over the task's scored positions.
    ``forward_fn`` maps token ids to logits, a plain array (a forward run
    on ``Parameters.arrays``, which records no tape) or a Tensor."""
    rng = Rng(seed)
    hit = total = 0
    for _ in range(EVAL_BATCHES):
        tokens, mask = task.sample(rng, EVAL_BATCH_SIZE)
        logits = forward_fn(tokens)
        if isinstance(logits, Tensor):
            logits = logits.data
        pred = np.argmax(logits[:, :-1, :], axis=-1)
        want = tokens[:, 1:]
        use = np.ones_like(want, dtype=bool) if mask is None else mask[:, :-1]
        hit += int((pred[use] == want[use]).sum())
        total += int(use.sum())
    return hit / total


# Plain proverb text for the byte-level task. Repetitive on purpose: small
# models should be able to squeeze the entropy quickly.
CORPUS = (
    "a stitch in time saves nine. a watched pot never boils. "
    "a rolling stone gathers no moss. actions speak louder than words. "
    "all that glitters is not gold. an apple a day keeps the doctor away. "
    "better late than never. birds of a feather flock together. "
    "every cloud has a silver lining. fortune favours the bold. "
    "great minds think alike. haste makes waste. honesty is the best policy. "
    "it never rains but it pours. look before you leap. "
    "many hands make light work. necessity is the mother of invention. "
    "no smoke without fire. practice makes perfect. "
    "slow and steady wins the race. strike while the iron is hot. "
    "the early bird catches the worm. the pen is mightier than the sword. "
    "there is no place like home. too many cooks spoil the broth. "
    "two heads are better than one. well begun is half done. "
    "when in rome do as the romans do. where there is a will there is a way. "
    "you cannot judge a book by its cover. "
) * 4
