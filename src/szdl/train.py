"""Training: Adam optimization, early stopping, checkpoints, generalization.

The run is fully determined by (seed, config, manifest): epoch shuffles
draw from a (seed, epoch) stream, dropout from a (seed, epoch, step)
stream, and each sample's augmentation from a (seed, epoch, record-index)
stream, so results are invariant to the augmentation worker count.
"""

from __future__ import annotations

import json
import operator
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Optional

import numpy as np

from . import ops
from .augment import AugmentSpec, apply_pipeline
from .config import JsonConfig
from .errors import DataError, NumericalError
from .evalstats import ScoredSet, auc, report_dict
from .manifest import ScanRecord, hold_out_site
from .model import Model, ModelConfig, build_model
from .nifti import Volume, load_volume
from .tensor import Parameter, Tape, Tensor, backward

# sub-stream tags for SeedSequence derivation
_STREAM_SHUFFLE = 1
_STREAM_DROPOUT = 2
_STREAM_AUGMENT = 3

CHECKPOINT_MAGIC = b"SZDL"
CHECKPOINT_VERSION = 5


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    """Optimization recipe; defaults follow the published training setup.

    Training runs in float32 and, with ``augment``, draws from the published
    ``AugmentSpec()``.
    """

    model: ModelConfig = field(default_factory=ModelConfig)
    learning_rate: float = 1e-4
    batch_size: int = 5
    max_epochs: int = 300
    patience: int = 20
    seed: int = 0
    augment: bool = True
    workers: int = 1

    def validate(self) -> None:
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """First/second moment buffers plus the shared step counter.

    The decay rates and epsilon are Adam's usual constants, fixed for every run.
    """

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[Parameter], t: int = 0) -> "AdamState":
        return cls(m={p.name: np.zeros_like(p.data) for p in params},
                   v={p.name: np.zeros_like(p.data) for p in params}, t=t)


def adam_step(params: list[Parameter], grads: list[np.ndarray], state: AdamState,
              lr: float) -> None:
    """One Adam update with bias correction; mutates params and state in place."""
    for p, g in zip(params, grads):
        if not np.isfinite(g).all():
            raise NumericalError(f"gradient of {p.name} is not finite")
    state.t += 1
    correction1 = 1.0 - state.beta1 ** state.t
    correction2 = 1.0 - state.beta2 ** state.t
    for p, g in zip(params, grads):
        m = state.m[p.name]
        v = state.v[p.name]
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * np.square(g)
        m_hat = m / correction1
        v_hat = v / correction2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype)


# ---------------------------------------------------------------------------
# history


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float


@dataclass
class TrainHistory:
    """A run's progress, which early stopping reads: epochs, the best one, why it stopped."""

    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stop_reason: str = ""

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_auc"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.train_loss!r},{r.val_loss!r},{r.val_auc!r}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {"records": [[r.epoch, r.train_loss, r.val_loss, r.val_auc]
                            for r in self.records],
                "best_epoch": self.best_epoch, "stop_reason": self.stop_reason}

    @classmethod
    def from_dict(cls, data: dict) -> "TrainHistory":
        return cls(records=[EpochRecord(operator.index(epoch), float(tl), float(vl), float(va))
                            for epoch, tl, vl, va in data["records"]],
                   best_epoch=operator.index(data["best_epoch"]),
                   stop_reason=str(data["stop_reason"]))


# ---------------------------------------------------------------------------
# data plumbing


def load_scan(record: ScanRecord, data_root) -> Volume:
    """Read one record's scan; a relative ``scan_path`` resolves under ``data_root``."""
    return load_volume(Path(data_root) / record.scan_path)


def two_class_split(records: list[ScanRecord], name: str) -> list[ScanRecord]:
    """The records of split ``name``, which must hold scans of both classes."""
    split = [r for r in records if r.split == name]
    if not split:
        raise DataError(f"{name} split is empty")
    if len({r.label for r in split}) < 2:
        raise DataError(f"{name} split holds a single class")
    return split


def _stack_batch(volumes: list[Volume], dtype) -> Tensor:
    data = np.stack([v.data for v in volumes])[:, None]
    return Tensor(data.astype(dtype, copy=False))


def _augment_one(args):
    volume, seed_key = args
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    return apply_pipeline(volume, AugmentSpec(), rng)


# ---------------------------------------------------------------------------
# training loop


def fit(config: TrainConfig, records: list[ScanRecord],
        data_root) -> tuple[Model, AdamState, TrainHistory]:
    """Optimize the model on the train split, tracking the best epoch by
    validation loss; returns the best-epoch model, its Adam state and the
    per-epoch history."""
    train = two_class_split(records, "train")
    val = two_class_split(records, "val")

    try:
        model = build_model(config.model, seed=config.seed)
        adam = AdamState.for_params(model.parameters())
    except MemoryError:
        raise ValueError(f"model {config.model.to_dict()} does not fit in memory") from None
    history = TrainHistory()

    # threads start only when work is submitted: a run without augmentation starts none
    with ThreadPoolExecutor(config.workers) as pool:
        for epoch in range(1, config.max_epochs + 1):
            shuffle_rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, _STREAM_SHUFFLE, epoch]))
            order = shuffle_rng.permutation(len(train))
            bounds = list(range(0, len(order), config.batch_size)) + [len(order)]
            if len(order) % config.batch_size == 1:
                # a one-scan batch would leave train-mode batchnorm a single element
                # per channel at small inputs: fold it into the batch before it
                del bounds[-2]

            epoch_loss = 0.0
            for step, (start, stop) in enumerate(zip(bounds, bounds[1:])):
                idx = order[start:stop]
                batch_records = [train[i] for i in idx]
                volumes = [load_scan(r, data_root) for r in batch_records]
                if config.augment:
                    jobs = [(vol, [config.seed, _STREAM_AUGMENT, epoch, int(i)])
                            for vol, i in zip(volumes, idx)]
                    volumes = list(pool.map(_augment_one, jobs))
                x = _stack_batch(volumes, model.dtype)
                labels = np.array([r.label for r in batch_records])

                tape = Tape()
                drop_rng = np.random.default_rng(
                    np.random.SeedSequence([config.seed, _STREAM_DROPOUT, epoch, step]))
                result = model.apply(x, mode="train", tape=tape, rng=drop_rng)
                loss = ops.cross_entropy(result.logits, labels, tape=tape)
                if not np.isfinite(loss.data):
                    raise NumericalError(f"non-finite training loss at epoch {epoch}")
                model.zero_grad()
                backward(tape, loss)
                params = model.parameters()
                adam_step(params, [p.grad for p in params], adam, config.learning_rate)
                epoch_loss += loss.item() * len(batch_records)

            train_loss = epoch_loss / len(train)
            val_loss, val_scored = _evaluate(model, val, data_root)
            val_auc = auc(val_scored)
            history.records.append(EpochRecord(epoch, train_loss, val_loss, val_auc))

            if epoch == 1 or val_loss < history.records[history.best_epoch - 1].val_loss:
                history.best_epoch = epoch
                best = [a.copy() for _, _, a in _array_index(model, adam)], adam.t
            if epoch - history.best_epoch >= config.patience:
                history.stop_reason = "early-stop"
                break
        else:
            history.stop_reason = "max-epochs"

    arrays, adam.t = best
    for (_, _, a), saved in zip(_array_index(model, adam), arrays):
        a[...] = saved
    return model, adam, history


def _evaluate(model: Model, records: list[ScanRecord],
              data_root) -> tuple[float, ScoredSet]:
    """Eval-mode mean loss per scan, and per subject the class-1 probability
    averaged over the subject's scans (subjects in manifest order). Each scan
    is a batch of one, so its score depends on that scan alone and memory
    does not grow with the number of records."""
    labels = np.array([r.label for r in records])
    results = [model.apply(_stack_batch([load_scan(r, data_root)], model.dtype), mode="eval")
               for r in records]
    loss = ops.cross_entropy(Tensor(np.concatenate([res.logits.data for res in results])),
                             labels)
    if not np.isfinite(loss.data):
        raise NumericalError("non-finite validation loss")
    scores = np.concatenate([res.probs.data[:, 1] for res in results]).astype(np.float64)
    rows: dict[str, int] = {}  # subject id -> its row, in order of first scan
    row = np.array([rows.setdefault(r.subject_id, len(rows)) for r in records])
    first = np.unique(row, return_index=True)[1]
    means = np.bincount(row, weights=scores) / np.bincount(row)
    return loss.item(), ScoredSet(means, labels[first], subject_ids=tuple(rows))


def score_records(model: Model, records: list[ScanRecord], data_root) -> ScoredSet:
    """Eval-mode likelihood scores, one per subject, for a record list (e.g. the test split)."""
    return _evaluate(model, records, data_root)[1]


# ---------------------------------------------------------------------------
# checkpoints


def _array_index(model: Model, adam: Optional[AdamState]) -> list[tuple[str, str, np.ndarray]]:
    """Every array a checkpoint stores: the model state, then the Adam moments."""
    entries = model.state_arrays()
    if adam is not None:
        for name in sorted(adam.m):
            entries.append(("adam_m", name, adam.m[name]))
            entries.append(("adam_v", name, adam.v[name]))
    return entries


def save_checkpoint(model: Model, state: Optional[AdamState], history: Optional[TrainHistory],
                    path) -> None:
    """Binary checkpoint: magic, version, JSON metadata, arrays as LE model dtype."""
    entries = _array_index(model, state)
    meta = {
        "model_config": model.config.to_dict(),
        "dtype": str(model.dtype),
        "adam": None if state is None else {"t": state.t},
        "history": None if history is None else history.to_dict(),
        "arrays": [{"role": role, "name": name, "shape": list(arr.shape)}
                   for role, name, arr in entries],
    }
    blob = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        for _, _, arr in entries:
            fh.write(np.ascontiguousarray(arr, dtype=model.dtype.newbyteorder("<")).tobytes())


def load_checkpoint(path) -> tuple[Model, Optional[AdamState], Optional[TrainHistory]]:
    """Check every size against the file's, then read each array into the model or Adam."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if head[:4] != CHECKPOINT_MAGIC:
            raise DataError(f"checkpoint magic {head[:4]!r} != {CHECKPOINT_MAGIC!r}")
        if len(head) < 16:
            raise DataError(f"checkpoint header truncated at {len(head)} of 16 bytes")
        version, meta_len = struct.unpack_from("<IQ", head, 4)
        if version != CHECKPOINT_VERSION:
            raise DataError(f"checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        offset = 16 + meta_len
        if size < offset:
            raise DataError("metadata block truncated")
        try:
            meta = json.loads(fh.read(meta_len).decode("utf-8"))
            if meta["dtype"] not in ("float32", "float64"):
                raise ValueError(f"dtype {meta['dtype']!r} is not float32 or float64")
            # str() keeps a non-string role or name from escaping as an unhashable key
            index = [((str(e["role"]), str(e["name"])), tuple(map(operator.index, e["shape"])))
                     for e in meta["arrays"]]
            history = None if meta["history"] is None else TrainHistory.from_dict(meta["history"])
            model = build_model(ModelConfig.from_dict(meta["model_config"]), seed=0,
                                dtype=meta["dtype"])
            adam_meta = meta["adam"]
            adam = None if adam_meta is None else AdamState.for_params(
                model.parameters(), t=operator.index(adam_meta["t"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed checkpoint metadata: {exc!r}") from None
        except MemoryError:
            raise DataError(f"checkpoint model {meta['model_config']} does not fit in "
                            "memory") from None

        # every array the model (and Adam, if saved) needs, exactly once, in its shape
        expected = {(role, name): arr for role, name, arr in _array_index(model, adam)}
        loaded = set()
        for key, shape in index:
            if key not in expected:
                raise DataError(f"unexpected array {key[0]} {key[1]!r}")
            if key in loaded:
                raise DataError(f"array {key[0]} {key[1]!r} appears twice")
            if shape != expected[key].shape:
                raise DataError(f"array {key[0]} {key[1]!r} has shape {shape}, "
                                f"the model needs {expected[key].shape}")
            offset += expected[key].nbytes
            if size < offset:
                raise DataError(f"array {key[1]} truncated")
            loaded.add(key)
        missing = sorted(expected.keys() - loaded)
        if missing:
            raise DataError(f"{len(missing)} arrays missing, first {missing[0][0]} "
                            f"{missing[0][1]!r}")
        if offset != size:
            raise DataError(f"{size - offset} trailing bytes after the last array")
        for key, _ in index:  # stored little-endian, in the model's dtype
            dest = expected[key]
            if fh.readinto(dest) != dest.nbytes:
                raise DataError(f"array {key[1]} truncated")
            if not np.little_endian:
                dest.byteswap(inplace=True)
    return model, adam, history


# ---------------------------------------------------------------------------
# cross-site generalization


def run_generalization(config: TrainConfig, records: list[ScanRecord], held_site: str,
                       data_root) -> dict:
    """Hold one site out as the test set, train on the rest, evaluate.

    Returns ``report``, the ``report_dict`` of the test scores tagged with
    the held-out site, test-set size and test records, next to the trained
    ``model``, ``adam`` and ``history``, the test ``scored`` set and the
    hold-out ``records``.
    """
    assigned = hold_out_site(records, held_site, seed=config.seed)
    test = two_class_split(assigned, "test")  # before training, which may take hours
    model, adam, history = fit(config, assigned, data_root=data_root)
    scored = score_records(model, test, data_root=data_root)
    report = {
        "held_out_site": held_site,
        "n_test": len(test),
        **report_dict(scored),
        "test_records": [{"subject_id": r.subject_id, "site": r.site,
                          "label": r.label, "split": r.split} for r in test],
    }
    return {"report": report, "model": model, "adam": adam, "history": history,
            "scored": scored, "records": assigned}
