"""Dense tensors with reverse-mode gradients recorded on an explicit tape.

Every kernel in :mod:`szdl.ops` computes its forward result eagerly with
numpy and, when handed a :class:`Tape`, appends a node holding the inputs
and a closure that maps the output gradient to input gradients.  Calling
:func:`backward` replays the nodes in exact reverse execution order and
accumulates gradients additively, so a tensor used twice receives the sum
of both contributions.

Gradients are only materialized where they can matter: parameters, tensors
explicitly flagged with ``requires_grad``, and intermediate tensors that
were produced on the tape.  Leaf data tensors (e.g. an input batch) are
skipped unless flagged, which keeps the first convolution's backward pass
from computing a throwaway input gradient.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np


class Tensor:
    """N-dimensional real array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad[...] = 0

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """Trainable tensor with a unique name path and an always-allocated grad."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, dtype=None):
        super().__init__(data, dtype=dtype, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


# A backward closure receives the output gradient plus a per-input boolean
# tuple saying which input gradients are actually needed, and returns one
# array (or None) per input.  Returned arrays become owned by the tape; a
# view of the output gradient is acceptable for single-input ops.
BackwardFn = Callable[[np.ndarray, Sequence[bool]], Sequence[Optional[np.ndarray]]]


class Tape:
    """Ordered record of executed operations for reverse-mode replay."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], BackwardFn]] = []
        self._output_ids: set[int] = set()

    def record(self, output: Tensor, inputs: Sequence[Tensor], backward_fn: BackwardFn) -> None:
        self._nodes.append((output, tuple(inputs), backward_fn))
        self._output_ids.add(id(output))

    def produced(self, t: Tensor) -> bool:
        return id(t) in self._output_ids

    def __len__(self) -> int:
        return len(self._nodes)

    def _needs_grad(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._output_ids


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate ``.grad`` for every tensor reachable from ``loss`` on the tape.

    The output gradient is seeded with ones, so ``loss`` is normally a
    scalar (``ops.take`` picks one logit).  Raises ``ValueError`` if ``loss``
    was not produced under this tape.
    """
    if not tape.produced(loss):
        raise ValueError("loss tensor was not produced on this tape")
    seed = np.ones_like(loss.data)
    loss.grad = seed if loss.grad is None else loss.grad + seed

    for output, inputs, backward_fn in reversed(tape._nodes):
        if output.grad is None:
            continue  # this node never contributed to the loss
        needs = tuple(tape._needs_grad(t) for t in inputs)
        if not any(needs):
            continue
        grads = backward_fn(output.grad, needs)
        for t, g, needed in zip(inputs, grads, needs):
            if g is None or not needed:
                continue
            if t.grad is None:
                t.grad = g
            else:
                t.grad += g
