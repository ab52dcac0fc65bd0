"""Dense tensors with reverse-mode gradients recorded on an explicit tape.

Every kernel in :mod:`szdl.ops` computes its forward result eagerly with
numpy and, when handed a :class:`Tape`, appends a node holding the inputs
and a closure that maps the output gradient to input gradients.  Calling
:func:`backward` replays the nodes in exact reverse execution order and
accumulates gradients additively, so a tensor used twice receives the sum
of both contributions.

A tape is spent by one replay: ``backward`` pops each node as it runs it,
so every closure and the arrays it saved are freed once used, and a second
``backward`` on the same tape raises ``ValueError``.  Closures save only
what they read, and ``Model.run`` hands the activations that no closure
reads to the next op as its output buffer, then empties the tensor: each
convolution output becomes its batch norm's output, each ReLU input (in
a convolution unit, the squeeze-and-excitation output) becomes the ReLU's
output, and with no tape each batch-norm output becomes the gated output.
The only tensor its caller sees that it empties is the input of a range
that starts at a BN or ReLU layer, or at an SE layer with no tape.

One rule decides which gradients are computed: ``backward``'s ``inputs``
(by default every :class:`Parameter` the tape read).  Only tensors on a path
from an input to the loss get a gradient, so an input batch gets none, and
each intermediate one is dropped once propagated.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np


class Tensor:
    """N-dimensional real array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad")

    def __init__(self, data, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """Trainable tensor with a unique name path and an always-allocated grad."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, dtype=None):
        super().__init__(data, dtype=dtype)
        self.name = name
        # np.zeros, unlike zeros_like, leaves the pages unmapped until training writes them
        self.grad = np.zeros(self.data.shape, self.data.dtype)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


# A backward closure receives the output gradient plus a per-input boolean
# tuple saying which input gradients are actually needed, and returns one
# array (or None) per input.  Returned arrays become owned by the tape; a
# view of the output gradient is acceptable for single-input ops.
BackwardFn = Callable[[np.ndarray, Sequence[bool]], Sequence[Optional[np.ndarray]]]


class Tape:
    """Ordered record of executed operations, consumed by one reverse-mode replay."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], BackwardFn]] = []
        self._spent = False

    def record(self, output: Tensor, inputs: Sequence[Tensor], backward_fn: BackwardFn) -> None:
        self._nodes.append((output, tuple(inputs), backward_fn))

    def __len__(self) -> int:
        return len(self._nodes)


def backward(tape: Tape, loss: Tensor, inputs: Optional[Sequence[Tensor]] = None) -> None:
    """Accumulate d(loss)/dt into ``t.grad`` for every ``t`` in ``inputs``.

    ``inputs`` defaults to every :class:`Parameter` the tape read.  Only
    tensors on a path from an input to ``loss`` get a gradient, and all but
    the inputs' are dropped once propagated.  The seed is ones, so ``loss``
    is normally a scalar (``ops.take`` picks one logit).  The replay
    consumes ``tape``: each node is popped, and its closure freed, once
    run, so the tape is empty afterwards.  Raises ``ValueError`` if the
    tape is spent or ``loss`` was not produced under it.
    """
    if tape._spent:
        raise ValueError("this tape is spent: backward already replayed it; record a new one")
    if not any(output is loss for output, _, _ in tape._nodes):
        raise ValueError("loss tensor was not produced on this tape")
    if inputs is None:
        inputs = [t for _, ts, _ in tape._nodes for t in ts if isinstance(t, Parameter)]
    keep = {id(t) for t in inputs}
    on_path = set(keep)
    for output, ts, _ in tape._nodes:
        if any(id(t) in on_path for t in ts):
            on_path.add(id(output))

    seed = np.ones_like(loss.data)
    loss.grad = seed if loss.grad is None else loss.grad + seed
    tape._spent = True
    nodes = tape._nodes
    while nodes:
        output, ts, backward_fn = nodes.pop()
        grad = output.grad
        if grad is None:
            continue  # this node never contributed to the loss
        output.grad = grad.copy() if id(output) in keep else None  # closures may return views
        needs = tuple(id(t) in on_path for t in ts)
        if not any(needs):
            continue
        for t, g, needed in zip(ts, backward_fn(grad, needs), needs):
            if g is None or not needed:
                continue
            if t.grad is None:
                t.grad = g
            else:
                t.grad += g
