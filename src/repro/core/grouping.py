"""Grouped application of per-class matrices to row blocks.

Whitening and sampling both need ``out[i] = values[i] @ M_{class(i)}^T``
for an ``(n, d)`` value matrix and a ``(C, d, d)`` stack of per-class
matrices.  The historical implementation scanned ``class_of_row == c``
once per class — O(n·C) index work before any arithmetic.  The rows are
grouped into contiguous class blocks using the partition's cached
``scatter_plan`` (one argsort per :class:`EquivalenceClasses` lifetime,
not per call); from there two strategies apply:

* **block-diagonal GEMM** (default): the class blocks are scattered into
  a zero-padded ``(C, B, d)`` tensor (``B`` = largest class) and the
  whole product is one stacked ``np.matmul`` against the ``(C, d, d)``
  matrix stack — a single batched BLAS dispatch, no Python-level loop at
  all.  Padding rows multiply to zero and are never read back.
* **per-class loop** (:func:`apply_by_class_loop`): one contiguous
  matmul per class.  Kept as the fallback for *ragged* partitions —
  when one class dominates (``C·B`` far above ``n``) the padded tensor
  would be mostly zeros and the batched GEMM would burn memory and
  flops on padding — and as the reference opponent the property tests
  and the ``projection`` benchmark suite measure the GEMM path against.

Materialising a gathered ``(n, d, d)`` matrix stack would also avoid the
loop but costs O(n·d²) memory (a gigabyte at n=8192, d=128); the padded
form is O(C·B·d), which for the near-balanced partitions equivalence
classes produce stays within a small factor of the data itself.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.core.equivalence import EquivalenceClasses

#: The block-diagonal GEMM runs when the padded tensor ``C * B`` holds at
#: most this many times the real rows ``n``; beyond it (one huge class
#: plus many tiny ones) the loop wins on memory traffic.
_RAGGED_FACTOR = 4.0


def apply_by_class(
    values: np.ndarray,
    classes: EquivalenceClasses,
    matrices: np.ndarray,
) -> np.ndarray:
    """Per-row matrix application ``out[i] = values[i] @ M_{class(i)}^T``.

    Dispatches to the block-diagonal GEMM for (near-)balanced partitions
    and to :func:`apply_by_class_loop` for ragged ones; both produce
    identical output (property-tested to 1e-10, usually bit-equal).

    Parameters
    ----------
    values:
        (n, d) input rows, ordered like the partition's rows.
    classes:
        The row partition; supplies the cached (order, offsets) plan.
    matrices:
        (C, d, d) stack of per-class matrices, ``C == classes.n_classes``.

    Returns
    -------
    numpy.ndarray
        (n, d) output in original row order.
    """
    n = values.shape[0]
    c_count = classes.n_classes
    if n == 0 or c_count <= 1:
        # Nothing to group: a single class is already one contiguous GEMM.
        return apply_by_class_loop(values, classes, matrices)
    # Both plans are cached on the immutable partition (one argsort + one
    # O(n) index build per EquivalenceClasses lifetime, not per call).
    order, _ = classes.scatter_plan
    sorted_class, pos, largest = classes.padded_scatter_plan
    if c_count * largest > _RAGGED_FACTOR * n:
        perf.add("core.scatter_loop_fallbacks")
        return apply_by_class_loop(values, classes, matrices)

    with perf.timer("scatter_gemm"):
        # Scatter the contiguous class blocks into a (C, B, d) padded
        # tensor: sorted row j of class c lands at padded[c, j - start_c].
        padded = np.zeros((c_count, largest, values.shape[1]))
        padded[sorted_class, pos] = values[order]
        # One batched GEMM over the whole block diagonal.
        out_padded = np.matmul(padded, np.swapaxes(matrices, -1, -2))
        out = np.empty_like(values)
        out[order] = out_padded[sorted_class, pos]
        perf.add("core.scatter_gemm_calls")
        return out


def apply_by_class_loop(
    values: np.ndarray,
    classes: EquivalenceClasses,
    matrices: np.ndarray,
) -> np.ndarray:
    """Per-class loop form of :func:`apply_by_class` (one matmul per class).

    The pre-GEMM implementation, kept verbatim: production falls back to
    it for ragged partitions, and the parity tests and the
    ``projection`` benchmark suite use it as the reference opponent.
    """
    order, offsets = classes.scatter_plan
    blocks = values[order]
    for c in range(classes.n_classes):
        lo, hi = offsets[c], offsets[c + 1]
        if lo == hi:
            continue
        blocks[lo:hi] = blocks[lo:hi] @ matrices[c].T
    out = np.empty_like(values)
    out[order] = blocks
    return out
