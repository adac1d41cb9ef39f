"""The paper's integer dense layer, written once on raw codes.

A FIXAR layer is a matrix-vector multiplication (MVM) on the AAP cores
followed by the accumulator's rescale to the output format.  This module is
that layer as plain functions on int64 raw codes and
:class:`~repro.fixedpoint.QFormat` descriptors:

* :func:`mvm` — ``a @ b`` by column-wise decomposition (Fig. 4a), every
  product formed by the PE's two 32x16 partial products
  (:func:`~repro.fixedpoint.multiply_decomposed`, Fig. 5) and accumulated
  exactly in int64.  One MVM serves all three passes: the forward ``x @ W``,
  the BP input gradient ``g @ Wᵀ`` and the weight gradient ``xᵀ @ g``;
* :func:`requantize` — the accumulator's round-half-up shift onto the
  output format, with saturation;
* :func:`dense_forward` — ``x @ W + b``: MVM, shift, then the bias
  requantized to the output format and added, the accelerator's order;
* :func:`network_forward` — an ``nn`` network's forward pass with every
  dense layer on this kernel.  ReLU, tanh and the activation projections
  (the affine quantizer included) stay the numerics object's own.

How ``nn`` relates to the kernel, pinned by ``tests/test_datapath.py`` for
one dense layer with its inputs and parameters on their grids (``fx``,
``fw`` are the input and weight fraction bits, sums are over raw codes):

* **Accumulator, ``==``.**  ``nn``'s float64 ``x @ W + b`` equals the
  kernel's unrounded sum whenever ``Σ|x·w| + |b|·2^fx < 2^53``.  Every
  product and every partial sum is then an integer number of
  ``2^-(fx+fw)`` units below float64's 53-bit significand, so no BLAS
  summation order or fused multiply-add can round.
* **Forward rounding, ≤ 1 LSB at ties only.**  The kernel rounds half up;
  ``QFormat.quantize`` rounds half to even.  With the output in the weight
  format (the bias then joins unrounded) the two differ exactly where the
  dropped bits are one half LSB and the code below the tie is even, and
  there by exactly 1 LSB.
* **Back-propagation, ``==``.**  The kernel's integer gradient accumulators
  equal ``nn``'s float64 products under the same condition, and the
  projection onto the gradient format is the numerics object's on both
  sides.
* **Weight update.**  Adam is ``nn.Adam`` alone; there is no second copy.
"""

from __future__ import annotations

import numpy as np

from ..fixedpoint import QFormat, multiply_decomposed
from ..nn.layers import Linear, ReLU, Tanh

__all__ = ["mvm", "requantize", "dense_forward", "network_forward"]

#: Where :func:`mvm`'s float64 estimate of ``Σ|a·b|`` starts refusing.
_GUARD = 2.0 ** 62


def mvm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` on int64 raw codes, exactly, through the PE's multipliers.

    ``a`` is ``(n,)`` or ``(m, n)``, ``b`` is ``(n, p)``; the result carries
    the sum of the operands' fraction bits.  Column-wise decomposition: for
    every ``k`` the outer product of column ``k`` of ``a`` and row ``k`` of
    ``b`` comes from :func:`~repro.fixedpoint.multiply_decomposed` and is
    added into the accumulator.

    The accumulator is int64, so every output's ``Σ_k |a_k·b_k|`` must stay
    below 2^63.  The sum is estimated in float64 and ``ValueError`` is raised
    from 2^62 on: the factor two covers the estimate's rounding (relative
    error below ``n·2^-53``), so a sum that could wrap is always refused and
    never wrapped, and every sum below 2^62 runs.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if b.ndim != 2 or a.ndim not in (1, 2) or a.shape[-1] != b.shape[0]:
        raise ValueError(f"cannot multiply raw codes of shapes {a.shape} and {b.shape}")
    bound = np.abs(a.astype(np.float64)) @ np.abs(b.astype(np.float64))
    if bound.size and bound.max() >= _GUARD:
        raise ValueError(
            f"an accumulator sum reaches {bound.max():.3g} >= 2^62; "
            "the int64 accumulator could overflow"
        )
    acc = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
    for k in range(b.shape[0]):
        acc += multiply_decomposed(a[..., k, None], b[k])
    return acc


def requantize(acc: np.ndarray, frac_bits: int, fmt: QFormat) -> np.ndarray:
    """Codes with ``frac_bits`` fraction bits, rounded half up onto ``fmt``.

    A right shift adds half an LSB first, as the accumulator's output stage
    does; a left shift (a wider fraction) saturates before widening so it
    cannot wrap.  The result is saturated into ``fmt``'s range.
    """
    acc = np.asarray(acc, dtype=np.int64)
    shift = frac_bits - fmt.frac_bits
    if shift > 0:
        acc = (acc + (1 << (shift - 1))) >> shift
    elif shift < 0:
        acc = np.clip(acc, (fmt.raw_min >> -shift) - 1, (fmt.raw_max >> -shift) + 1) << -shift
    return fmt.clip_raw(acc)


def dense_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    x_fmt: QFormat,
    w_fmt: QFormat,
    out_fmt: QFormat,
) -> np.ndarray:
    """Raw codes of ``x @ W + b`` in ``out_fmt``.

    ``x`` is in ``x_fmt``; the weight ``w`` (``(in, out)``, the ``nn``
    layout) and the bias ``b`` are in ``w_fmt``.  The :func:`mvm`
    accumulator is shifted onto ``out_fmt`` first; the bias, requantized to
    ``out_fmt``, is added after the shift and the sum saturated.
    """
    acc = requantize(mvm(x, w), x_fmt.frac_bits + w_fmt.frac_bits, out_fmt)
    return out_fmt.clip_raw(acc + requantize(b, w_fmt.frac_bits, out_fmt))


def network_forward(network, inputs: np.ndarray) -> np.ndarray:
    """``network.forward(inputs)`` with every dense layer on the kernel.

    ``network`` is an :class:`~repro.nn.MLP` under fixed-point numerics.
    Each dense layer takes its input as codes in the numerics'
    ``activation_format`` (the network input is rounded onto it, as the host
    ships fixed-point states) and its projected weight and bias as codes in
    the ``weight_format``, which is also where :func:`dense_forward` puts
    its output.  ReLU, tanh and, after every layer, ``project_activation``
    are then applied exactly as :meth:`MLP.forward` applies them.  Unlike
    ``MLP.forward``, nothing is observed: range trackers are left alone.
    """
    numerics = network.numerics
    weight_format = numerics.weight_format
    if weight_format is None:
        raise ValueError(f"{numerics.name} numerics have no fixed-point weight format")
    input_format = numerics.activation_format
    values = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    current = None
    for layer in network.layers:
        if isinstance(layer, Linear):
            current = layer.name
            codes = dense_forward(
                input_format.to_raw(values),
                weight_format.to_raw(layer.weight),
                weight_format.to_raw(layer.bias),
                input_format,
                weight_format,
                weight_format,
            )
            values = weight_format.from_raw(codes)
        elif isinstance(layer, ReLU):
            values = np.maximum(values, 0.0)
        elif isinstance(layer, Tanh):
            values = np.tanh(values)
        else:
            raise ValueError(f"no datapath for a {type(layer).__name__} layer")
        values = numerics.project_activation(values, layer=current)
    return values
