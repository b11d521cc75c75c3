"""Arithmetic modes for the distributed algorithm.

The pipeline is generic over *how* shortest-path counts (sigma) and
dependency ratios (psi) are represented:

* :class:`ExactContext` uses Python integers and
  :class:`fractions.Fraction` — a bit-true reference whose messages can
  grow to Theta(N) bits on graphs with exponentially many shortest
  paths, i.e. it *violates* the CONGEST model (the paper's "Large Value
  Challenge", Section V).  Running the simulator in strict mode with
  this context demonstrates the violation.
* :class:`LFloatArithmetic` uses the paper's 2L-bit floating point
  format (Section VI) with the rounding directions chosen so that
  Lemma 1 / Theorem 1 apply; every message stays within O(log N) bits.

Both contexts expose the same small vocabulary of operations used by
Algorithms 2 and 3: sigma initialization/accumulation, reciprocal,
psi accumulation, the final dependency product ``psi * sigma``, and the
wire size of a value in bits.
"""

from __future__ import annotations

import abc
import math
from fractions import Fraction
from typing import Any, Dict, Tuple, Union

from repro.arithmetic.lfloat import LFloat, Rounding
from repro.exceptions import ArithmeticModeError

Value = Any  # int | Fraction | LFloat depending on context


class ArithmeticContext(abc.ABC):
    """The arithmetic vocabulary of the distributed BC algorithm."""

    #: short identifier used in reports ("exact" / "lfloat-<L>")
    name: str

    # -- sigma (shortest path counts) ----------------------------------
    @abc.abstractmethod
    def sigma_one(self) -> Value:
        """The count of the trivial path (sigma_ss = 1)."""

    @abc.abstractmethod
    def sigma_add(self, a: Value, b: Value) -> Value:
        """Accumulate predecessor counts: Eq. (6)."""

    # -- psi (dependency ratios, Eq. 14) --------------------------------
    @abc.abstractmethod
    def psi_zero(self) -> Value:
        """The additive identity for psi accumulation."""

    @abc.abstractmethod
    def psi_add(self, a: Value, b: Value) -> Value:
        """Accumulate a received ``1/sigma + psi`` term."""

    @abc.abstractmethod
    def psi_one(self) -> Value:
        """The unit term in the psi domain.

        Betweenness seeds the Eq. (14) recursion with ``1/sigma``;
        the stress variant (footnote 3 of the paper) seeds it with 1 —
        this is that 1.
        """

    @abc.abstractmethod
    def reciprocal(self, sigma: Value) -> Value:
        """``1 / sigma`` in the psi domain."""

    @abc.abstractmethod
    def dependency(self, psi: Value, sigma: Value) -> Value:
        """delta = psi * sigma (line 17 of Algorithm 3)."""

    # -- wire accounting -------------------------------------------------
    @abc.abstractmethod
    def value_bits(self, value: Value) -> int:
        """Bits this value occupies in a CONGEST message.

        Must agree with :func:`repro.wire.values.value_bits` — the codec
        sizes values by type, and the frame audit will catch a context
        that disagrees with the encoder.
        """

    def read_sigma(self, reader) -> Value:
        """Decode a sigma field from a :class:`~repro.wire.bits.BitReader`.

        The wire bits alone don't say whether they carry an exact
        integer or an L-float, nor which directed rounding the receiver
        should attach — that is this context's knowledge.
        """
        raise NotImplementedError(
            "{} cannot decode sigma fields".format(type(self).__name__)
        )

    def read_psi(self, reader) -> Value:
        """Decode a psi field from a :class:`~repro.wire.bits.BitReader`."""
        raise NotImplementedError(
            "{} cannot decode psi fields".format(type(self).__name__)
        )

    # -- output ------------------------------------------------------
    @abc.abstractmethod
    def to_float(self, value: Value) -> float:
        """Render a value for reporting."""

    def to_exact(self, value: Value) -> Fraction:
        """The exact rational behind ``value`` (for error analysis)."""
        if isinstance(value, LFloat):
            return value.to_fraction()
        return Fraction(value)


class ExactContext(ArithmeticContext):
    """Arbitrary-precision reference arithmetic (ints and Fractions).

    Message sizes report the true bit cost of the carried numbers, which
    lets the simulator detect CONGEST violations that the paper's
    Section V predicts for exponential path counts.
    """

    name = "exact"

    def sigma_one(self) -> int:
        return 1

    def sigma_add(self, a: int, b: int) -> int:
        return a + b

    def psi_zero(self) -> Fraction:
        return Fraction(0)

    def psi_one(self) -> Fraction:
        return Fraction(1)

    def psi_add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def reciprocal(self, sigma: int) -> Fraction:
        return Fraction(1, sigma)

    def dependency(self, psi: Fraction, sigma: int) -> Fraction:
        return psi * sigma

    def value_bits(self, value: Union[int, Fraction]) -> int:
        # Defer to the wire codec: sigma is one varint, psi (a Fraction)
        # is a numerator varint plus a denominator varint.  Imported
        # lazily to keep this module importable without repro.wire.
        from repro.wire.values import value_bits

        return value_bits(value)

    def read_sigma(self, reader) -> int:
        from repro.wire.values import read_int

        return read_int(reader)

    def read_psi(self, reader) -> Fraction:
        from repro.wire.values import read_fraction

        return read_fraction(reader)

    def to_float(self, value: Union[int, Fraction]) -> float:
        return float(value)


class LFloatArithmetic(ArithmeticContext):
    """The paper's Section VI floating point arithmetic.

    Parameters
    ----------
    precision:
        The mantissa width L.  Choose ``L >= ceil(c * log2 N)`` with
        c >= 2 for an O(N**-(c-2)) relative error on the final BC values
        (Corollary 1); :func:`recommended_precision` computes a good
        default.
    """

    def __init__(self, precision: int):
        self.precision = int(precision)
        self.name = "lfloat-{}".format(self.precision)
        #: Memo for :meth:`reciprocal`, keyed by representation.  The
        #: aggregation phase computes 1/sigma_su once per (node, source)
        #: pair, but the sigma values repeat massively (every record on
        #: a tree-like shortest path has sigma == 1); LFloat is
        #: immutable, so sharing the result object is safe.
        self._recip_cache: Dict[Tuple[int, int], LFloat] = {}

    def sigma_one(self) -> LFloat:
        return LFloat.from_int(1, self.precision, Rounding.CEIL)

    def sigma_add(self, a: LFloat, b: LFloat) -> LFloat:
        # Ceil keeps sigma_hat >= sigma (Lemma 1's "ceil estimation").
        return a.add(b, Rounding.CEIL)

    def psi_zero(self) -> LFloat:
        return LFloat.zero(self.precision, Rounding.FLOOR)

    def psi_one(self) -> LFloat:
        return LFloat.from_int(1, self.precision, Rounding.FLOOR)

    def psi_add(self, a: LFloat, b: LFloat) -> LFloat:
        # Floor keeps psi_hat <= psi, preserving inequality (18).
        return a.add(b, Rounding.FLOOR)

    def reciprocal(self, sigma: LFloat) -> LFloat:
        # 1/sigma_hat < 1/sigma already; floor keeps the bound one-sided.
        key = (sigma.mantissa, sigma.exponent)
        cached = self._recip_cache.get(key)
        if cached is None:
            cached = self._recip_cache[key] = sigma.reciprocal(Rounding.FLOOR)
        return cached

    def dependency(self, psi: LFloat, sigma: LFloat) -> LFloat:
        return psi.mul(sigma, Rounding.NEAREST)

    def value_bits(self, value: LFloat) -> int:
        return value.bit_size()

    def read_sigma(self, reader) -> LFloat:
        # Sigmas travel with ceil semantics (Lemma 1's over-estimate).
        return LFloat.decode(
            reader.read(2 * self.precision + 1), self.precision, Rounding.CEIL
        )

    def read_psi(self, reader) -> LFloat:
        # Psi terms travel with floor semantics (inequality (18)).
        return LFloat.decode(
            reader.read(2 * self.precision + 1), self.precision, Rounding.FLOOR
        )

    def to_float(self, value: LFloat) -> float:
        return value.to_float()


def recommended_precision(num_nodes: int, c: float = 3.0) -> int:
    """L = max(8, ceil(c * log2 N)): the Corollary 1 parameter choice.

    ``c = 3`` gives a comfortably small O(1/N) end-to-end error while
    keeping messages at O(log N) bits.
    """
    if num_nodes < 1:
        raise ValueError("need at least one node")
    return max(8, math.ceil(c * math.log2(max(2, num_nodes))))


def make_context(mode: Union[str, ArithmeticContext], num_nodes: int = 0):
    """Resolve a mode spec into a context instance.

    Accepts an existing context, ``"exact"``, ``"lfloat"`` (precision
    chosen by :func:`recommended_precision` from ``num_nodes``), or
    ``"lfloat-<L>"``.
    """
    if isinstance(mode, ArithmeticContext):
        return mode
    if mode == "exact":
        return ExactContext()
    if mode == "lfloat":
        return LFloatArithmetic(recommended_precision(max(1, num_nodes)))
    if isinstance(mode, str) and mode.startswith("lfloat-"):
        digits = mode.split("-", 1)[1]
        if digits.isdecimal():
            return LFloatArithmetic(int(digits))
    raise ArithmeticModeError(
        "unknown arithmetic mode {!r} (want exact, lfloat or "
        "lfloat-<L>)".format(mode)
    )
