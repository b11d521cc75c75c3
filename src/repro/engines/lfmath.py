"""Batched L-float arithmetic on int64 mantissa/exponent lanes.

The bulk engine carries every sigma/psi value as a pair of parallel
int64 arrays ``(m, e)`` — mantissa and exponent of
:class:`repro.arithmetic.lfloat.LFloat`, with zero encoded as
``(0, 0)`` exactly like the scalar format.  The kernels here reproduce
the scalar normalizer **bit for bit** in every rounding mode, which is
what lets the bulk engine promise byte-identical results to the
``sweep`` and ``event`` engines (verified by the differential suite and
by randomized kernel-vs-scalar tests).

Why int64 is enough — and where the envelope ends:

* A product of two L-bit mantissas is below ``2**(2L)``.
* An aligned addition is below ``2**(2L + 1)`` *after sticky capping*
  (below): ``m_hi << diff`` with ``diff <= L + 1`` plus an ``m_lo``
  that is 1 whenever the gap is capped.  The reciprocal numerator
  ``2**(2L - 1)`` needs ``2L`` bits.
* Hence every intermediate fits a signed 64-bit lane for ``L <= 30``
  (:data:`repro.engines.dispatcher.MAX_BULK_PRECISION`).

**Bit lengths from float64.**  Normalizing a sum or a product needs the
bit length of a value below ``2**(2L + 1)``.  The kernels read it off
the exponent of one float64 ``np.frexp``.  The conversion is exact
below ``2**53``, so for ``L <= 26`` the exponent *is* the bit length.
For ``27 <= L <= 30`` the conversion can round a value just below
``2**k`` up to exactly ``2**k``, one too high; rounding is monotone
and powers of two are representable, so it is never more than one
off, and the lanes where ``num >> (e - 1)`` is zero are exactly those
that need one subtracted.

**Sticky capping.**  The scalar adder aligns mantissas with an
arbitrary-precision shift ``m_hi << (e_hi - e_lo)``, which int64 cannot
do once the exponent gap exceeds ~33 bits.  But only the top ``L + 1``
bits of the aligned sum plus one "is anything below nonzero" sticky bit
can influence the rounded result, so for a gap ``diff > L`` the pair
``(diff, m_lo)`` is replaced by ``(L + 1, 1)``: the quotient, the
remainder-nonzero test and the round-to-nearest guard bit (which sits
above the capped region only when ``diff <= L``, and is provably zero
otherwise) all come out identical in all three rounding modes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import LFloatRangeError

__all__ = [
    "bit_length",
    "lf_add",
    "lf_mul",
    "lf_reciprocal",
    "uint_bits_arr",
]

_LOW32 = np.int64(0xFFFFFFFF)


def bit_length(x: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for non-negative int64 below 2**62.

    ``np.frexp`` on a float64 returns the exponent, which equals the bit
    length for exact integer inputs; splitting into 32-bit halves keeps
    every conversion exact (a direct conversion of a 62-bit value would
    round at 53 bits and misreport lengths near binade boundaries).
    """
    hi = x >> 32
    lo = x & _LOW32
    return np.where(
        hi > 0,
        np.frexp(hi.astype(np.float64))[1] + 32,
        np.frexp(lo.astype(np.float64))[1],
    ).astype(np.int64)


def _normalize(num: np.ndarray, L: int, mode: str):
    """Vectorized ``_normalize_int`` for ``2**L <= num < 2**(2L + 1)``.

    Both call sites (add, mul) guarantee that range on every lane they
    keep, so the left-shift branch of the scalar normalizer never
    applies and the bit length comes from one float64 ``np.frexp``
    (module docstring).  Returns the rounded mantissa and the right
    shift that produced it, plus one where rounding carried into the
    next binade: the scalar exponent is ``L`` plus that.
    """
    e = np.frexp(num.astype(np.float64))[1]
    if L > 26:  # above 2**53 the conversion may round up to 2**e
        e -= (num >> (e - 1)) == 0
    shift = e - L
    if mode == "floor":
        return num >> shift, shift
    if mode == "ceil":
        q = ((num - 1) >> shift) + 1
    elif mode == "nearest":
        # Ties round up: add the guard bit (the top dropped bit).
        q = ((num >> (shift - 1)) + 1) >> 1
    else:
        raise ValueError("unknown rounding mode {!r}".format(mode))
    carry = q >> L  # 1 exactly where q rounded up to 2**L
    q >>= carry
    return q, shift + carry


def _check_range(e: np.ndarray, L: int) -> None:
    limit = (1 << L) - 1
    if e.size and (e.max() > limit or e.min() < -limit):
        bad = int(e[np.argmax(np.abs(e))])
        raise LFloatRangeError(
            "exponent {} outside [-{}, {}] for L={}".format(
                bad, limit, limit, L
            )
        )


def lf_add(ma, ea, mb, eb, L: int, mode: str):
    """Elementwise ``a.add(b, mode)`` on (mantissa, exponent) lanes.

    Operand order matters exactly as in the scalar adder: on an exponent
    tie the **first** operand is treated as the high one (the scalar
    tests ``se >= oe``), and a zero operand returns the other operand's
    lanes verbatim.
    """
    ma = np.asarray(ma, dtype=np.int64)
    ea = np.asarray(ea, dtype=np.int64)
    mb = np.asarray(mb, dtype=np.int64)
    eb = np.asarray(eb, dtype=np.int64)
    a_is_hi = ea >= eb
    m_hi = np.where(a_is_hi, ma, mb)
    m_lo = ma + mb
    m_lo -= m_hi
    e_lo = np.where(a_is_hi, eb, ea)
    diff = ea - eb
    np.abs(diff, out=diff)
    if diff.max(initial=0) > L:
        capped = diff > L
        m_lo[capped] = 1
        e_lo = np.where(capped, e_lo + diff - (L + 1), e_lo)
        np.minimum(diff, L + 1, out=diff)
    num = m_hi << diff
    num += m_lo  # < 2**(2L + 1)
    res_m, shift = _normalize(num, L, mode)
    res_e = e_lo + shift
    if not (ma.all() and mb.all()):
        # A zero operand returns the other verbatim.  Its lane went
        # through the path above with num < 2**L; numpy shifts never
        # raise, so the garbage there is simply overwritten.
        a_zero = ma == 0
        b_zero = mb == 0
        res_m = np.where(a_zero, mb, np.where(b_zero, ma, res_m))
        res_e = np.where(a_zero, eb, np.where(b_zero, ea, res_e))
    _check_range(res_e, L)
    return res_m, res_e


def lf_mul(ma, ea, mb, eb, L: int, mode: str):
    """Elementwise ``a.mul(b, mode)`` on (mantissa, exponent) lanes.

    The scalar power-of-two shortcuts are exact and bit-identical to
    the generic path (their normalization drops only zero bits), so the
    kernel runs the generic path uniformly.
    """
    ma = np.asarray(ma, dtype=np.int64)
    ea = np.asarray(ea, dtype=np.int64)
    mb = np.asarray(mb, dtype=np.int64)
    eb = np.asarray(eb, dtype=np.int64)
    zero = (ma == 0) | (mb == 0)
    one = np.int64(1) << (L - 1)
    ma_s = np.where(zero, one, ma)
    mb_s = np.where(zero, one, mb)
    num = ma_s * mb_s  # < 2**(2L) <= 2**60
    q, shift = _normalize(num, L, mode)
    res_m = np.where(zero, 0, q)
    res_e = np.where(zero, 0, shift + ea + eb - L)
    _check_range(res_e, L)
    return res_m, res_e


def lf_reciprocal(m, e, L: int):
    """Elementwise floor-rounded ``1 / x`` on nonzero (m, e) lanes.

    Mirrors the scalar ``_build(1, m, L - e, FLOOR)``: a power-of-two
    mantissa (necessarily ``2**(L-1)``) inverts exactly to
    ``(2**(L-1), 2 - e)``; otherwise the floored quotient
    ``2**(2L-1) // m`` is already normalized and the exponent is
    ``1 - e``.
    """
    m = np.asarray(m, dtype=np.int64)
    e = np.asarray(e, dtype=np.int64)
    if np.any(m == 0):
        raise ZeroDivisionError("reciprocal of zero")
    pow2 = m == (np.int64(1) << (L - 1))
    safe_m = np.where(pow2, 1, m)  # avoid the exact-power division lane
    q = (np.int64(1) << (2 * L - 1)) // safe_m
    res_m = np.where(pow2, np.int64(1) << (L - 1), q)
    res_e = np.where(pow2, 2 - e, 1 - e)
    _check_range(res_e, L)
    return res_m, res_e


def uint_bits_arr(value: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.wire.bits.uint_bits` (varint width).

    ``uint_bits(v) = b + 2 * (bit_length(b) - 1)`` with
    ``b = bit_length(v + 1)`` — the Elias-gamma-style self-delimiting
    width the wire layer charges for unbounded counters.
    """
    value = np.asarray(value, dtype=np.int64)
    b = bit_length(value + 1)
    return b + 2 * (bit_length(b) - 1)
