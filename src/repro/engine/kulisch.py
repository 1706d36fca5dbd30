"""Vectorized Kulisch accumulation in code space.

A dot product of two 8-bit code streams is computed *exactly* as an
integer: every operand is ``msig * 2^(pmin + texp)`` (see
:mod:`repro.engine.planes`), so a product is an integer significand
product shifted by the exponent sum, and a dot product is an exact
fixed-point integer in units of ``2^lsb`` with ``lsb = pmin_a + pmin_b``
— the software analogue of the paper's Fig. 2 Kulisch accumulator, with
no intermediate rounding regardless of accumulation length.

The full shift range (up to ``2*span`` binades, ~190 bits for
Posit(8,3)) does not fit an int64, so the accumulation is *blocked*:
with ``texp = h*BLOCK + l``, the in-word shift ``l`` is baked into the
operand planes and each pair of exponent blocks ``(h_a, h_b)``
contributes one plain int64 matmul to the limb ``H = h_a + h_b``.  The
exact accumulator value is ``sum_H limbs[H] << (BLOCK*H)``; blocks with
no operands are skipped, so well-scaled tensors (the PTQ case: data
concentrated around 2^0) cost only a handful of int64 matmuls.

The final re-encode — the MAC's single output rounding, round to nearest
with ties away from zero — is the output format's own ``encode_array``
(the bit-LUT kernel or the reference ``searchsorted`` path, by the kernel
switch), applied to one float64 per output that rounds exactly like the
accumulator.  Which float64 follows from a bound on the inputs (the
blocks present and the contraction length):

* the total itself, when ``|total| < 2^53`` in units of ``2^lsb``: the
  limbs combine in int64, the cast to float64 is exact (a 53-bit
  significand holds the whole integer) and so is ``np.ldexp`` by the lsb;
* otherwise the accumulator's *leading window* (``_window_floats``): the
  limbs are carry-normalised into ``BLOCK``-bit digits and only the
  magnitude's top nonzero digit and the next two are kept, truncated
  toward zero — at least ``2*BLOCK + 1`` significant bits, an exact
  float64.  Every codebook midpoint has at most ``MID_SIG_BITS_MAX =
  2*BLOCK + 1`` significant bits (9 for the widest registry format,
  Posit(8,3); checked when the planes are built), so a midpoint at or
  above the window lies on the window's grid: truncation can never cross
  one.  When the window lands exactly on a midpoint, the value is that
  midpoint or lies beyond it away from zero, and both round away from
  zero.  This is the software form of Deep Positron's quire-to-posit
  rounding from the register's leading bits.

Neither builds Python-int arrays; ``matmul_exact``/``dot_exact`` still
combine the limbs into exact Python ints, as the test oracle.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .planes import BLOCK, CodePlanes, planes_for

__all__ = ["qdot", "qmatmul", "dot_exact", "matmul_exact"]

_DIGIT = (1 << BLOCK) - 1
#: digits an int64 limb can carry into above itself: |limb| < 2^63 spans
#: at most four ``BLOCK``-bit digits
_SPILL = 3


def _as_code_matrix(codes, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(codes, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (got shape {arr.shape})")
    return arr


def _carry(limbs: np.ndarray) -> None:
    """Carry-normalise in place: every limb below the top becomes a
    ``BLOCK``-bit digit in ``[0, 2^BLOCK)`` and the top limb keeps the sign."""
    for h in range(limbs.shape[0] - 1):
        limbs[h + 1] += limbs[h] >> BLOCK
        limbs[h] &= _DIGIT


def _normalised(limbs: np.ndarray, below: int = 0) -> np.ndarray:
    """Carry-normalised copy of ``limbs`` in a wider digit array.

    ``_SPILL`` digits on top absorb the carries of any int64 limbs, so the
    top digit ends up with ``|digit| < 2^BLOCK``; ``below`` zero digits
    underneath give a leading window room at the bottom.
    """
    n = limbs.shape[0]
    digits = np.zeros((below + n + _SPILL,) + limbs.shape[1:], dtype=np.int64)
    digits[below:below + n] = limbs
    _carry(digits[below:])
    return digits


def _limb_matmul(pa: CodePlanes, pb: CodePlanes,
                 a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Blocked exact matmul: (m,k) @ (k,n) codes -> int64 limbs.

    ``limbs[H]`` has shape (m, n) and the exact value is
    ``sum_H limbs[H] * 2^(lsb + BLOCK*H)``.  A contraction too long for
    one int64 pass is chunked; each chunk's limbs are carry-normalised
    before they are added up, so the sum stays in int64 for any
    practical ``k`` (fewer than 2^47 chunks).
    """
    k = a.shape[1]
    ha_max = pa.max_block(a)
    hb_max = pb.max_block(b)
    nlimbs = ha_max + hb_max + 1
    # per-element product < 2^(mbA+mbB+2*BLOCK); limbs with the same H sum
    # k * npairs such terms
    npairs = min(ha_max, hb_max) + 1
    term_bits = pa.msig_bits + pb.msig_bits + 2 * BLOCK
    headroom = 62 - term_bits
    safe_terms = 1 << max(headroom, 0)

    def chunk_limbs(a_chunk: np.ndarray, b_chunk: np.ndarray) -> np.ndarray:
        limbs = np.zeros((nlimbs, a_chunk.shape[0], b_chunk.shape[1]),
                         dtype=np.int64)
        for ha in range(ha_max + 1):
            ablk = pa.blocked[ha][a_chunk]
            if not ablk.any():
                continue
            for hb in range(hb_max + 1):
                bblk = pb.blocked[hb][b_chunk]
                if not bblk.any():
                    continue
                limbs[ha + hb] += ablk @ bblk
        return limbs

    if k * npairs <= safe_terms:
        return chunk_limbs(a, b)
    step = max(safe_terms // npairs, 1)
    total = _normalised(chunk_limbs(a[:, :step], b[:step, :]))
    for lo in range(step, k, step):
        total += _normalised(chunk_limbs(a[:, lo:lo + step], b[lo:lo + step, :]))
    return total


def _combine_int64(limbs: np.ndarray) -> np.ndarray:
    """``sum_H limbs[H] << (BLOCK*H)`` in int64 (caller checked the bound)."""
    total = limbs[0].copy()
    for h in range(1, limbs.shape[0]):
        total += limbs[h] << np.int64(BLOCK * h)
    return total


def _combine_object(limbs: np.ndarray) -> np.ndarray:
    """The same combine with exact Python-int elements (oracle only)."""
    total = limbs[0].astype(object)
    for h in range(1, limbs.shape[0]):
        total = total + (limbs[h].astype(object) << (BLOCK * h))
    return total


def _window_floats(limbs: np.ndarray, lsb: int) -> np.ndarray:
    """The accumulator's leading window as one exact float64 per output.

    The limbs are carry-normalised to the magnitude's ``BLOCK``-bit
    digits; the window is the leading nonzero digit and the next two,
    truncated toward zero: the whole value or at least ``2*BLOCK + 1`` of
    its leading bits, below ``2^(3*BLOCK)``, so an exact float64.  It
    rounds like the value (module docstring).
    """
    shape = limbs.shape[1:]
    digits = _normalised(limbs.reshape(limbs.shape[0], -1), below=2)
    ndig, size = digits.shape
    neg = digits[-1] < 0
    digits *= np.where(neg, -1, 1)
    _carry(digits[2:])
    # leading nonzero digit (>= 2: a zero total reads three zero digits);
    # digit i weighs 2^(BLOCK*(i-2)), so the window's lowest, top-2,
    # weighs 2^(BLOCK*(top-4))
    pos = np.arange(ndig, dtype=np.int64).reshape(ndig, 1)
    top = (pos * (digits != 0)).max(axis=0, initial=2)
    at = top * size + np.arange(size, dtype=np.int64)
    flat = digits.reshape(-1)
    window = ((flat[at] << (2 * BLOCK)) | (flat[at - size] << BLOCK)
              | flat[at - 2 * size])
    # signed window weights, negative ones at [ndig, 2*ndig)
    scale = np.ldexp(1.0, (BLOCK * (pos[:, 0] - 4) + lsb).astype(np.int32))
    scale = np.concatenate([scale, -scale])
    return (window.astype(np.float64) * scale[top + ndig * neg]).reshape(shape)


def _matmul_codes(pa: CodePlanes, pb: CodePlanes, po: CodePlanes,
                  a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lsb = pa.pmin + pb.pmin
    limbs = _limb_matmul(pa, pb, a, b)
    # |total| < 2^bound_bits in lsb units, from the blocks actually present
    # (limbs.shape[0] - 1 == ha_max + hb_max unless the contraction was
    # chunked, and then the bound fails either way)
    k = max(a.shape[1], 1)
    bound_bits = (BLOCK * (limbs.shape[0] - 1)
                  + pa.msig_bits + pb.msig_bits + 2 * BLOCK
                  + k.bit_length())
    if bound_bits <= 53:
        vals = np.ldexp(_combine_int64(limbs).astype(np.float64), lsb)
    else:
        vals = _window_floats(limbs, lsb)
    return po.fmt.encode_array(vals)


def qmatmul(fmt, a_codes, b_codes, fmt_b=None, out_fmt=None) -> np.ndarray:
    """True-quantized matmul: ``(m,k) @ (k,n)`` code arrays -> code array.

    Each output element is the exact Kulisch dot product of a row of
    ``a_codes`` with a column of ``b_codes``, re-encoded to ``out_fmt``
    (default: ``fmt``) with a single rounding.  ``fmt_b`` supports
    mixed-format ablations; the paper's MAC has ``fmt_b == fmt``.
    """
    pa = planes_for(fmt)
    pb = planes_for(fmt_b) if fmt_b is not None else pa
    po = planes_for(out_fmt) if out_fmt is not None else pa
    a = _as_code_matrix(a_codes, "a_codes")
    b = _as_code_matrix(b_codes, "b_codes")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"contraction mismatch: {a.shape} @ {b.shape}")
    return _matmul_codes(pa, pb, po, a, b)


def matmul_exact(fmt, a_codes, b_codes, fmt_b=None) -> tuple[np.ndarray, int]:
    """The unrounded accumulators: ``(totals, lsb)``.

    ``totals`` is an object array of exact Python ints; element values are
    ``totals[i, j] * 2^lsb``.  This is the engine-side twin of the exact
    sum returned by :func:`repro.formats.arithmetic.dot`.
    """
    pa = planes_for(fmt)
    pb = planes_for(fmt_b) if fmt_b is not None else pa
    a = _as_code_matrix(a_codes, "a_codes")
    b = _as_code_matrix(b_codes, "b_codes")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"contraction mismatch: {a.shape} @ {b.shape}")
    return _combine_object(_limb_matmul(pa, pb, a, b)), pa.pmin + pb.pmin


def qdot(fmt, a_codes, b_codes) -> int:
    """True-quantized dot product of two 1-D code vectors -> output code."""
    a = np.asarray(a_codes, dtype=np.int64).reshape(1, -1)
    b = np.asarray(b_codes, dtype=np.int64).reshape(-1, 1)
    if a.shape[1] != b.shape[0]:
        raise ValueError("operand code arrays must have the same length")
    return int(qmatmul(fmt, a, b)[0, 0])


def dot_exact(fmt, a_codes, b_codes) -> tuple[int, Fraction]:
    """Engine dot with the exact sum, signature-compatible with
    :func:`repro.formats.arithmetic.dot` for differential testing."""
    a = np.asarray(a_codes, dtype=np.int64).reshape(1, -1)
    b = np.asarray(b_codes, dtype=np.int64).reshape(-1, 1)
    if a.shape[1] != b.shape[0]:
        raise ValueError("operand code arrays must have the same length")
    total, lsb = matmul_exact(fmt, a, b)
    exact = Fraction(int(total[0, 0])) * Fraction(2) ** lsb
    code = int(qmatmul(fmt, a, b)[0, 0])
    return code, exact
