"""Per-code decode planes: an 8-bit code stream as integer arrays.

The true-quantized engine never works on decoded floats.  Each format is
compiled once into *planes* — length-``2^nbits`` lookup tables mapping a
code to an exact integer decomposition of its value::

    value(code) = msig[code] * 2^(pmin + texp[code])

* ``msig`` — signed odd integer significand, ``|msig| < 2^(msig_bits+1)``
  for nonzero finite codes, 0 for zero and specials (inf/NaN contribute
  nothing to a MAC stream, the convention of
  :class:`repro.hardware.mac.MacUnit`).
* ``texp`` — the value's power-of-two scale relative to ``pmin`` (the
  scale of the smallest nonzero value), always ``>= 0``.

The decomposition is derived from the exact dyadic value of every code
(all finite values of an enumerable format are exactly-represented
float64), not from the format's ``(sign, exponent, fraction)`` decode
fields, so it stays faithful even for formats like INT8 whose fields are
not of the ``(1+f) * 2^e`` form.

For the blocked matmul (:mod:`repro.engine.kulisch`) the exponent is
split as ``texp = h*BLOCK + l``: the plane ``blocked[h][code]`` holds
``msig << l`` when the code's high part is ``h`` and 0 otherwise, so a
product's full shift decomposes into an in-word shift (baked into the
operand planes) plus a whole-limb shift ``BLOCK * (h_a + h_b)``.

The output rounding is the format's own ``encode_array``; the
re-encode's exactness argument needs every midpoint of the codebook to
be an exact float64 with at most ``MID_SIG_BITS_MAX`` significant bits,
and that is checked here, once per format (the widest registry
midpoints, Posit(8,3)'s, have 9).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = ["BLOCK", "MID_SIG_BITS_MAX", "CodePlanes", "planes_for",
           "clear_planes_cache"]

#: whole-limb shift granularity of the blocked matmul.  16 keeps a blocked
#: operand at <= msig_bits+16 bits, so an int64 product sum has >= 14 bits
#: of contraction headroom for every 8-bit format (msig_bits <= 7).
BLOCK = 16

#: most significant bits a codebook midpoint may have: the re-encode's
#: leading window (:mod:`repro.engine.kulisch`) keeps at least this many
#: bits of the accumulator, so any midpoint at or above the window's
#: leading digit lies on the window's grid
MID_SIG_BITS_MAX = 2 * BLOCK + 1


class CodePlanes:
    """Compiled integer decode planes for one :class:`CodebookFormat`.

    Attributes
    ----------
    fmt:
        The format; its ``encode_array`` is the re-encode's rounding.
    msig, texp:
        The per-code planes (int64, length ``2^nbits``).
    msig_bits:
        ``|msig|`` of nonzero codes is bounded by ``2^(msig_bits+1)``.
    pmin:
        Power-of-two scale of ``msig`` at ``texp == 0``; a code's value is
        ``msig * 2^(pmin + texp)``.
    blocked:
        ``(nblocks, 2^nbits)`` int64 plane: ``msig << (texp % BLOCK)``
        gated to the code's ``texp // BLOCK`` row, where ``nblocks`` is
        the number of ``BLOCK``-wide exponent blocks the codes span.
    block_of:
        Each code's exponent block, ``texp // BLOCK``.
    """

    def __init__(self, fmt):
        self.fmt = fmt
        ncodes = fmt.ncodes
        sig = np.zeros(ncodes, dtype=object)
        pexp = np.zeros(ncodes, dtype=np.int64)
        finite = np.zeros(ncodes, dtype=bool)
        for code, d in enumerate(fmt.decoded):
            # lint: allow[float-equality] exact-zero codes carry no plane
            if not d.is_finite or d.value == 0.0:
                continue
            frac = Fraction(d.value)  # exact: finite values are dyadic floats
            num, den = frac.numerator, frac.denominator
            # odd decomposition value = odd * 2^e keeps |msig| at the
            # format's fraction width — pure powers of two stay 1-bit
            # significands instead of inflating msig_bits to the exponent
            # range (which would overflow the int64 limb products)
            twos = (num & -num).bit_length() - 1
            sig[code] = num >> twos
            pexp[code] = twos - (den.bit_length() - 1)
            finite[code] = True
        self.msig_bits = max((abs(int(s)).bit_length() - 1
                              for s in sig[finite]), default=0)
        msig = np.zeros(ncodes, dtype=np.int64)
        for code in np.nonzero(finite)[0]:
            msig[code] = int(sig[code])
        self.msig = msig
        self.pmin = int(pexp[finite].min()) if finite.any() else 0
        texp = np.zeros(ncodes, dtype=np.int64)
        texp[finite] = pexp[finite] - self.pmin
        self.texp = texp

        nblocks = int(texp.max()) // BLOCK + 1
        blocked = np.zeros((nblocks, ncodes), dtype=np.int64)
        h = texp // BLOCK
        low = texp % BLOCK
        shifted = msig << low
        for hb in range(nblocks):
            blocked[hb] = np.where(finite & (h == hb), shifted, 0)
        self.blocked = blocked
        self.block_of = np.where(finite, h, 0).astype(np.int64)

        # the re-encode's precondition: the midpoints the format's encoders
        # compare against are exact and short, checked as integer ratios
        # (m == (a + b) / 2 with power-of-two denominators)
        values = fmt.finite_values.tolist()
        for a, b, m in zip(values, values[1:], fmt._midpoints.tolist()):
            (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
            nm, dm = m.as_integer_ratio()
            odd = abs(nm) // (abs(nm) & -abs(nm)) if nm else 0
            if (2 * nm * da * db != dm * (na * db + nb * da)
                    or odd.bit_length() > MID_SIG_BITS_MAX):
                raise ValueError(
                    f"{fmt.name}: midpoint {m!r} of {a!r} and {b!r} is not "
                    f"an exact float64 of at most {MID_SIG_BITS_MAX} "
                    f"significant bits")

    # ------------------------------------------------------------------
    def decode_exact(self, code: int) -> Fraction:
        """Exact rational value of one code (0 for specials)."""
        return Fraction(int(self.msig[code]), 1) * Fraction(2) ** (
            self.pmin + int(self.texp[code]))

    def max_block(self, codes: np.ndarray) -> int:
        """Highest exponent block actually present in a code array."""
        if codes.size == 0:
            return 0
        return int(self.block_of[codes].max())


_CACHE: dict[str, CodePlanes] = {}


def planes_for(fmt) -> CodePlanes:
    """The (lazily built, cached) decode planes for ``fmt``."""
    planes = _CACHE.get(fmt.name)
    if planes is None:
        planes = _CACHE[fmt.name] = CodePlanes(fmt)
    return planes


def clear_planes_cache() -> None:
    """Drop all compiled planes (tests and memory-sensitive callers)."""
    _CACHE.clear()
