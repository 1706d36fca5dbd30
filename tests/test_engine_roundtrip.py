"""Codebook round-trip and rounding-rule pins, under both kernel backends.

Satellite properties of the engine work:

* exhaustive 256-code encode/decode round trip for every registered
  format, under both the bit-LUT and the reference quantize kernels,
* codebook monotonicity (the sorted finite values are strictly
  increasing — the property every searchsorted path relies on),
* one tie-break rule everywhere: round to nearest, ties **away from
  zero**, pinned at every exact codebook midpoint for the kernels and
  for :func:`repro.formats.arithmetic._round_to_code`,
* regressions for the two historical divergences: INT8 ``exact_value``
  (decode fields are not of the ``(1+f)*2^e`` form) and the ``Fraction
  -> float64`` double rounding that flipped >53-bit ties in
  ``_round_to_code``.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro import kernels
from repro.engine import planes_for, qdot
from repro.formats import get_format, registered_formats
from repro.formats.arithmetic import _round_to_code, dot, exact_value

pytestmark = pytest.mark.engine

ALL_FORMATS = [fmt.name for fmt in registered_formats()]
BACKENDS = ["lut", "reference"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
def test_exhaustive_roundtrip(fmt_name, backend):
    """decode -> encode maps every finite code back to its own value."""
    fmt = get_format(fmt_name)
    finite = [(c, d.value) for c, d in enumerate(fmt.decoded) if d.is_finite]
    codes = np.array([c for c, _ in finite])
    values = np.array([v for _, v in finite])
    with kernels.use_backend(backend):
        back = fmt.encode_array(values)
    # codes may alias (duplicate values keep one canonical code), so the
    # round-trip contract is on the value, not the code
    assert np.array_equal(fmt.decode_array(back), values)
    # and the canonical codes of distinct values round-trip exactly
    uniq, counts = np.unique(values, return_counts=True)
    distinct = np.isin(values, uniq[counts == 1])
    assert np.array_equal(back[distinct], codes[distinct])


@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
def test_codebook_strictly_monotonic(fmt_name):
    fmt = get_format(fmt_name)
    planes = planes_for(fmt)
    values, codes = fmt._sorted_codes
    assert np.all(np.diff(values) > 0)
    # and the planes decode to exactly the codebook values
    for value, code in zip(values, codes):
        assert planes.decode_exact(int(code)) == Fraction(float(value))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
def test_midpoint_ties_round_away_from_zero(fmt_name, backend):
    """Every exact codebook midpoint quantizes away from zero.

    Adjacent 8-bit codebook values sum in well under 53 bits, so the
    float64 midpoints are exact and the kernel paths see the true tie.
    """
    fmt = get_format(fmt_name)
    values, codes = fmt._sorted_codes
    mids = (values[1:] + values[:-1]) / 2.0
    for lo, hi in zip(values, values[1:]):
        assert Fraction(float(lo)) + Fraction(float(hi)) == 2 * Fraction(float((lo + hi) / 2))
    expect = np.where(mids > 0, codes[1:], codes[:-1])
    with kernels.use_backend(backend):
        got = fmt.encode_array(mids)
    assert np.array_equal(fmt.decode_array(got), fmt.decode_array(expect))


@pytest.mark.parametrize("fmt_name", ["INT8", "MERSIT(8,2)", "Posit(8,1)"])
def test_round_to_code_agrees_with_kernels_on_ties(fmt_name):
    """The exact-rational rounder lands on the same side as the kernels."""
    fmt = get_format(fmt_name)
    values, codes = fmt._sorted_codes
    for lo, hi in zip(values, values[1:]):
        mid = Fraction(float(lo)) / 2 + Fraction(float(hi)) / 2
        got = _round_to_code(fmt, mid)
        expect = float(hi) if mid > 0 else float(lo)
        assert fmt.decode(got).value == expect


def test_int8_exact_value_is_the_decoded_value():
    """Regression: INT8 decode fields are not (1+f)*2^e; exact_value must
    come from the value, not the fields (3 used to come back as 2)."""
    fmt = get_format("INT8")
    for value in (1.0, 3.0, -5.0, 100.0):
        code = int(fmt.encode_array(np.array([value]))[0])
        assert exact_value(fmt, code) == Fraction(value)
    planes = planes_for(fmt)
    for c, d in enumerate(fmt.decoded):
        if d.is_finite:
            assert planes.decode_exact(c) == Fraction(d.value)
            assert exact_value(fmt, c) == Fraction(d.value)


def test_wide_accumulator_tie_is_not_double_rounded():
    """Regression: a sum equal to ``mid - 2^-48`` must round *down*.

    ``Fraction -> float64`` collapses the ``2^-48`` term for midpoints in
    high binades (the gap is far above float64's 2^-52 relative step), so
    an implementation that casts before encoding flips the result across
    the midpoint.  Both the rational reference and the engine must resist.
    """
    fmt = get_format("Posit(8,2)")
    values, codes = fmt._sorted_codes
    vals = [Fraction(float(v)) for v in values]
    value_set = set(vals)
    minpos = min(v for v in vals if v > 0)
    assert minpos == Fraction(1, 2**24)

    def power_code(p: Fraction) -> int:
        i = vals.index(p)
        return int(codes[i])

    picked = None
    for i in range(len(vals) - 1, 0, -1):
        hi, lo = vals[i], vals[i - 1]
        if hi < 1024:
            break
        halfgap = (hi - lo) / 2
        if halfgap.numerator != 1 and (halfgap.numerator & (halfgap.numerator - 1)):
            continue  # not a power of two
        g = halfgap.numerator.bit_length() - 1 - (halfgap.denominator.bit_length() - 1)
        for g1 in range(-24, 21):
            f1, f2 = Fraction(2) ** g1, Fraction(2) ** (g - g1)
            if f1 in value_set and -f2 in value_set:
                picked = (lo, hi, f1, f2)
                break
        if picked:
            break
    assert picked is not None, "no factorable high-binade midpoint found"
    lo, hi, f1, f2 = picked

    one = Fraction(1)
    a = [power_code(hi), power_code(f1), power_code(minpos)]
    b = [power_code(one), power_code(-f2), power_code(-minpos)]
    exact = hi - f1 * f2 - minpos * minpos
    mid = (lo + hi) / 2
    assert exact == mid - minpos * minpos
    # the tie the float64 cast would see: exactly the midpoint
    assert Fraction(float(exact)) == mid

    code_ref, sum_ref = dot(fmt, a, b)
    assert sum_ref == exact
    assert fmt.decode(code_ref).value == float(lo)
    assert qdot(fmt, a, b) == code_ref
