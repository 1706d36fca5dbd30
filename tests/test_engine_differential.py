"""Differential fuzz harness: engine vs exact rationals vs gate-level MAC.

Three independent implementations of the paper's Kulisch dot product are
held to bit-identical answers on seeded random code streams:

* the vectorized engine (:mod:`repro.engine`),
* the exact-rational reference (:func:`repro.formats.arithmetic.dot`),
* the gate-level :class:`repro.hardware.mac.MacUnit` netlist.

Tier-1 runs a small per-format sample (gate-level restricted to the
paper's three formats and short streams); the ``slow`` marker gates the
larger sweeps.  Beyond random streams, adversarial cases pin the exact
re-encode where it can go wrong: dots whose exact sum is a codebook
midpoint or one accumulator lsb either side of it, both float64 proxies
of the accumulator rounded by ``encode_array`` under both kernel
backends on totals at ``floor(mid)`` and ``floor(mid) + 1``, a
contraction one past the int64 chunk threshold, and mixed
``fmt_b``/``out_fmt`` triples against a ``Fraction`` reference.
"""

import zlib
from fractions import Fraction

import numpy as np
import pytest

from repro import kernels
from repro.engine import dot_exact, kulisch, matmul_exact, planes_for, qdot, qmatmul
from repro.engine import planes as planes_mod
from repro.formats import PAPER_FORMATS, get_format, registered_formats
from repro.formats.arithmetic import _round_to_code, dot, exact_value
from repro.hardware.mac import MacUnit

pytestmark = pytest.mark.engine

ALL_FORMATS = [fmt.name for fmt in registered_formats()]
BACKENDS = ["lut", "reference"]


def _finite_codes(fmt):
    return [c for c, d in enumerate(fmt.decoded) if d.is_finite]


def _special_codes(fmt):
    return [c for c, d in enumerate(fmt.decoded) if not d.is_finite]


def _fuzz_codes(fmt, rng, n):
    """Random codes with the occasional special sprinkled in."""
    codes = rng.integers(0, fmt.ncodes, n)
    specials = _special_codes(fmt)
    if specials and n >= 4:
        k = int(rng.integers(1, max(n // 8, 2)))
        pos = rng.choice(n, size=k, replace=False)
        codes[pos] = rng.choice(specials, size=k)
    return codes


@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
def test_fuzz_dot_matches_exact_rational(fmt_name):
    """Engine code AND exact sum equal the Fraction reference."""
    fmt = get_format(fmt_name)
    rng = np.random.default_rng(zlib.crc32(fmt_name.encode()))
    for _ in range(60):
        n = int(rng.integers(1, 48))
        a = _fuzz_codes(fmt, rng, n)
        b = _fuzz_codes(fmt, rng, n)
        code_ref, exact_ref = dot(fmt, a, b)
        code_eng, exact_eng = dot_exact(fmt, a, b)
        assert code_eng == code_ref
        assert exact_eng == exact_ref


@pytest.mark.slow
@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
def test_fuzz_dot_matches_exact_rational_deep(fmt_name):
    """The full-depth sweep of the same property (1000 dots per format)."""
    fmt = get_format(fmt_name)
    rng = np.random.default_rng(zlib.crc32(fmt_name.encode()) + 1)
    for _ in range(1000):
        n = int(rng.integers(1, 64))
        a = _fuzz_codes(fmt, rng, n)
        b = _fuzz_codes(fmt, rng, n)
        assert qdot(fmt, a, b) == dot(fmt, a, b)[0]


@pytest.mark.parametrize("fmt_name", ["MERSIT(8,2)", "Posit(8,1)", "INT8"])
def test_zero_and_special_streams(fmt_name):
    """Specials and zeros contribute exactly nothing (MAC convention)."""
    fmt = get_format(fmt_name)
    zero = int(fmt.encode_array(np.zeros(1))[0])
    some = _finite_codes(fmt)[len(_finite_codes(fmt)) // 3]
    # all-zero stream rounds to the zero code
    assert qdot(fmt, [zero] * 8, [some] * 8) == zero
    # specials mixed into a stream leave the sum unchanged
    specials = _special_codes(fmt)
    if specials:
        a = [some, specials[0], some]
        b = [some, some, specials[-1]]
        code, exact = dot_exact(fmt, a, b)
        code2, exact2 = dot_exact(fmt, [some], [some])
        assert (code, exact) == (code2, exact2)


@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
def test_saturation_stream(fmt_name):
    """A stream of max*max products saturates to the format maximum."""
    fmt = get_format(fmt_name)
    vmax = max(fmt.finite_values)
    cmax = int(fmt.encode_array(np.array([vmax]))[0])
    assert qdot(fmt, [cmax] * 16, [cmax] * 16) == cmax
    # one or two products: the largest totals the int64 bound still admits
    for n in (1, 2):
        assert qdot(fmt, [cmax] * n, [cmax] * n) == dot(fmt, [cmax] * n, [cmax] * n)[0]
    # alternating +max/-max products cancel exactly back to zero
    cneg = int(fmt.encode_array(np.array([-vmax]))[0])
    zero = int(fmt.encode_array(np.zeros(1))[0])
    code, exact = dot_exact(fmt, [cmax, cneg] * 8, [cmax] * 16)
    assert exact == 0 and code == zero


@pytest.mark.parametrize("fmt_name", ["MERSIT(8,2)", "Posit(8,2)", "INT8"])
def test_qmatmul_matches_per_element_qdot(fmt_name):
    fmt = get_format(fmt_name)
    rng = np.random.default_rng(7)
    a = rng.integers(0, fmt.ncodes, (5, 9))
    b = rng.integers(0, fmt.ncodes, (9, 4))
    c = qmatmul(fmt, a, b)
    for i in range(5):
        for j in range(4):
            assert c[i, j] == qdot(fmt, a[i], b[:, j])


def _mac_final_value(mac, w_codes, a_codes) -> Fraction:
    """Final gate-level accumulator state as an exact rational."""
    acc = mac.accumulate_hw(w_codes, a_codes)[-1]
    if acc >= 1 << (mac.acc_width - 1):  # two's complement
        acc -= 1 << mac.acc_width
    return Fraction(acc) * Fraction(2) ** mac.frac_lsb_exp


@pytest.mark.parametrize("fmt_name", PAPER_FORMATS)
def test_gate_level_mac_matches_engine(fmt_name):
    """The netlist accumulator lands on the engine's exact sum."""
    fmt = get_format(fmt_name)
    mac = MacUnit(fmt)
    finite = np.array(_finite_codes(fmt))
    rng = np.random.default_rng(11)
    for _ in range(3):
        n = 6
        a = rng.choice(finite, n)
        b = rng.choice(finite, n)
        _, exact = dot_exact(fmt, a, b)
        assert _mac_final_value(mac, a, b) == exact


@pytest.mark.slow
@pytest.mark.parametrize("fmt_name", PAPER_FORMATS)
def test_gate_level_mac_matches_engine_deep(fmt_name):
    """Longer streams and more trials through the gates."""
    fmt = get_format(fmt_name)
    mac = MacUnit(fmt)
    finite = np.array(_finite_codes(fmt))
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(4, 32))
        a = rng.choice(finite, n)
        b = rng.choice(finite, n)
        _, exact = dot_exact(fmt, a, b)
        assert _mac_final_value(mac, a, b) == exact


def test_matmul_exact_exposes_raw_accumulators():
    fmt = get_format("MERSIT(8,2)")
    rng = np.random.default_rng(3)
    a = rng.integers(0, 256, (3, 7))
    b = rng.integers(0, 256, (7, 2))
    totals, lsb = matmul_exact(fmt, a, b)
    for i in range(3):
        for j in range(2):
            exact = Fraction(int(totals[i, j])) * Fraction(2) ** lsb
            assert exact == dot(fmt, a[i], b[:, j])[1]


# ----------------------------------------------------------------------
# exact re-encode: adversarial near-midpoint, long-k and mixed-format cases
# ----------------------------------------------------------------------

def _code_of(fmt, value) -> int:
    return int(fmt.encode_array(np.array([float(value)]))[0])


def _near_midpoint_dots(fmt):
    """``(a_rows, b)``: each row's exact dot with ``b`` is a codebook
    midpoint, or one accumulator lsb (``minpos**2``) below or above it.

    A midpoint is ``v_i*0.5 + v_(i+1)*0.5`` and the lsb term is
    ``(+/-minpos)*minpos``.  INT8 has no 0.5 and its half-integer
    midpoints are unreachable from integer sums, so its rows pin
    ``floor(mid) = v_i`` and ``floor(mid) + 1 = v_(i+1)`` (and one lsb
    either side) instead.
    """
    planes = planes_for(fmt)
    vals, codes = fmt._sorted_codes
    minpos = vals[vals > 0][0]
    assert Fraction(minpos) ** 2 == Fraction(2) ** (2 * planes.pmin)
    lsb_terms = [_code_of(fmt, -minpos), _code_of(fmt, 0.0), _code_of(fmt, minpos)]
    rows = []
    if 0.5 in vals:
        half = _code_of(fmt, 0.5)
        b = [half, half, lsb_terms[2]]
        for lo, hi in zip(codes[:-1], codes[1:]):
            rows += [[lo, hi, t] for t in lsb_terms]
    else:
        zero = lsb_terms[1]
        b = [_code_of(fmt, 1.0), zero, lsb_terms[2]]
        for c in codes:
            rows += [[c, zero, t] for t in lsb_terms]
    return np.array(rows, dtype=np.int64), np.array(b, dtype=np.int64)


@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
def test_near_midpoint_dots_match_exact_rational(fmt_name):
    """Ties and their one-lsb neighbours, both signs, vs the rational dot."""
    fmt = get_format(fmt_name)
    a_rows, b = _near_midpoint_dots(fmt)
    got = qmatmul(fmt, a_rows, b.reshape(-1, 1))[:, 0]
    want = [dot(fmt, row, b)[0] for row in a_rows]
    assert got.tolist() == want


def _limbs_of(totals: list[int]) -> np.ndarray:
    """Exact Python-int totals as ``(nlimbs, n, 1)`` int64 ``BLOCK``-bit limbs."""
    nlimbs = max(abs(t).bit_length() for t in totals) // kulisch.BLOCK + 2
    mask = (1 << kulisch.BLOCK) - 1
    limbs = np.zeros((nlimbs, len(totals), 1), dtype=np.int64)
    for j, t in enumerate(totals):
        for h in range(nlimbs - 1):
            limbs[h, j, 0] = t & mask
            t >>= kulisch.BLOCK
        limbs[-1, j, 0] = t
    return limbs


@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
def test_reencoders_pin_floor_midpoint_totals(fmt_name):
    """Totals at ``floor(mid)``, ``floor(mid) + 1`` and one either side,
    on accumulator grids coarser and finer than the midpoints.

    Both float64 proxies of a total go through ``encode_array`` under
    both kernel backends: the total itself, cast exactly when it has at
    most 53 bits (INT8: ``lsb = 0``, half-integer midpoints, no ties
    possible), and the leading window of the same totals as
    carry-normalised limbs.  Both must agree with ``_round_to_code`` on
    every total.
    """
    fmt = get_format(fmt_name)
    po = planes_for(fmt)
    values, _ = fmt._sorted_codes
    mids = [(Fraction(x) + Fraction(y)) / 2 for x, y in zip(values, values[1:])]
    for lsb in sorted({2 * po.pmin, po.pmin, po.pmin + 3, 0, 2}):
        totals = sorted({f + d for m in mids
                         for f in [int(m / Fraction(2) ** lsb // 1)]
                         for d in (-1, 0, 1, 2)})
        want = [_round_to_code(fmt, Fraction(t) * Fraction(2) ** lsb) for t in totals]
        window = kulisch._window_floats(_limbs_of(totals), lsb)[:, 0]
        short = [j for j, t in enumerate(totals) if abs(t) < 1 << 53]
        exact = np.ldexp(kulisch._combine_int64(
            _limbs_of([totals[j] for j in short])).astype(np.float64), lsb)[:, 0]
        for backend in BACKENDS:
            with kernels.use_backend(backend):
                got = fmt.encode_array(window)
                assert got.tolist() == want, f"window, lsb={lsb}, {backend}"
                got = fmt.encode_array(exact)
                assert got.tolist() == [want[j] for j in short], (
                    f"total, lsb={lsb}, {backend}")


def test_int8_contraction_one_past_the_chunk_threshold():
    """k = 2^18 + 1 INT8 terms: the chunked branch, checked against
    closed-form sums of alternating code pairs (not against
    ``matmul_exact``, which shares the limb matmul)."""
    fmt = get_format("INT8")
    pa = planes_for(fmt)
    k = (1 << 18) + 1
    # the chunk threshold: k * npairs products of < 2^term_bits each
    term_bits = 2 * pa.msig_bits + 2 * kulisch.BLOCK
    assert k - 1 == 1 << (62 - term_bits)
    even = np.arange(k) % 2 == 0
    pairs = [(100, -100), (101, -101), (-100, 100), (-101, 101),
             (127, -127), (127, -126), (1, 1), (-3, 2)]
    # row x, y, x, ..., x (k odd); columns all ones and +1, -1, +1, ...
    a = np.stack([np.where(even, _code_of(fmt, x), _code_of(fmt, y)) for x, y in pairs])
    b = np.stack([np.full(k, _code_of(fmt, 1)),
                  np.where(even, _code_of(fmt, 1), _code_of(fmt, -1))], axis=1)
    sums = [[((k + 1) * x + (k - 1) * y) // 2, ((k + 1) * x - (k - 1) * y) // 2]
            for x, y in pairs]
    got = qmatmul(fmt, a, b)
    assert got.tolist() == [[_round_to_code(fmt, Fraction(t)) for t in row] for row in sums]
    # the chunked branch ran: its sum carries spill digits above the one limb
    assert kulisch._limb_matmul(pa, pa, a[:1], b).shape[0] > 1


#: (a format, b format, output format): every registry format once as
#: each operand and as the output, plus the paper's weight/activation pairs
MIXED_TRIPLES = [(ALL_FORMATS[(i + 1) % len(ALL_FORMATS)],
                  ALL_FORMATS[(i + 4) % len(ALL_FORMATS)], out)
                 for i, out in enumerate(ALL_FORMATS)] + [
    ("MERSIT(8,2)", "Posit(8,1)", "MERSIT(8,2)"),
    ("Posit(8,1)", "MERSIT(8,2)", "Posit(8,1)"),
    ("INT8", "Posit(8,3)", "Posit(8,3)"),
    ("Posit(8,3)", "FP(8,5)", "INT8"),
]


@pytest.mark.parametrize("fa_name,fb_name,fo_name", MIXED_TRIPLES)
def test_mixed_format_triples_match_exact_rational(fa_name, fb_name, fo_name):
    """``qmatmul(fmt_b=..., out_fmt=...)`` — the layer engines' call —
    against a ``Fraction`` dot rounded once to the output format."""
    fa, fb, fo = get_format(fa_name), get_format(fb_name), get_format(fo_name)
    rng = np.random.default_rng(zlib.crc32(f"{fa_name}{fb_name}{fo_name}".encode()))

    def banded(fmt, shape):
        """Codes within a few dozen codebook steps of a random value."""
        _, codes = fmt._sorted_codes
        c = int(rng.integers(len(codes)))
        lo, hi = max(c - 24, 0), min(c + 24, len(codes))
        return codes[rng.integers(lo, hi, shape)]

    for trial in range(6):
        m, k, n = (int(x) for x in rng.integers(1, 7, 3)) if trial % 2 else (3, 40, 4)
        if trial < 2:
            a = _fuzz_codes(fa, rng, m * k).reshape(m, k)
            b = _fuzz_codes(fb, rng, k * n).reshape(k, n)
        else:
            a, b = banded(fa, (m, k)), banded(fb, (k, n))
        got = qmatmul(fa, a, b, fmt_b=fb, out_fmt=fo)
        for i in range(m):
            for j in range(n):
                exact = sum((exact_value(fa, int(x)) * exact_value(fb, int(y))
                             for x, y in zip(a[i], b[:, j])), Fraction(0))
                assert got[i, j] == _round_to_code(fo, exact), (trial, i, j)


def test_qmatmul_never_builds_python_int_arrays(monkeypatch):
    """The only object-dtype path left is the ``matmul_exact`` oracle."""
    def forbidden(_limbs):
        raise AssertionError("qmatmul reached the Python-int combine")

    monkeypatch.setattr(kulisch, "_combine_object", forbidden)
    rng = np.random.default_rng(5)
    for name in ALL_FORMATS:
        fmt = get_format(name)
        a = rng.integers(0, fmt.ncodes, (4, 30))
        b = rng.integers(0, fmt.ncodes, (30, 3))
        for out in ("Posit(8,3)", name):
            qmatmul(fmt, a, b, fmt_b=get_format("Posit(8,3)"), out_fmt=get_format(out))
            qmatmul(fmt, a, rng.integers(0, fmt.ncodes, (30, 3)))


def test_registry_midpoints_meet_the_window_precondition():
    """Every registry midpoint is an exact float64 of <= 9 significant
    bits (Posit(8,3) has the widest), far inside the window's 2*BLOCK + 1."""
    widest = {}
    for name in ALL_FORMATS:
        bits = 0
        for m in get_format(name)._midpoints:
            num = abs(Fraction(float(m)).numerator)
            bits = max(bits, (num // (num & -num)).bit_length() if num else 0)
        widest[name] = bits
    assert max(widest.values()) == 9 == widest["Posit(8,3)"]
    assert planes_mod.MID_SIG_BITS_MAX == 2 * kulisch.BLOCK + 1


def test_planes_refuse_midpoints_wider_than_the_window(monkeypatch):
    monkeypatch.setattr(planes_mod, "MID_SIG_BITS_MAX", 8)
    with pytest.raises(ValueError, match="significant bits"):
        planes_mod.CodePlanes(get_format("Posit(8,3)"))
    planes_mod.CodePlanes(get_format("Posit(8,2)"))  # 5-bit midpoints
