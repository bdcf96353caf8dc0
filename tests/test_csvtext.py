"""The vectorised ``%.17g`` kernel against Python's own ``%``, byte for byte.

Over 10^6 doubles in all: random bit patterns, every decimal exponent,
powers of ten and their neighbours, subnormals and the special values,
exact decimal ties on both sides of the exact-power range, integers, and
values whose 17-digit rounding carries into the next power of ten.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from voidtherm import _csvtext
from voidtherm.cli import main

TINY = 2.2250738585072014e-308      # the least normal double
PULSE = Path(__file__).resolve().parents[1] / "demos" / "inputs" / "pulse.scn"


def _assert_g17(x):
    x = np.asarray(x, dtype=np.float64).ravel()
    text = _csvtext.csv_text(_csvtext.g17_cells(x)[:, None, :])
    want = ["%.17g" % v for v in x.tolist()]
    got = text.split("\n")[:-1]
    bad = [(v, w, g) for v, w, g in zip(x.tolist(), want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]
    return x.size


def _with_negatives(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, -x])


def test_cells_are_the_percent_bytes():
    x = np.array([0.0, -0.0, 1.5, -2.5e-7, 1e16, 1e17, 0.0001, 123456.789])
    cells = _csvtext.g17_cells(x)
    assert cells.shape == (x.size, _csvtext.WIDTH) and cells.dtype == np.uint8
    assert [c[c != 0].tobytes() for c in cells] == [("%.17g" % v).encode() for v in x]


def test_random_bit_patterns():
    rng = np.random.default_rng(1)
    n = 0
    for _ in range(3):
        n += _assert_g17(rng.integers(0, 2 ** 64, 150_000, dtype=np.uint64).view(np.float64))
    assert n == 450_000


def test_every_decimal_exponent():
    rng = np.random.default_rng(2)
    digits = rng.integers(10 ** 16, 10 ** 17, (633, 300))
    text = [f"{d}e{e - 16}" for e, row in zip(range(-324, 309), digits.tolist()) for d in row]
    x = _with_negatives(np.array(text, dtype=np.float64))
    e = np.floor(np.log10(np.abs(x[np.isfinite(x) & (x != 0)])))
    assert e.min() == -324 and e.max() == 308
    assert _assert_g17(x) == 379_800


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)] + [5e-324])
    near = [powers] + [_nextafter(powers, side, steps) for side in (-1, 1) for steps in (1, 2, 3)]
    near += [powers[powers < 1e300] * m for m in (2.0, 3.0, 5.0, 9.0, 9.5, 9.9999999999999982)]
    assert _assert_g17(_with_negatives(np.concatenate(near))) > 15_000


def _nextafter(x, side, steps):
    for _ in range(steps):
        x = np.nextafter(x, side * np.inf)
    return x


def test_subnormals_zeros_and_special_values():
    rng = np.random.default_rng(3)
    sub = rng.integers(1, 2 ** 52, 60_000, dtype=np.uint64).view(np.float64)
    edges = np.array([5e-324, 1e-323, 2.2250738585072009e-308, TINY, 1.7976931348623157e308,
                      np.nextafter(TINY, 0), np.nextafter(TINY, 1)])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    x = np.concatenate([_with_negatives(sub), _with_negatives(edges), special])
    assert np.isnan(x).any() and (np.abs(x[x != 0]) < TINY).sum() > 100_000
    _assert_g17(x)


def test_exact_decimal_halves_round_half_even():
    # (k + 1/2) 10^j with k of 17 digits is a double only for j < 0, as
    # n / 2^(|j| + 1) with n = (2k + 1) / 5^|j| odd and below 2^53; there
    # 10^s is exact (s = |j| <= 22) and '%' rounds the tie to even
    rng = np.random.default_rng(4)
    x = []
    for j in range(1, 23):
        lo, hi = -(-2 * 10 ** 16 // 5 ** j), min(2 * 10 ** 17 // 5 ** j, 2 ** 53)
        n = rng.integers(lo, hi - 1, 5000) | 1
        x.append(np.ldexp(n.astype(np.float64), -(j + 1)))
    x = _with_negatives(np.concatenate(x))
    digits = [("%.17e" % v) for v in x[:2000].tolist()]
    assert all(d[18] == "5" for d in digits)     # 18 significant digits ending in 5
    assert _assert_g17(x) == 220_000


def test_short_mantissa_ties_beyond_exact_powers(monkeypatch):
    # m 2^-(s+1) times 10^s is m 5^s / 2: a tie with an inexact 10^s, at
    # s = 23 and 24 only; each takes Python's '%' in its cell
    x = [m * 2.0 ** -(s + 1) for s in (23, 24, 25) for m in range(1, 40, 2)
         if np.floor(np.log10(m * 2.0 ** -(s + 1))) == 16 - s]
    assert len(x) == 9
    python = []
    monkeypatch.setattr(_csvtext, "_python", lambda v, f=_csvtext._python: python.append(v) or f(v))
    _assert_g17(_with_negatives(x))
    assert len(python) == 18


def test_integers_and_rounding_into_the_next_power():
    rng = np.random.default_rng(5)
    ints = np.concatenate([np.arange(100_000), rng.integers(0, 2 ** 53, 50_000),
                           rng.integers(0, 2 ** 62, 50_000)]).astype(np.float64)
    top = np.array([1e17, 99999999999999999.0, 1e16, 9999999999999999.0, 2.0 ** 53,
                    2.0 ** 53 + 2, 2.0 ** 63, 2.0 ** 64])
    # doubles below a power of ten whose 17 digits round up to it
    carry = [v for k in range(-324, 309) for v in [float(f"1e{k}")]
             if v and Fraction(v) < Fraction(10) ** k and "%.17g" % v == f"1e{k:+03d}"]
    assert len(carry) > 10
    assert _assert_g17(_with_negatives(np.concatenate([ints, top, carry]))) > 400_000


def test_coordinate_prefixes_in_blocks():
    # the coordinate prefixes of a 33^3 mesh are built SLAB values at a
    # time: the traced peak stays a few times the 0.8 MiB result, not the
    # whole mesh's cells and rows at once (about 10 MiB)
    import io
    import tracemalloc

    import voidtherm as vt
    from voidtherm.solver import BoundaryPartition, Grid, Scenario, TrajectoryCsvWriter

    scen = Scenario(grid=Grid(extents=(1.0,) * 3, counts=(33,) * 3),
                    material=vt.random_material(3, np.random.default_rng(0)),
                    boundary=BoundaryPartition.all_dirichlet_zero(3), dt=0.01, T=0.1,
                    support_x0=1.0)
    _csvtext._tables()
    tracemalloc.start()
    try:
        writer = TrajectoryCsvWriter(scen, io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    mesh = np.stack([x.ravel() for x in scen.mesh()], axis=1)
    for k in (0, 1, 4095, 20000, len(mesh) - 1):
        text = writer.coords[k].tobytes().rstrip(b"\0")
        assert text == b"".join(b"%.17g," % v for v in mesh[k])


def test_hypothesis_floats():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(st.floats(width=64), min_size=1, max_size=64))
    def check(values):
        _assert_g17(values)

    check()


def test_pulse_trajectory_rarely_falls_back(tmp_path, monkeypatch, capsys):
    # nearly every value of the reference run takes the vectorised path
    counts = {"values": 0, "python": 0}
    cells, python = _csvtext.g17_cells, _csvtext._python

    def counted_cells(x):
        counts["values"] += np.size(x)
        return cells(x)

    def counted_python(value):
        counts["python"] += 1
        return python(value)

    monkeypatch.setattr(_csvtext, "g17_cells", counted_cells)
    monkeypatch.setattr(_csvtext, "_python", counted_python)
    assert main(["simulate", "--scenario", str(PULSE),
                 "--out", str(tmp_path)]) == 0
    assert counts["values"] > 400_000
    assert counts["python"] < 1e-3 * counts["values"]
