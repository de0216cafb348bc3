"""Property tests of the Hurwitz kernel's certificate against a decimal
Euler-Maclaurin reference far past double precision, and at large s against
a direct sum."""

import hashlib
import math
import random
from decimal import Decimal, localcontext

import pytest

import helpers
import zetasums
from helpers import (
    benchmark_requests, decimal_hurwitz, direct_hurwitz, drift_hurwitz_core, timed_outcome,
)
from zetasums import special, sums
from zetasums.special import (
    EPS, _EM_STEPS, _FLOAT_N, _held, _hurwitz_core, _split, hurwitz_tail_bound,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    s=st.floats(1.001, 60.0, exclude_min=True),
    alpha=_log_uniform(1e-4, 1e5),
)
def test_kernel_bound_is_sound_and_tight(s, alpha):
    value, bound = _hurwitz_core(s, alpha)
    ref = decimal_hurwitz(s, alpha)
    assert abs(Decimal(value) - ref) <= Decimal(bound)
    # one pass reaches the rounding floor: the envelope ends far below it
    assert bound <= 4.0 * EPS * float(ref)
    if alpha >= 2.0 * max(10.0, s):
        # far from the origin the bound is the rounding charge alone
        assert bound <= 1.01 * 2.0 * EPS * value


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(s=st.floats(1.05, 6.0), alpha=_log_uniform(1e-3, 1e300))
@hypothesis.example(s=6.0, alpha=1e70)
@hypothesis.example(s=3.0, alpha=1e200)
def test_tail_bound_is_an_upper_bound(s, alpha):
    # zeta(s, alpha) >= alpha^(1-s)/(s-1) + alpha^-s/2, the trapezoid rule on
    # a convex summand; past alpha ~ 1e16 the slack alpha^-s/2 falls below
    # the rounding of the bound, which then missed on about half the points,
    # and where alpha^(1-s)/(s-1) underflows the bound was 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        S, A = mpmath.mpf(s), mpmath.mpf(alpha)
        assert hurwitz_tail_bound(s, alpha) >= A ** (1 - S) / (S - 1) + A ** -S / 2


# _hurwitz_core(s, alpha) as float.hex, recorded before the kernel took
# its first pass without explicit terms directly (alpha >= 20, or 2 ceil(s)
# for s >= 10).  alpha is a power of two and s an integer, so alpha^-s is
# exact and every other step is a correctly rounded IEEE operation: no libm
# difference can move a bit.
_FIRST_PASS_GOLDEN = {
    (2.0, 32.0): ("0x1.040aaa223a7b2p-5", "0x1.040aab6c085a3p-56"),
    (2.0, 64.0): ("0x1.0202aaa22283ap-6", "0x1.0202acb993fafp-57"),
    (2.0, 1024.0): ("0x1.002002aaaaa22p-10", "0x1.002002aaeef7ap-61"),
    (2.0, 1048576.0): ("0x1.00000800002abp-20", "0x1.00000800446f1p-71"),
    (3.0, 32.0): ("0x1.081ffd55ffb37p-11", "0x1.0820066fde2b4p-62"),
    (3.0, 64.0): ("0x1.0407ffd557ffbp-13", "0x1.040800336d560p-64"),
    (3.0, 1024.0): ("0x1.004007ffffd55p-21", "0x1.0040080266916p-72"),
    (3.0, 1048576.0): ("0x1.0000100000800p-41", "0x1.0000100155d5ap-92"),
    (5.0, 32.0): ("0x1.106a9807fa856p-22", "0x1.106abf988a30fp-73"),
    (5.0, 64.0): ("0x1.081aa9801ffa8p-26", "0x1.081aad6220066p-77"),
    (5.0, 1024.0): ("0x1.00801aaaa9800p-42", "0x1.00801ad6abd63p-93"),
    (5.0, 1048576.0): ("0x1.0000200001aabp-82", "0x1.000020095700dp-133"),
    (11.0, 32.0): ("0x1.dd41e517c716fp-54", "0x1.dd46af364ecc9p-105"),
    (11.0, 64.0): ("0x1.ba841e2e07bf0p-64", "0x1.ba8475803d205p-115"),
    (11.0, 1024.0): ("0x1.9b9a84441e223p-104", "0x1.9b9a8444804b4p-155"),
    (11.0, 1048576.0): ("0x1.999a1999a8445p-204", "0x1.999a1acab95b7p-255"),
    (17.0, 64.0): ("0x1.216a29c7f7dbep-100", "0x1.216b32d202df2p-151"),
    (17.0, 1024.0): ("0x1.02016aaa2977dp-164", "0x1.02016aad0f900p-215"),
    (17.0, 1048576.0): ("0x1.0000800016aabp-324", "0x1.00008409b04d6p-375"),
}


@pytest.mark.parametrize("s, alpha", sorted(_FIRST_PASS_GOLDEN))
def test_first_pass_without_explicit_terms_is_bit_identical(s, alpha):
    value, bound = _hurwitz_core(s, alpha)
    assert (value.hex(), bound.hex()) == _FIRST_PASS_GOLDEN[s, alpha]
    assert abs(Decimal(value) - decimal_hurwitz(s, alpha)) <= Decimal(bound)


@pytest.mark.parametrize("s, alpha", [(1.5, 1e250), (3.0, 1e120), (15.0, 1.6e21)])
def test_underflowed_first_power_keeps_the_head(s, alpha):
    # alpha^-s is 0.0 at the first two points and subnormal at the third;
    # zeta is 2e-125, 5e-241 and 1e-298.  It lies in
    # [alpha^(1-s)/(s-1), alpha^(1-s)/(s-1) + alpha^-s], whose ends the bound
    # must both reach, and it stays within a few ulps plus 2^-1021
    value, bound = _hurwitz_core(s, alpha)
    with localcontext() as ctx:
        ctx.prec = 60
        lo = Decimal(alpha) ** Decimal(1.0 - s) / Decimal(s - 1.0)
        hi = lo + Decimal(alpha) ** Decimal(-s)
        for end in (lo, hi):
            assert abs(Decimal(value) - end) <= Decimal(bound)
    assert value > 0.0 and bound <= 4.0 * EPS * value + 2.0 ** -1021


def _kernel_draws(seed=22, n_per_kind=2_500, n_ulp_rows=40):
    """(kind, s, alpha) below the split: integer, half-integer and k/256
    alpha, the half lattice K//2 + 0.5 of the alternating tails, alpha one
    ulp off an integer k < split/2, where z >= split > 2 alpha lies in a
    coarser binade than alpha and cannot hold its last bit, and alpha
    uniform in (0, split), with s - 1 log-uniform in [1e-3, 59]; then, at
    n_ulp_rows values of s uniform in [1.001, 60], alpha one ulp either side
    of every integer below the split, where the Fast2Sum of n + alpha turns
    from alpha first to n first."""
    rng = random.Random(seed)
    draws = []
    for kind in ("integer", "half", "k/256", "half-lattice", "ulp-off", "uniform"):
        for _ in range(n_per_kind):
            s = 1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(59.0)))
            split = _split(s)
            if kind == "integer":
                alpha = float(rng.randrange(1, split))
            elif kind == "half":
                alpha = rng.randrange(split) + 0.5
            elif kind == "k/256":
                alpha = rng.randrange(1, 256 * split) / 256.0
            elif kind == "half-lattice":
                alpha = rng.randrange(2 * split - 1) // 2 + 0.5
            elif kind == "ulp-off":
                k = float(rng.randrange(1, split // 2))
                alpha = math.nextafter(k, 0.0 if rng.random() < 0.5 else math.inf)
            else:
                alpha = split * (1.0 - rng.random())  # in (0, split]
                if alpha == split:
                    alpha = math.nextafter(alpha, 0.0)
            draws.append((kind, s, alpha))
    for _ in range(n_ulp_rows):
        s = rng.uniform(1.001, 60.0)
        for k in map(float, range(1, _split(s))):
            draws += [("ulp-each", s, math.nextafter(k, toward)) for toward in (0.0, math.inf)]
    return draws


def test_exact_lattice_pass_keeps_the_drift_pass_bits():
    # about 20 000 draws; where z - N == alpha the kernel skips the rounding
    # compensation, which on that lattice only ever adds exact zeros.  The
    # compensated pass reads n from _FLOAT_N and orders each Fast2Sum by
    # n >= alpha: the ulp-each draws put alpha on both sides of every n
    exact = 0
    for kind, s, alpha in _kernel_draws():
        split = _split(s)
        n = math.ceil(split - alpha)
        on_lattice = (n + alpha) - n == alpha
        exact += on_lattice
        if kind == "ulp-off":
            assert not on_lattice, (s, alpha)  # the drift branch
        got = tuple(map(float.hex, _hurwitz_core(s, alpha)))
        want = tuple(map(float.hex, drift_hurwitz_core(s, alpha)))
        assert got == want, (kind, s, alpha)
    assert exact >= 7_500  # the integer, half and half-lattice draws at least


def _short_pass_draws(seed=23, n=2_500):
    """(s, alpha) with alpha log-uniform from the split to 1e8, where the
    pass takes no explicit term; s - 1 log-uniform in [1e-3, 59]."""
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        s = 1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(59.0)))
        split = _split(s)
        draws.append((s, math.exp(rng.uniform(math.log(split), math.log(1e8)))))
    return draws


def _route_compare_points(monkeypatch, n_requests=20):
    """The (s, h n + x0) at which the direct route of the first n seed-1
    route-compare requests (TERM_FLOOR) calls the kernel."""
    points, kernel = [], sums._hurwitz_core

    def recorded(s, x, held=None):
        points.append((s, x))
        return kernel(s, x, held)

    workload, requests = benchmark_requests("route-compare", 1, n_requests)
    with monkeypatch.context() as patch:
        patch.setattr(sums, "_hurwitz_core", recorded)
        for request in requests:
            workload.call(zetasums, request)
    return points


@pytest.mark.parametrize("which", ["kernel draws", "short pass", "route-compare"])
def test_held_record_keeps_every_bit(which, monkeypatch):
    # the record holds the values a pass rounds inline, and the walk
    # multiplies the same factors in the same order: value and bound keep
    # their float.hex on the explicit passes' draws, on the pass without
    # explicit terms, and at every lattice point of the benchmark's loop
    if which == "kernel draws":
        # the last draw is the one of 100 000 random ones whose output shows
        # the rounding of a walk step: a subnormal value
        draws = [(s, alpha) for _, s, alpha in _kernel_draws()]
        draws.append((130.6739491258815, 257.9757227422491))
    elif which == "short pass":
        draws = _short_pass_draws()
    else:
        draws = _route_compare_points(monkeypatch)
        assert len(draws) > 70_000
    records = {}
    for s, alpha in draws:
        if s not in records:
            records[s] = _held(s)
        got = tuple(map(float.hex, _hurwitz_core(s, alpha, records[s])))
        want = tuple(map(float.hex, _hurwitz_core(s, alpha)))
        assert got == want, (s, alpha)


def test_held_walk_steps_round_as_the_inline_ones():
    # the corrections sit far below the head's rounding charge, so a walk
    # step's last bit rarely reaches the output: the steps are compared
    # directly.  Each held factor is the inline ratio (s + 2r - 1)(s + 2r),
    # rounded left to right, and each step corr * f * z^-2 from random corr
    # and z^-2 keeps the inline step's bits
    rng = random.Random(25)
    for _ in range(2_000):
        s = 1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(300.0)))
        corr, z2 = rng.uniform(1e-6, 1.0), rng.uniform(1e-6, 1.0 / 400.0)
        factors = _held(s)[-1]
        assert len(factors) == len(_EM_STEPS)
        for (ratio, k1, k2), f in zip(_EM_STEPS, factors):
            inline = ratio * (s + k1) * (s + k2)
            assert f.hex() == inline.hex(), s
            assert (corr * f * z2).hex() == (corr * inline * z2).hex(), s


def _slow_steps(s, rng):
    """Walk steps to patch over _EM_STEPS for the passes at s: order r's
    ratio is -q_r split^2 / ((s + 2r - 1)(s + 2r)), q_r uniform in
    [0.5, 0.9], so each correction is q_r (split/z)^2 <= 0.9 of the one
    before, with the true ratios' sign.  Where z < split + 1, as on every
    explicit pass, all 12 orders run, and the last correction, over
    0.5^12 (split/(split + 1))^24 of the first, sits far above the rounding
    charge and shows in the bound."""
    split = float(_split(s))
    return tuple(
        (-rng.uniform(0.5, 0.9) * split * split / ((s + k1) * (s + k2)), k1, k2)
        for _, k1, k2 in _EM_STEPS
    )


def test_every_walk_step_rounding_reaches_the_output(monkeypatch):
    # the true corrections fall so fast that a step's last bit almost never
    # reaches a pass's output; under slowly shrinking ones it does.  The
    # explicit passes, exact-lattice and compensated, inline and held, must
    # then keep the drift pass's bits, whose walk has the kernel's arithmetic,
    # and a pass without explicit terms must keep its bits from inline to held
    rng = random.Random(30)
    for _ in range(40):
        s = 1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(59.0)))
        split = _split(s)
        lattice = [float(rng.randrange(1, split)), rng.randrange(1, 4 * split) / 4.0]
        off = [split * rng.random() for _ in range(2)]
        short = [split * math.exp(rng.uniform(0.0, math.log(100.0))) for _ in range(2)]
        with monkeypatch.context() as patch:
            steps = _slow_steps(s, rng)
            patch.setattr(special, "_EM_STEPS", steps)
            patch.setattr(helpers, "_EM_STEPS", steps)
            held = _held(s)
            for alpha in lattice + off:
                want = tuple(map(float.hex, drift_hurwitz_core(s, alpha)))
                for record in (None, held):
                    got = tuple(map(float.hex, _hurwitz_core(s, alpha, record)))
                    assert got == want, (s, alpha, record is None)
            for alpha in short:
                got = tuple(map(float.hex, _hurwitz_core(s, alpha, held)))
                assert got == tuple(map(float.hex, _hurwitz_core(s, alpha))), (s, alpha)


def _underflow_draws(seed=24, n=40):
    """(s, alpha) with s uniform in [100, 2000] and alpha in [s/2, 2s]."""
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        s = rng.uniform(100.0, 2000.0)
        draws.append((s, rng.uniform(0.5 * s, 2.0 * s)))
    return draws


# zeta is 2e-1138, 5e-810 and 3e-516 at the first three points, where the
# bound was 0; it is 1.1e-301 at the fourth, and 6.2e-309 at the fifth, where
# a bound of 2^-1074 missed by three times that
_UNDERFLOW_POINTS = [
    (400.0, 700.0), (300.0, 500.0), (200.0, 380.0), (150.3, 100.7),
    (129.45672466301272, 241.9599547571934),
]


@pytest.mark.parametrize("s, alpha", _UNDERFLOW_POINTS + _underflow_draws())
def test_underflowed_explicit_pass_keeps_an_enclosure(s, alpha):
    # below the split, where z^-s < 2^-1022, the head and the later terms
    # lose their bits to underflow while zeta > 0: the bound charges the
    # remainder past z, (1 + z/(s - 1)) 2^-1022, and 2^-1074 for each
    # explicit power, with or without a held record
    ref = decimal_hurwitz(s, alpha, digits=20)
    assert ref > 0
    for held in (None, _held(s)):
        value, bound = _hurwitz_core(s, alpha, held)
        assert bound > 0.0
        assert abs(Decimal(value) - ref) <= Decimal(bound), held is None
        # the charge stays a few times 2^-1022 above the rounding charge
        assert bound <= 4.0 * EPS * value + 8.0 * 2.0 ** -1022


def test_float_table_holds_every_explicit_term():
    # the compensated pass takes n from _FLOAT_N[:N], and a slice past the
    # table's end would drop terms without a word: the table holds each n
    # exactly, up to the split's maximum of 268, reached at 133 < s < 133.49
    assert _FLOAT_N == tuple(float(n) for n in range(len(_FLOAT_N)))
    grid = [133.0 + k / 1000.0 for k in range(1_000)]
    grid += [10.0 ** (k / 100.0) for k in range(30_800)]
    assert max(map(_split, grid)) == len(_FLOAT_N) == 268
    # the longest pass: N = 268 terms, every n below the split, against the
    # drift pass, whose split 2 ceil(s) is the kernel's here; the kernel adds
    # its underflow charge to the bound, as z^-s < 2^-1022
    s = 133.25
    for alpha in (0.37, 0.01, 0.9):
        assert math.ceil(_split(s) - alpha) == 268
        value, bound = _hurwitz_core(s, alpha)
        want_value, want_bound = drift_hurwitz_core(s, alpha)
        assert value.hex() == want_value.hex() and bound >= want_bound, alpha


def test_walk_shrinks_from_the_split():
    # the kernel's walk has no exit for a correction that does not shrink:
    # at z >= the split no step grows.  Where the split is 20 or 2 ceil(s),
    # each step is |C_(r+1)/C_r| (s + 2r - 1)(s + 2r)/z^2 <= 0.0711 of the one
    # before (z = alpha >= split takes the same pass); where it is the
    # underflow point, z^-s is 0, and with it every correction.  s runs over
    # 6 000 log-spaced values of s - 1 from 1e-12 to 2e6, then on to 1e308
    grid = [1.0 + 10.0 ** (-12.0 + 18.3 * k / 5_999) for k in range(6_000)]
    grid += [10.0 ** (6.3 + 301.7 * k / 999) for k in range(1_000)]
    grid += [10.0, math.nextafter(10.0, 0.0), 133.0, 133.5, 134.0, 1e308]
    worst = 0.0
    for s in grid:
        split = _split(s)
        assert 2 <= split <= 268, s  # never more than about 270 explicit terms
        if s < 10.0 or split == 2 * math.ceil(s):
            z2 = float(split) ** 2
            for ratio, k1, k2 in _EM_STEPS:
                worst = max(worst, abs(ratio) * (s + k1) * (s + k2) / z2)
        else:
            assert s > 133.0
            assert float(split) ** -s == 0.0, s
            # and no later than needed: (split - 1)^-s >= 2^-1076
            assert s * math.log2(split - 1) <= 1076.0 * (1.0 + 1e-12), s
    assert 0.071 < worst <= 0.072


def _split_draws(seed=29, n=24):
    """(kind, s, alpha) with z at the split, where the corrections are
    largest against the head (the first up to 1/48 of it): alpha = split - N
    on the integer lattice, alpha = split - N + d with d log-uniform in
    [1e-9, 0.5] off it, and alpha = split for the pass without explicit
    terms, at n values of s log-uniform in (1.001, 133]; then the three
    passes of a seeded search whose value the plain correction sum moved by
    one ulp and whose |err|/bound was largest."""
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        s = math.exp(rng.uniform(math.log(1.001), math.log(133.0)))
        split = _split(s)
        base = float(split - rng.randrange(1, split))
        draws.append(("lattice", s, base))
        draws.append(("off", s, base + math.exp(rng.uniform(math.log(1e-9), math.log(0.5)))))
        draws.append(("short", s, float(split)))
    for s in (6.669798755555013, 127.6671655421143, 10.855867073202186):
        draws.append(("moved", s, float(_split(s))))
    return draws


@pytest.mark.parametrize("kind, s, alpha", _split_draws())
def test_plain_correction_sum_stays_inside_the_charge(kind, s, alpha):
    # the walk sums its corrections plainly and adds that sum to the pass by
    # one Fast2Sum: at most 11 roundings of EPS/2 of 1.077 times the first
    # correction, under 0.124 EPS of the head, which the 2 EPS gross charge
    # holds.  Both paths, inline and held, enclose a 40-digit reference and
    # stay at the rounding floor
    ref = decimal_hurwitz(s, alpha, digits=40)
    for held in (None, _held(s)):
        value, bound = _hurwitz_core(s, alpha, held)
        assert abs(Decimal(value) - ref) <= Decimal(bound), (kind, held is None)
        assert bound <= 4.0 * EPS * float(ref), (kind, held is None)


# the SHA-256 of (value, bound) in float.hex over the 22 372 explicit- and
# short-pass draws above, each inline then held.  The workload output
# digests miss a kernel bit that no output keeps, and a change of the walk's
# rounding moves few passes by one ulp (577 of the 1 682 711 seed-1 passes
# of the three workloads, and no output, when the walk took its plain
# correction sum).  Recorded with glibc's libm: another libm's pow may round
# some x^-s differently
_KERNEL_DIGEST = "6aa4c800c483b32f8c112e97128c9c347e89accae6d427dced458b7d4aa0e661"


def test_kernel_bits_over_a_seeded_grid():
    h = hashlib.sha256()
    draws = [(s, alpha) for _, s, alpha in _kernel_draws()] + _short_pass_draws()
    for s, alpha in draws:
        for held in (None, _held(s)):
            value, bound = _hurwitz_core(s, alpha, held)
            h.update(f"{value.hex()} {bound.hex()}\n".encode())
    assert h.hexdigest() == _KERNEL_DIGEST


def _large_s_draws(seed=26, n=400):
    """(s, alpha): s log-uniform in [128, 1e4] or in [1e4, 1e300], and alpha
    an integer up to 300, log-uniform in [0.5, 300], or 2^(u/s) with u
    uniform in [-1000, 1080], which puts alpha^-s anywhere from past the
    largest double to below the smallest normal one."""
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        lo, hi = (128.0, 1e4) if rng.random() < 0.5 else (1e4, 1e300)
        s = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        kind = rng.randrange(3)
        if kind == 0:
            alpha = float(rng.randrange(1, 301))
        elif kind == 1:
            alpha = math.exp(rng.uniform(math.log(0.5), math.log(300.0)))
        else:
            alpha = 2.0 ** (rng.uniform(-1000.0, 1080.0) / s)
        draws.append((s, alpha))
    return draws


def _assert_short_and_enclosing(s, alpha):
    """One point of the large-s checks below; returns whether the kernel
    gave a value."""
    mpmath = pytest.importorskip("mpmath")
    ref, ref_err = direct_hurwitz(s, alpha)
    gave = False
    for held in (None, _held(s)):
        result, error, fast = timed_outcome(lambda: _hurwitz_core(s, alpha, held), 0.02)
        assert fast, (s, alpha)
        if error is not None:
            assert isinstance(error, zetasums.DomainError), (s, alpha, error)
            assert ref > mpmath.mpf(2.0) ** 1024 or s * EPS > 2.0 ** 511, (s, alpha)
            continue
        value, bound = result
        gave = True
        assert abs(mpmath.mpf(value) - ref) <= mpmath.mpf(bound) + ref_err, (s, alpha)
        if s <= 1e7:
            # where (s EPS)^2 is below EPS the bound stays at the rounding floor
            assert bound <= 4.0 * EPS * float(ref) + 8.0 * 2.0 ** -1022, (s, alpha)
    return gave


# the split stops the explicit terms where they underflow: each pass takes
# at most about 270 terms, so it ends in well under 20 ms at any s, and it
# encloses a direct sum's bracket, with or without a held record.  A
# DomainError is due where zeta passes double range (alpha^-s > 2^1024), and
# where (s EPS)^2, the kernel's second-order charge, overflows


@pytest.mark.parametrize("s, alpha", [(1e6, 1.0), (1e7, 1.0), (1e14, 1.5), (200.0, 0.75)])
def test_large_s_pass_is_short_and_encloses_a_direct_sum(s, alpha):
    assert _assert_short_and_enclosing(s, alpha)


def test_large_s_draws_are_short_and_enclose_a_direct_sum():
    gave = sum(_assert_short_and_enclosing(s, alpha) for s, alpha in _large_s_draws())
    assert gave >= 300
