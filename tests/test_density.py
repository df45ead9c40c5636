"""Window schedules and finite density estimation."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from densfam import (
    WindowSchedule,
    as_fraction,
    complement,
    default_tolerance,
    estimate_density,
    from_elements,
    from_membership,
    intersect,
    kw_set,
    omega,
    scale,
    sym_diff,
    window_counts,
)

# -- rational parsing ------------------------------------------------------


def test_as_fraction_reads_decimal_text():
    assert as_fraction("0.3") == Fraction(3, 10)
    assert as_fraction("3/10") == Fraction(3, 10)
    assert as_fraction(Fraction(1, 7)) == Fraction(1, 7)
    assert as_fraction(2) == 2


def test_as_fraction_float_uses_shortest_repr():
    # 0.3 the float means three tenths, not its binary expansion
    assert as_fraction(0.3) == Fraction(3, 10)


def test_as_fraction_rejects_garbage():
    with pytest.raises(ValueError):
        as_fraction("zero point three")


# -- schedules -------------------------------------------------------------


def test_default_windows_are_geometric():
    ws = WindowSchedule().windows()
    assert ws[0] == 10_000
    assert ws[-1] == 5_120_000
    assert all(b == 2 * a for a, b in zip(ws, ws[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        WindowSchedule(start=0)
    with pytest.raises(ValueError):
        WindowSchedule(ratio=Fraction(1))
    with pytest.raises(ValueError):
        WindowSchedule(count=2)


def test_end_anchored_windows_hit_end_exactly():
    sched = WindowSchedule(start=10_000, ratio=Fraction(2), count=8, end=10**6)
    ws = sched.windows()
    assert ws[-1] == 10**6
    assert len(ws) == 8
    assert all(a < b for a, b in zip(ws, ws[1:]))


def test_retarget_pins_last_window():
    sched = WindowSchedule().retarget(10**6)
    ws = sched.windows()
    assert ws[-1] == 10**6
    assert ws[0] >= 1


@given(st.integers(min_value=100, max_value=10**7))
@settings(max_examples=40)
def test_retarget_always_lands_on_target(n):
    assert WindowSchedule().retarget(n).windows()[-1] == n


def _retarget_by_trying_every_count(sched, n):
    # the definition: the largest count, from the schedule's own down to
    # 3, whose windows ending at n increase strictly
    for count in range(sched.count, 2, -1):
        try:
            return WindowSchedule(sched.start, sched.ratio, count, end=n)
        except ValueError:
            continue
    return None


@given(st.fractions(Fraction(101, 100), 4), st.integers(3, 30),
       st.one_of(st.integers(0, 200), st.integers(0, 10**7)))
@settings(max_examples=200)
def test_retarget_keeps_the_largest_count_that_increases(ratio, count, n):
    sched = WindowSchedule(10**6, ratio, count)
    want = _retarget_by_trying_every_count(sched, n)
    if want is None:
        with pytest.raises(ValueError, match="cannot fit a 3-window schedule"):
            sched.retarget(n)
    else:
        assert sched.retarget(n) == want


def test_retarget_of_a_long_schedule_to_a_small_prefix_is_immediate():
    # 3000 windows cannot increase below 5000 at ratio 2; only 14 can
    assert WindowSchedule(1000, 2, 3000).retarget(5000).count == 14


def test_fractional_ratio():
    ws = WindowSchedule(start=1000, ratio=Fraction(3, 2), count=4).windows()
    assert ws == (1000, 1500, 2250, 3375)


def test_default_tolerance_rule():
    assert default_tolerance(10**6, randomized=False) == Fraction(5, 1000)
    t = default_tolerance(10**6, randomized=True)
    assert t == max(Fraction(5, 1000), Fraction(4, isqrt(10**6)))
    # large windows: randomized floor no longer binds
    assert default_tolerance(10**7, randomized=True) == Fraction(5, 1000)


# -- estimates on exactly known sets ----------------------------------------


def test_omega_density_is_one(small_schedule):
    est = estimate_density(omega(), small_schedule)
    assert est.value == 1
    assert est.oscillation == 0
    assert est.converged


def test_periodic_density_exact(small_schedule):
    s = from_membership(lambda n: n % 5 < 2)
    est = estimate_density(s, small_schedule)
    assert est.value == Fraction(2, 5)
    assert est.converged


def test_estimate_carries_schedule_data(small_schedule):
    est = estimate_density(omega(), small_schedule)
    assert est.windows == small_schedule.windows()
    assert est.counts == small_schedule.windows()


# -- rotation sets against the high-precision oracle -------------------------

# frozen from oracles.mp_kw_count(r, p, 20000), mpmath at 40 digits
KW_COUNTS_20000 = {
    (2, Fraction(3, 10)): 6001,
    (2, Fraction(1, 2)): 10002,
    (2, Fraction(7, 10)): 14000,
    (3, Fraction(3, 10)): 6000,
    (3, Fraction(1, 2)): 10001,
    (3, Fraction(7, 10)): 14000,
    (5, Fraction(3, 10)): 6001,
    (5, Fraction(1, 2)): 10002,
    (5, Fraction(7, 10)): 13999,
}


@pytest.mark.parametrize("radicand,threshold", sorted(KW_COUNTS_20000, key=str))
def test_kw_counts_match_frozen_oracle(radicand, threshold):
    s = kw_set(radicand, threshold)
    assert s.prefix_count(20_000) == KW_COUNTS_20000[(radicand, threshold)]


def test_kw_count_matches_live_oracle():
    # small recomputation guards the frozen table itself
    s = kw_set(7, Fraction(2, 5))
    assert s.prefix_count(2000) == oracles.mp_kw_count(7, Fraction(2, 5), 2000)


def test_kw_estimate_converges_to_threshold():
    sched = WindowSchedule(start=10_000, ratio=Fraction(2), count=5)
    est = estimate_density(kw_set(2, Fraction(3, 10)), sched)
    assert est.converged
    assert abs(est.value - Fraction(3, 10)) < Fraction(1, 1000)


# -- a set with no density ---------------------------------------------------

# S = {k : floor(log2(k+1)) even} has lower density 1/3 and upper 2/3.
# Window counts frozen from oracles.log_block_count.
LOG_BLOCK_COUNTS = {
    10_000: 5461,
    20_000: 9078,
    40_000: 21_845,
    80_000: 36_310,
    160_000: 87_381,
    320_000: 145_238,
    640_000: 349_525,
    1_280_000: 580_950,
}


def log_block_set():
    return from_membership(oracles.log_block_member,
                           descriptor={"kind": "log-block"})


def tail_upper(s, schedule):
    """The largest density over the schedule's last three windows: a
    finite look at the upper density."""
    tail = schedule.windows()[-3:]
    return max(Fraction(c, n) for c, n in zip(window_counts([s], tail)[0], tail))


def rho(x, y, schedule):
    """The symmetric-difference pseudometric on the schedule's tail."""
    return tail_upper(sym_diff(x, y), schedule)


def relative(s, b, n):
    """|S ∩ B ∩ [0,n)| / |B ∩ [0,n)|."""
    (denom,), (num,) = window_counts([b, intersect(s, b)], (n,))
    return Fraction(num, denom)


def test_log_block_counts_match_closed_form():
    s = log_block_set()
    for n in (10_000, 20_000, 40_000):
        assert s.prefix_count(n) == LOG_BLOCK_COUNTS[n]
        assert s.prefix_count(n) == oracles.log_block_count(n)


def test_log_block_reports_oscillating():
    sched = WindowSchedule(start=10_000, ratio=Fraction(2), count=6)
    est = estimate_density(log_block_set(), sched)
    assert est.status == "oscillating"
    assert est.oscillation > Fraction(8, 100)


def test_log_block_upper_estimate():
    sched = WindowSchedule(start=10_000, ratio=Fraction(2), count=8)
    up = tail_upper(log_block_set(), sched)
    # doubling windows sample the oscillation at two phases; the tail
    # maximum is the 640000 window
    assert up == Fraction(349_525, 640_000)
    est = estimate_density(log_block_set(), sched)
    assert up >= est.value


# -- symmetric-difference distance -------------------------------------------


def test_rho_of_set_with_itself_is_zero(small_schedule):
    s = from_membership(lambda n: n % 3 == 0)
    assert rho(s, s, small_schedule) == 0


def test_rho_symmetric(small_schedule):
    a = from_membership(lambda n: n % 3 == 0)
    b = from_membership(lambda n: n % 4 == 0)
    assert rho(a, b, small_schedule) == rho(b, a, small_schedule)


def test_rho_complement_pair(small_schedule):
    a = from_membership(lambda n: n % 2 == 0)
    assert rho(a, complement(a), small_schedule) == 1


def test_rho_triangle_inequality(small_schedule):
    a = from_membership(lambda n: n % 2 == 0)
    b = from_membership(lambda n: n % 3 == 0)
    c = from_membership(lambda n: n % 5 == 0)
    ab = rho(a, b, small_schedule)
    bc = rho(b, c, small_schedule)
    ac = rho(a, c, small_schedule)
    assert ac <= ab + bc


def test_rho_matches_sym_diff_upper(small_schedule):
    a = from_membership(lambda n: n % 2 == 0)
    b = from_membership(lambda n: n % 3 == 0)
    # |A Δ B| = |A| + |B| - 2|A ∩ B| at every window
    tail = small_schedule.windows()[-3:]
    ca, cb, cab = window_counts([a, b, intersect(a, b)], tail)
    assert rho(a, b, small_schedule) == max(
        Fraction(x + y - 2 * z, n) for x, y, z, n in zip(ca, cb, cab, tail)
    )


# -- relative density ---------------------------------------------------------


def test_relative_density_of_multiples():
    within = from_membership(lambda n: n % 2 == 0)
    sub = from_membership(lambda n: n % 4 == 0)
    assert relative(sub, within, 8000) == Fraction(1, 2)


def test_relative_density_rejects_empty_reference():
    sub = from_elements([2])
    with pytest.raises(ZeroDivisionError):
        relative(sub, from_elements([]), 8000)


# -- stated prefix-density identities ---------------------------------------


def test_prefix_density_of_evens_at_ten():
    ((count,),) = window_counts([scale(omega(), 2)], (10,))
    assert Fraction(count, 10) == Fraction(1, 2)


def test_prefix_density_rejects_empty_prefix():
    # densities come from schedules, whose windows start at 1, and from
    # counts, which take no negative window
    with pytest.raises(ValueError):
        WindowSchedule(start=0)
    with pytest.raises(ValueError):
        window_counts([omega()], (-1,))


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=5000),
)
def test_prefix_density_of_multiples_closed_form(p, n):
    # multiples of p below n: 0, p, 2p, ... -> ceil(n/p) of them
    ((count,),) = window_counts([scale(omega(), p)], (n,))
    assert Fraction(count, n) == Fraction(-(-n // p), n)


def test_kw_estimate_on_default_schedule():
    est = estimate_density(kw_set(2, Fraction(3, 10)), WindowSchedule())
    assert abs(est.value - Fraction(3, 10)) <= Fraction(5, 1000)
    assert est.converged


def test_log_block_peaks_near_two_thirds_on_dyadic_windows():
    sched = WindowSchedule(start=1024, ratio=Fraction(2), count=8)
    up = tail_upper(log_block_set(), sched)
    # windows 2^10 .. 2^17; the odd-exponent windows close in on 2/3
    assert up == Fraction(87_381, 131_072)
    assert Fraction(2, 3) - up < Fraction(1, 100_000)


def test_rho_of_evens_and_multiples_of_four():
    a = from_membership(lambda n: n % 2 == 0)
    b = from_membership(lambda n: n % 4 == 0)
    sched = WindowSchedule(start=2048, ratio=Fraction(2), count=3)
    # A triangle B is the residue class 2 mod 4
    assert rho(a, b, sched) == Fraction(1, 4)


def test_relative_density_of_omega_is_one():
    b = from_membership(lambda n: n % 2 == 0)
    assert relative(omega(), b, 6000) == 1


def test_relative_density_evens_within_multiples_of_three():
    a = from_membership(lambda n: n % 2 == 0)
    b = from_membership(lambda n: n % 3 == 0)
    # below 12 the multiples of three are 0,3,6,9; the even ones 0,6
    assert relative(a, b, 12) == Fraction(1, 2)
