import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hficov.sampling import (
    InterpolationError,
    SamplingScheme,
    _refresh_merge,
    _StampUnion,
    _tick_maps,
    global_refresh,
    pairwise_refresh,
    tick_interpolation,
)

from oracles import index_maps_oracle, refresh_merge_oracle, refresh_oracle, segmented_merge_oracle


def sch(*times, T=1.0):
    return SamplingScheme(np.asarray(times, dtype=float), T)


# ---------------------------------------------------------------------
# SamplingScheme validation
# ---------------------------------------------------------------------
def test_scheme_rejects_bad_input():
    with pytest.raises(ValueError):
        SamplingScheme(np.array([]), 1.0)
    with pytest.raises(ValueError):
        sch(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        sch(0.0, 1.5)
    with pytest.raises(ValueError):
        SamplingScheme(np.array([0.0, 0.5]), -1.0)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
def test_scheme_rejects_a_horizon_that_is_not_finite(horizon):
    # an infinite horizon used to construct, and hayashi_yoshida then ran on it
    with pytest.raises(ValueError, match=f"horizon must be finite, got {horizon!r}"):
        SamplingScheme(np.linspace(0, 1, 11), horizon)


# ---------------------------------------------------------------------
# Tick interpolation
# ---------------------------------------------------------------------
def test_tick_interpolation_interior():
    s = sch(0.0, 0.5, 1.0)
    assert tick_interpolation(s, 0.3) == (0.0, 0.5)


def test_tick_interpolation_at_observation():
    s = sch(0.0, 0.5, 1.0)
    assert tick_interpolation(s, 0.5) == (0.5, 0.5)


def test_tick_interpolation_before_first_tick_distinct_error():
    s = sch(0.2, 0.5)
    with pytest.raises(InterpolationError) as exc:
        tick_interpolation(s, 0.1)
    assert exc.value.side == "previous"
    with pytest.raises(InterpolationError) as exc:
        tick_interpolation(s, 0.9)
    assert exc.value.side == "next"


def test_tick_interpolation_outside_horizon():
    with pytest.raises(ValueError):
        tick_interpolation(sch(0.0, 1.0), 1.5)


# ---------------------------------------------------------------------
# Pairwise refresh
# ---------------------------------------------------------------------
def test_refresh_identical_grids_is_grid():
    g = sch(0, 0.25, 0.5, 0.75, 1.0)
    out = pairwise_refresh(g, g)
    np.testing.assert_array_equal(out.refresh_times, g.times)


def test_refresh_hand_recursion():
    a = sch(0, 0.3, 0.6, 1.0)
    b = sch(0, 0.5, 1.0)
    out = pairwise_refresh(a, b)
    np.testing.assert_allclose(out.refresh_times, [0.0, 0.5, 1.0])


def test_refresh_terminates_when_next_tick_missing():
    # candidate max(0.9, 0.3) = 0.9 has no following tick in scheme b
    a = sch(0.1, 0.9)
    b = sch(0.2, 0.3, 0.4)
    out = pairwise_refresh(a, b)
    np.testing.assert_allclose(out.refresh_times, [0.2])
    np.testing.assert_allclose(out.refresh_times, refresh_oracle(list(a.times), list(b.times)))


def test_refresh_matches_oracle_on_random_fixtures():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = sch(*np.sort(rng.uniform(0, 1, rng.integers(2, 25))))
        b = sch(*np.sort(rng.uniform(0, 1, rng.integers(2, 25))))
        try:
            got = pairwise_refresh(a, b).refresh_times
        except ValueError:
            assert len(refresh_oracle(list(a.times), list(b.times))) == 0
            continue
        np.testing.assert_allclose(got, refresh_oracle(list(a.times), list(b.times)))


@st.composite
def coarse_pair(draw):
    """Two schemes on a coarse grid k/g of [0, 1], so shared stamps are
    frequent: free draws, disjoint ranges, one range nested in the other,
    and one-tick schemes."""
    g = draw(st.integers(2, 40))

    def ticks(lo, hi, max_size=25):
        return sorted(draw(st.lists(st.integers(lo, hi), min_size=1, max_size=max_size, unique=True)))

    shape = draw(st.sampled_from(["free", "disjoint", "nested", "single"]))
    if shape == "disjoint":
        split = draw(st.integers(0, g - 1))
        a, b = ticks(0, split), ticks(split + 1, g)
    elif shape == "nested":
        a = ticks(0, g)
        b = ticks(a[0], a[-1])
    elif shape == "single":
        a, b = ticks(0, g, max_size=1), ticks(0, g)
    else:
        a, b = ticks(0, g), ticks(0, g)
    if draw(st.booleans()):
        a, b = b, a
    return sch(*np.array(a) / g), sch(*np.array(b) / g)


@given(coarse_pair())
def test_refresh_equals_oracle_on_coarse_grids(pair):
    a, b = pair
    expect = refresh_oracle(list(a.times), list(b.times))
    if not expect:
        with pytest.raises(ValueError):
            pairwise_refresh(a, b)
        return
    assert np.array_equal(pairwise_refresh(a, b).refresh_times, np.array(expect))


@given(coarse_pair(), coarse_pair())
def test_global_refresh_equals_oracle_twice(pair_ab, pair_cd):
    tau = refresh_oracle(*[list(s.times) for s in pair_ab])
    ttau = refresh_oracle(*[list(s.times) for s in pair_cd])
    assume(tau and ttau)
    g_ab, g_cd = pairwise_refresh(*pair_ab), pairwise_refresh(*pair_cd)
    expect = refresh_oracle(tau, ttau)
    if not expect:
        with pytest.raises(ValueError):
            global_refresh(g_ab, g_cd)
        return
    assert np.array_equal(global_refresh(g_ab, g_cd).refresh_times, np.array(expect))


@given(coarse_pair())
def test_refresh_merge_one_segment_equals_pair_merge(pair):
    a, b = (s.times for s in pair)
    assert np.array_equal(_refresh_merge(a, b), refresh_merge_oracle(a, b))
    union = _StampUnion(a, b)
    pos, bounds = union.fire(np.array([0, a.size]), np.array([0, b.size]))
    assert np.array_equal(union.refresh(), pos)
    assert bounds.tolist() == [0, pos.size]


@given(coarse_pair())
def test_pairwise_grid_previous_ticks_increase_and_next_ticks_repeat_at_most_twice(pair):
    # a pairwise grid has a tick of each series in every (tau_{j-1}, tau_j]:
    # the overlap count of timefuncs._overlap_count relies on both
    assume(refresh_oracle(*[list(s.times) for s in pair]))
    grid = pairwise_refresh(*pair)
    assert np.all(np.diff(grid.prev_idx, axis=1) > 0)
    for nxt in grid.next_idx:
        assert np.bincount(nxt).max() <= 2


@given(coarse_pair(), st.lists(st.integers(-1, 81), min_size=1, max_size=12, unique=True))
def test_tick_maps_equal_search_oracle(pair, query):
    # query times on a grid finer than the schemes' (on and between their
    # stamps, before the first and after the last), the same error when a
    # query time has no previous or next tick
    times = [s.times for s in pair]
    query = np.array(sorted(query)) / 80
    try:
        expect = index_maps_oracle(times, query)
    except InterpolationError as exc:
        with pytest.raises(InterpolationError) as got:
            _tick_maps(times, query)
        assert (got.value.side, got.value.s) == (exc.side, exc.s)
        return
    nxt, prv = _tick_maps(times, query)
    assert np.array_equal(nxt, expect[0]) and np.array_equal(prv, expect[1])


def _cut(a, b, cuts):
    """The segments ``(c_j, c_{j+1}]`` of both arrays as index cuts."""
    return np.searchsorted(a, cuts, side="right"), np.searchsorted(b, cuts, side="right")


@st.composite
def segmented_pair(draw):
    """Two nonempty arrays on a coarse grid k/g and up to 8 segment cuts on a
    grid twice as fine, so cuts fall on shared stamps and between stamps.
    Repeated cuts give empty segments, sparse arrays give segments with
    fewer than 3 ticks or none of one array, and dense ones give runs of
    label changes across cuts."""
    g = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # "interleaved": a on even and b on odd grid points, so long runs of
    # label changes meet the cuts
    parity = (0, 1) if draw(st.booleans()) else (None, None)

    def ticks(par):
        k = np.flatnonzero(rng.random(g + 1) < draw(st.sampled_from([0.15, 0.5, 0.9])))
        k = k[k % 2 == par] if par is not None else k
        return (k if k.size else np.array([draw(st.integers(0, g))])) / g

    a, b = ticks(parity[0]), ticks(parity[1])
    cuts = np.array(sorted(draw(st.lists(st.integers(-1, 2 * g), min_size=2, max_size=9)))) / (2 * g)
    return a, b, *_cut(a, b, cuts)


_A, _B = np.array([0.1, 0.4, 0.5, 0.9]), np.array([0.2, 0.4, 0.9, 1.0])


# a run of label changes across the cut at 0.55: three stamps after the
# first tau_0, then 0.8 (b) after 0.5 (a); 0.8 fires only if the run goes on
@example((np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.98]), np.array([0.2, 0.4, 0.6, 0.8, 0.95, 1.0]),
          np.array([0, 3, 6]), np.array([0, 2, 6])))
# a stamp shared at the cut 0.4, an empty segment, a segment with no tick
# of b and a segment whose merge is empty after tau_0 = 0.9
@example((_A, _B, *_cut(_A, _B, np.array([0.0, 0.4, 0.4, 0.5, 1.0]))))
@settings(max_examples=300)
@given(segmented_pair())
def test_segmented_refresh_merge_equals_loop_of_merges(case):
    a, b, cuts_a, cuts_b = case
    union = _StampUnion(a, b)
    pos, bounds = union.fire(cuts_a, cuts_b)
    times = union.stamps[pos]
    expect_times, expect_bounds = segmented_merge_oracle(a, b, cuts_a, cuts_b)
    assert np.array_equal(times, expect_times)
    assert np.array_equal(bounds, expect_bounds)


def assert_maps_equal_index_maps(union, a, b, pos):
    """The union's tick rule at union positions ``pos`` is the binary-search
    tick rule at their stamps, or raises the same ``InterpolationError``."""
    try:
        expect = index_maps_oracle([a, b], union.stamps[pos])
    except InterpolationError as exc:
        with pytest.raises(InterpolationError) as got:
            union.maps(pos)
        assert (got.value.side, got.value.s) == (exc.side, exc.s)
        return
    nxt, prv = union.maps(pos)
    assert np.array_equal(nxt, expect[0]) and np.array_equal(prv, expect[1])


def assert_union_equals_oracles(a, b, cuts_a, cuts_b):
    """Refresh times, bounds and index maps read off the stamp union of a
    and b, in either orientation, against the loop of one-segment merges
    and the binary-search tick rule."""
    expect_times, expect_bounds = segmented_merge_oracle(a, b, cuts_a, cuts_b)
    union = _StampUnion(a, b)
    for u, x, y, cx, cy in ((union, a, b, cuts_a, cuts_b), (union.flipped(), b, a, cuts_b, cuts_a)):
        pos, bounds = u.fire(cx, cy)
        assert np.array_equal(u.stamps[pos], expect_times)
        assert np.array_equal(bounds, expect_bounds)
        everywhere = np.arange(u.stamps.size)
        # the refresh times, and every union stamp from the start, the middle
        # and to the end: stamps before one array's first tick or after its
        # last have no previous or next tick
        for at in (pos, everywhere, everywhere[everywhere.size // 2 :], everywhere[: everywhere.size // 2 + 1]):
            if at.size:
                assert_maps_equal_index_maps(u, x, y, at)


# a run of label changes across the cut at 0.55: three stamps after the
# first tau_0, then 0.8 (b) after 0.5 (a); 0.8 fires only if the run goes on
@example((np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.98]), np.array([0.2, 0.4, 0.6, 0.8, 0.95, 1.0]),
          np.array([0, 3, 6]), np.array([0, 2, 6])))
# a stamp shared at the cut 0.4, an empty segment, a segment with no tick
# of b and a segment whose merge is empty after tau_0 = 0.9
@example((_A, _B, *_cut(_A, _B, np.array([0.0, 0.4, 0.4, 0.5, 1.0]))))
@settings(max_examples=300)
@given(segmented_pair())
def test_stamp_union_refresh_and_maps_equal_merge_and_search_oracles(case):
    assert_union_equals_oracles(*case)


def test_stamp_union_on_a_long_bracket_with_shared_stamps():
    # about 1.1e5 ticks per array on a grid of 4e5 steps (about 30% of
    # them shared) and 19 bins, as in a full-day acov bracket
    rng = np.random.default_rng(11)
    grid = np.arange(400_001) / 400_000
    a, b = (np.unique(rng.choice(grid, 135_000)) for _ in range(2))
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 18)), [1.0]])
    assert a.size > 100_000 and np.intersect1d(a, b).size > 20_000
    assert_union_equals_oracles(a, b, *_cut(a, b, edges))


def test_segmented_refresh_merge_hand_case():
    # one segment: 0.4 and 0.6 fire inside the run of label changes after
    # tau_0 = 0.2, and 0.8 lies past min(0.7, 0.8); cut at 0.45, each half
    # has its own tau_0 (0.2, 0.6) and its own last tick (0.3, 0.7)
    a, b = np.array([0.1, 0.3, 0.5, 0.7]), np.array([0.2, 0.4, 0.6, 0.8])
    assert _refresh_merge(a, b).tolist() == [0.2, 0.4, 0.6]
    union = _StampUnion(a, b)
    pos, bounds = union.fire(np.array([0, 2, 4]), np.array([0, 2, 4]))
    assert union.stamps[pos].tolist() == [0.2, 0.6] and bounds.tolist() == [0, 1, 2]


def test_refresh_count_bounded_by_min_scheme_size():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = sch(*np.sort(rng.uniform(0, 1, rng.integers(2, 40))))
        b = sch(*np.sort(rng.uniform(0, 1, rng.integers(2, 40))))
        out = pairwise_refresh(a, b)
        assert len(out) <= min(len(a), len(b))


def test_refresh_invariant_under_non_max_refinement():
    a = sch(0.0, 0.4, 0.8)
    b = sch(0.0, 0.5, 0.9)
    base = pairwise_refresh(a, b).refresh_times
    refined = sch(0.0, 0.4, 0.45, 0.8)  # 0.45 never becomes the recursion max
    np.testing.assert_array_equal(pairwise_refresh(refined, b).refresh_times, base)


def test_refresh_collapses_simultaneous_ticks():
    a = sch(0.0, 0.5, 1.0)
    b = sch(0.0, 0.5, 0.7, 1.0)
    out = pairwise_refresh(a, b)
    np.testing.assert_allclose(out.refresh_times, [0.0, 0.5, 1.0])


def test_refresh_index_maps_bracket_refresh_times():
    rng = np.random.default_rng(6)
    a, b, c, d = (sch(*np.sort(rng.uniform(0, 1, n))) for n in (30, 20, 25, 15))
    glob = global_refresh(pairwise_refresh(a, b), pairwise_refresh(c, d))
    for out in (*glob.pair_grids, glob):
        assert out.prev_times.shape == out.next_times.shape == (len(out.source_schemes), len(out))
        assert np.all(out.prev_times <= out.refresh_times)
        assert np.all(out.refresh_times <= out.next_times)


def test_index_maps_raise_interpolation_error_with_side_and_time():
    t = sch(0.2, 0.5, 0.7)
    with pytest.raises(InterpolationError) as exc:
        tick_interpolation(t, 0.1)
    assert (exc.value.side, exc.value.s) == ("previous", 0.1)
    with pytest.raises(InterpolationError) as exc:
        tick_interpolation(t, 0.9)
    assert (exc.value.side, exc.value.s) == ("next", 0.9)
    with pytest.raises(InterpolationError) as exc:
        _tick_maps([t.times, np.array([0.0, 1.0])], np.array([0.3, 0.6, 0.9]))
    assert (exc.value.side, exc.value.s) == ("next", 0.9)


def test_refresh_requires_common_horizon():
    with pytest.raises(ValueError):
        pairwise_refresh(sch(0.0, 0.5), SamplingScheme(np.array([0.0, 1.5]), 2.0))


# ---------------------------------------------------------------------
# Global refresh
# ---------------------------------------------------------------------
def test_global_refresh_of_equal_grids():
    g = sch(0, 0.25, 0.5, 0.75, 1.0)
    pg = pairwise_refresh(g, g)
    out = global_refresh(pg, pg)
    np.testing.assert_array_equal(out.refresh_times, g.times)


def test_global_refresh_hand_case():
    g1 = pairwise_refresh(sch(0, 0.5, 1.0), sch(0, 0.5, 1.0))
    g2 = pairwise_refresh(sch(0, 0.4, 1.0), sch(0, 0.4, 1.0))
    out = global_refresh(g1, g2)
    np.testing.assert_allclose(out.refresh_times, [0.0, 0.5, 1.0])


def test_global_refresh_refinement_collapses_to_coarser():
    fine = sch(*np.linspace(0, 1, 21))
    coarse = sch(*np.linspace(0, 1, 6))
    g1 = pairwise_refresh(fine, fine)
    g2 = pairwise_refresh(coarse, coarse)
    out = global_refresh(g1, g2)
    np.testing.assert_allclose(out.refresh_times, coarse.times)
