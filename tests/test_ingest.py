"""CSV ingestion, daily aggregation, seasonal splitting, season-pair tests."""

import csv
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailtest import (ConfigError, CopulaModel, DomainError, FormatError, InsufficientDataError,
                      TestConfig)
from tailtest import RngStream, Sample, inference, ingest, margins, run_test
from tailtest.ingest import (SEASONS, RainSeries, SLOTS_PER_DAY, build_pairs, load_csv,
                             season_of_month, seasonal_tests)
from .conftest import make_rain_series


def write_csv(path, rows, header="timestamp,depth"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return str(path)


def full_day_rows(date: str, depth_fn):
    rows = []
    for slot in range(SLOTS_PER_DAY):
        hour, minute = divmod(slot * 6, 60)
        rows.append(f"{date} {hour:02d}:{minute:02d}:00,{depth_fn(slot)}")
    return rows


class TestLoadCsv:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(FormatError):
            load_csv(str(p))

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "h.csv", [])
        with pytest.raises(FormatError):
            load_csv(p)

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,mm\n2006-01-01 00:00:00,0.2\n")
        with pytest.raises(FormatError):
            load_csv(p.as_posix())

    def test_well_formed_rows(self, tmp_path):
        rows = [f"2006-01-01 00:{m:02d}:00,{m / 10.0}" for m in range(0, 60, 6)]
        series = load_csv(write_csv(tmp_path / "ok.csv", rows))
        assert series.n == 10
        assert series.n_malformed == 0
        assert not series.missing.any()

    def test_negative_depth_masked_and_counted(self, tmp_path):
        rows = ["2006-01-01 00:00:00,1.0", "2006-01-01 00:06:00,-0.5",
                "2006-01-01 00:12:00,0.0"]
        series = load_csv(write_csv(tmp_path / "neg.csv", rows))
        assert series.n == 3
        assert series.missing.tolist() == [False, True, False]
        assert series.n_masked == 1

    def test_missing_token(self, tmp_path):
        rows = ["2006-01-01 00:00:00,1.0", "2006-01-01 00:06:00,NA"]
        series = load_csv(write_csv(tmp_path / "na.csv", rows), missing_token="NA")
        assert series.missing.tolist() == [False, True]

    def test_malformed_rows_counted(self, tmp_path):
        rows = ["2006-01-01 00:00:00,1.0", "not-a-date,2.0",
                "2006-01-01 00:07:00,1.0",  # off the 6-minute grid
                "2006-01-01 00:12:00,abc",
                "2006-01-01 00:18:00,0.3", "2006-01-01 00:24:00,0.1",
                "2006-01-01 00:30:00,0.2"]
        series = load_csv(write_csv(tmp_path / "m.csv", rows))
        assert series.n == 4
        assert series.n_malformed == 3

    def test_majority_malformed_rejected(self, tmp_path):
        rows = ["junk,1.0", "more junk,2.0", "2006-01-01 00:00:00,1.0"]
        with pytest.raises(FormatError):
            load_csv(write_csv(tmp_path / "junk.csv", rows))

    def test_custom_column_names(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("ts,mm\n2006-01-01T00:00:00,0.4\n")
        series = load_csv(str(p), timestamp_col="ts", depth_col="mm")
        assert series.depths[0] == pytest.approx(0.4)

    def test_duplicate_timestamps_rejected(self, tmp_path):
        rows = ["2006-01-01 00:00:00,1.0", "2006-01-01 00:00:00,2.0"]
        with pytest.raises(FormatError):
            load_csv(write_csv(tmp_path / "dup.csv", rows))

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00+01:00", "9999-12-31T23:54-01:00"])
    def test_offset_leaving_utc_year_range_is_malformed(self, tmp_path, stamp):
        # In UTC these instants fall in year 0 and year 10000.
        rows = ["2006-01-01 00:00:00,1.0", f"{stamp},2.0", "2006-01-01 00:06:00,0.5"]
        series = load_csv(write_csv(tmp_path / "far.csv", rows))
        assert series.n == 2
        assert series.n_malformed == 1


class TestRainSeriesType:
    def test_strictly_increasing(self):
        ts = np.array(["2006-01-01T00:00", "2006-01-01T00:00"], dtype="datetime64[m]")
        with pytest.raises(FormatError):
            RainSeries(ts, np.zeros(2), np.zeros(2, dtype=bool))

    def test_unmasked_negative_rejected(self):
        ts = np.array(["2006-01-01T00:00", "2006-01-01T00:06"], dtype="datetime64[m]")
        with pytest.raises(FormatError):
            RainSeries(ts, np.array([-1.0, 0.0]), np.zeros(2, dtype=bool))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_unmasked_non_finite_rejected(self, bad):
        ts = np.array(["2006-01-01T00:00", "2006-01-01T00:06"], dtype="datetime64[m]")
        with pytest.raises(FormatError, match="masked"):
            RainSeries(ts, np.array([bad, 0.0]), np.zeros(2, dtype=bool))
        masked = RainSeries(ts, np.array([bad, 0.0]), np.array([True, False]))
        assert masked.missing.tolist() == [True, False]


class TestBuildPairs:
    def test_constant_depth_day(self, tmp_path):
        # 1 mm per slot: 6-minute max 1, hourly sum 10 everywhere.
        rows = full_day_rows("2006-01-01", lambda slot: 1.0)
        series = load_csv(write_csv(tmp_path / "c.csv", rows))
        pairs = build_pairs(series)["DJF"]
        assert pairs.n == 1
        assert pairs.data[0] == pytest.approx([1.0, 10.0])

    def test_single_wet_slot_day(self, tmp_path):
        rows = full_day_rows("2006-01-01", lambda slot: 5.0 if slot == 37 else 0.0)
        series = load_csv(write_csv(tmp_path / "s.csv", rows))
        pairs = build_pairs(series)["DJF"]
        assert pairs.data[0] == pytest.approx([5.0, 5.0])

    def test_incomplete_day_dropped(self, tmp_path):
        rows = full_day_rows("2006-01-01", lambda slot: 1.0)[:-1]
        rows += full_day_rows("2006-01-02", lambda slot: 1.0)
        series = load_csv(write_csv(tmp_path / "i.csv", rows))
        pairs = build_pairs(series)["DJF"]
        assert pairs.n == 1
        assert str(pairs.dates[0]) == "2006-01-02"

    def test_masked_slot_drops_day(self, tmp_path):
        rows = full_day_rows("2006-01-01", lambda slot: 1.0)
        rows[13] = rows[13].rsplit(",", 1)[0] + ","
        series = load_csv(write_csv(tmp_path / "mask.csv", rows))
        assert build_pairs(series)["DJF"] == "no retained DJF days after filtering"

    def test_dry_day_dropped(self, tmp_path):
        rows = full_day_rows("2006-01-01", lambda slot: 0.0)
        rows += full_day_rows("2006-01-02", lambda slot: 0.5 if slot < 3 else 0.0)
        series = load_csv(write_csv(tmp_path / "dry.csv", rows))
        pairs = build_pairs(series)["DJF"]
        assert pairs.n == 1
        pairs_kept = build_pairs(series, drop_dry_days=False)["DJF"]
        assert pairs_kept.n == 2

    def test_djf_spans_year_boundary(self):
        # Meteorological convention: December joins the following Jan/Feb.
        assert season_of_month(12) == "DJF"
        assert season_of_month(1) == "DJF"
        assert season_of_month(2) == "DJF"
        assert [season_of_month(m) for m in range(1, 13)] == SEASON_OF_MONTH[1:].tolist()
        for month in (0, 13):
            with pytest.raises(DomainError):
                season_of_month(month)
        series = make_rain_series({"DJF": (95, CopulaModel("logistic", 0.5))}, seed=3)
        pairs = build_pairs(series)["DJF"]
        # hand-built calendar oracle for 2006-2007: DJF days are Jan 1 - Feb 28
        # 2006 (59), Dec 1-31 2006 (31), then Jan 2007 onward.
        dates = pairs.dates.astype("datetime64[D]").astype(str)
        assert dates[0] == "2006-01-01"
        assert dates[58] == "2006-02-28"
        assert dates[59] == "2006-12-01"
        assert dates[90] == "2007-01-01"
        months = pairs.dates.astype("datetime64[M]").astype(int) % 12 + 1
        assert set(months) <= {12, 1, 2}

    def test_hourly_conservation_and_bounds(self):
        series = make_rain_series({"JJA": (40, CopulaModel("logistic", 0.6))}, seed=4)
        pairs = build_pairs(series)["JJA"]
        # bounds: max6 <= maxH <= 10 * max6 for every retained day
        assert np.all(pairs.data[:, 0] <= pairs.data[:, 1] + 1e-12)
        assert np.all(pairs.data[:, 1] <= 10.0 * pairs.data[:, 0] + 1e-12)
        # conservation on one raw day: sum of hourly sums equals sum of slots
        day_mask = series.timestamps.astype("datetime64[D]") == pairs.dates[0]
        day_depths = series.depths[day_mask]
        hours = ((series.timestamps[day_mask]
                  - pairs.dates[0].astype("datetime64[m]")).astype(int) // 60)
        hourly = np.bincount(hours, weights=day_depths, minlength=24)
        assert hourly.sum() == pytest.approx(day_depths.sum(), abs=1e-12)

    def test_keep_incomplete_days_uses_unmasked_slots_only(self):
        # Day 1 masks slot 13, which holds its largest depth; day 2 lacks
        # slots 100-129. Both are kept, with maxima over their unmasked slots.
        day1 = np.full(SLOTS_PER_DAY, 1.0)
        day1[13] = 9.0
        day2 = np.where(np.arange(SLOTS_PER_DAY) < 10, 2.0, 0.5)
        present = np.r_[0:100, 130:SLOTS_PER_DAY]
        slots = np.r_[np.arange(SLOTS_PER_DAY), SLOTS_PER_DAY + present]
        ts = np.datetime64("2006-01-01T00:00") + (6 * slots).astype("timedelta64[m]")
        missing = slots == 13
        series = RainSeries(ts, np.r_[day1, day2[present]], missing)
        assert build_pairs(series)["DJF"] == "no retained DJF days after filtering"
        pairs = build_pairs(series, drop_incomplete_days=False)["DJF"]
        assert pairs.dates.astype(str).tolist() == ["2006-01-01", "2006-01-02"]
        assert pairs.data.tolist() == [[1.0, 10.0], [2.0, 20.0]]

    def test_filter_order_independence(self, tmp_path):
        # Removing a dry day's rows entirely equals dropping it by policy.
        wet = full_day_rows("2006-01-02", lambda slot: 2.0 if slot == 0 else 0.0)
        dry = full_day_rows("2006-01-01", lambda slot: 0.0)
        with_dry = load_csv(write_csv(tmp_path / "wd.csv", dry + wet))
        without_dry = load_csv(write_csv(tmp_path / "nd.csv", wet))
        a = build_pairs(with_dry)["DJF"]
        b = build_pairs(without_dry)["DJF"]
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.dates, b.dates)

    def test_every_slot_masked(self):
        # 500 slots span three days; reduceat has no day runs to start from.
        ts = np.datetime64("2006-01-01T00:00") + (6 * np.arange(500)).astype("timedelta64[m]")
        series = RainSeries(ts, np.full(ts.size, np.nan), np.ones(ts.size, dtype=bool))
        for flags in ((True, True), (False, False)):
            assert build_pairs(series, *flags) == {
                season: f"no usable {season} observations in the series" for season in SEASONS}

    def test_one_season_series(self):
        series = make_rain_series({"SON": (30, CopulaModel("logistic", 0.5))}, seed=5)
        by_season = build_pairs(series)
        assert list(by_season) == list(SEASONS)
        assert by_season["SON"].season == "SON"
        assert by_season["SON"].n == 30
        for season in ("DJF", "MAM", "JJA"):
            assert by_season[season] == f"no usable {season} observations in the series"

    def test_season_of_dry_days_only(self, tmp_path):
        rows = full_day_rows("2006-01-01", lambda slot: 0.0)
        rows += full_day_rows("2006-03-01", lambda slot: 0.5 if slot < 3 else 0.0)
        series = load_csv(write_csv(tmp_path / "dry.csv", rows))
        by_season = build_pairs(series)
        assert by_season["DJF"] == "no retained DJF days after filtering"
        assert by_season["MAM"].data.tolist() == [[0.5, 1.5]]
        assert build_pairs(series, drop_dry_days=False)["DJF"].data.tolist() == [[0.0, 0.0]]


SEASON_OF_MONTH = np.array(["", "DJF", "DJF", "MAM", "MAM", "MAM", "JJA", "JJA", "JJA",
                            "SON", "SON", "SON", "DJF"])


def reference_build_pairs(series, season, drop_incomplete_days=True, drop_dry_days=True):
    """One season of ``build_pairs`` as a loop over days: the reference its
    array pass must match bit for bit."""
    ts = series.timestamps
    months = ts.astype("datetime64[M]").astype(int) % 12 + 1
    in_season = SEASON_OF_MONTH[months] == season
    usable = in_season & ~series.missing
    if not np.any(usable):
        raise InsufficientDataError(f"no usable {season} observations in the series")

    days = ts.astype("datetime64[D]")
    minutes_of_day = (ts - days).astype("timedelta64[m]").astype(int)
    hour_of_day = minutes_of_day // 60

    season_days = days[usable]
    unique_days, first_index, counts = np.unique(season_days, return_index=True,
                                                 return_counts=True)
    depths = series.depths[usable]
    hours = hour_of_day[usable]

    dates, rows = [], []
    for day, start, count in zip(unique_days, first_index, counts):
        if drop_incomplete_days and count != SLOTS_PER_DAY:
            continue
        block = depths[start:start + count]
        block_hours = hours[start:start + count]
        max6 = float(block.max())
        hourly = np.bincount(block_hours, weights=block, minlength=24)
        max_hourly = float(hourly.max())
        if drop_dry_days and max6 == 0.0 and max_hourly == 0.0:
            continue
        dates.append(day)
        rows.append((max6, max_hourly))
    if not rows:
        raise InsufficientDataError(f"no retained {season} days after filtering")
    return ingest.SeasonalPairs(season, np.array(dates, dtype="datetime64[D]"),
                                np.array(rows, dtype=np.float64))


# Starts next to season and year boundaries, two of them before 1970.
FIRST_DAYS = ["0001-02-27", "1969-11-29", "1969-12-30", "2005-11-30", "2006-02-27",
              "2006-05-31"]


@st.composite
def rain_series(draw):
    """Up to eight days after a start in FIRST_DAYS, each complete or with
    missing slots, some slots masked, depths drawn from 0.0, -0.0, 0.1 mm
    steps and unrounded values."""
    day = np.datetime64(draw(st.sampled_from(FIRST_DAYS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    slots, depths, missing = [], [], []
    for _ in range(draw(st.integers(1, 8))):
        present = np.arange(SLOTS_PER_DAY)
        if draw(st.booleans()):
            present = present[rng.random(SLOTS_PER_DAY) < draw(st.sampled_from([0.02, 0.5, 0.99]))]
        kind = rng.choice(4, present.size,
                          p=draw(st.sampled_from([(1, 0, 0, 0), (.5, .5, 0, 0),
                                                  (.4, .3, .3, 0), (.3, .2, .3, .2)])))
        depth = np.choose(kind, [0.0, -0.0, rng.integers(1, 40, present.size) / 10,
                                 rng.random(present.size) * 30])
        masked = rng.random(present.size) < draw(st.sampled_from([0.0, 0.01, 0.3, 1.0]))
        slots.append(day.astype("datetime64[m]") + (6 * present).astype("timedelta64[m]"))
        depths.append(np.where(masked, np.nan, depth))
        missing.append(masked)
        day += np.timedelta64(draw(st.sampled_from([1, 1, 2, 28, 31])), "D")
    ts = np.concatenate(slots)
    assume(ts.size > 0)
    return RainSeries(ts, np.concatenate(depths), np.concatenate(missing))


def pairs_outcome(pairs):
    if isinstance(pairs, str):
        return pairs
    return (pairs.season, pairs.dates.dtype, pairs.dates.tolist(), pairs.data.dtype,
            pairs.data.shape, pairs.data.tobytes())


def reference_outcome(series, season, drop_incomplete, drop_dry):
    try:
        return pairs_outcome(reference_build_pairs(series, season, drop_incomplete, drop_dry))
    except InsufficientDataError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(rain_series(), st.booleans(), st.booleans())
def test_build_pairs_matches_per_day_loop(series, drop_incomplete, drop_dry):
    by_season = build_pairs(series, drop_incomplete, drop_dry)
    assert list(by_season) == list(SEASONS)
    for season in SEASONS:
        assert (pairs_outcome(by_season[season])
                == reference_outcome(series, season, drop_incomplete, drop_dry))


class TestSeasonalTests:
    def test_identical_seasons_do_not_reject(self):
        # Same draws feed both seasons, so the pair tables coincide exactly.
        model = CopulaModel("logistic", 0.5)
        base = make_rain_series({"DJF": (450, model)}, seed=11)
        other = make_rain_series({"MAM": (450, model)}, seed=11)
        ts = np.concatenate([base.timestamps, other.timestamps])
        order = np.argsort(ts, kind="stable")
        series = RainSeries(ts[order],
                            np.concatenate([base.depths, other.depths])[order],
                            np.zeros(ts.size, dtype=bool))
        config = TestConfig(k_exceedances=100, risk="euclidean", num_cells=4,
                            margins="empirical", bootstrap_replicates=100, seed=1)
        outcomes = seasonal_tests(series, config)
        result = outcomes[("DJF", "MAM")]
        assert result.report is not None
        assert result.report.statistic == 0.0
        assert not result.report.reject

    def test_distinct_dependence_rejected(self, two_season_series):
        config = TestConfig(k_exceedances=120, risk="euclidean", num_cells=4,
                            margins="empirical", bootstrap_replicates=250, seed=2)
        outcomes = seasonal_tests(two_season_series, config)
        result = outcomes[("DJF", "MAM")]
        assert result.report is not None
        assert result.report.reject
        # seasons without data report errors but do not block the rest
        assert outcomes[("DJF", "JJA")].error is not None
        assert outcomes[("JJA", "SON")].error is not None

    def test_k_capped_with_warning(self):
        # Larger X season: capping succeeds and the test still runs.
        series = make_rain_series({
            "DJF": (420, CopulaModel("logistic", 0.4)),
            "MAM": (90, CopulaModel("logistic", 0.4)),
        }, seed=12)
        config = TestConfig(k_exceedances=150, risk="euclidean", num_cells=4,
                            margins="empirical", bootstrap_replicates=100, seed=3)
        with pytest.warns(UserWarning, match="capping"):
            outcomes = seasonal_tests(series, config)
        result = outcomes[("DJF", "MAM")]
        assert result.k_used == 89
        assert result.report is not None

    def test_k_cap_recorded_in_report(self):
        series = make_rain_series({
            "DJF": (420, CopulaModel("logistic", 0.4)),
            "MAM": (90, CopulaModel("logistic", 0.4)),
        }, seed=12)
        config = TestConfig(k_exceedances=150, risk="euclidean", num_cells=4,
                            margins="empirical", bootstrap_replicates=100, seed=3)
        with pytest.warns(UserWarning, match="capping") as caught:
            outcomes = seasonal_tests(series, config)
        outcome = outcomes[("DJF", "MAM")]
        # The pair's own warnings, whatever its p-value, then the cap note.
        pairs = build_pairs(series)
        alone = run_test(Sample(pairs["DJF"].data), Sample(pairs["MAM"].data),
                         replace(config, k_exceedances=outcome.k_used))
        assert outcome.report.warnings == alone.warnings + [str(caught[0].message)]
        assert outcome.report.to_dict()["warnings"] == outcome.report.warnings

    def test_seasons_returned_with_outcomes(self, two_season_series):
        config = TestConfig(k_exceedances=60, risk="euclidean", num_cells=4,
                            margins="empirical", bootstrap_replicates=100, seed=4)
        outcomes = seasonal_tests(two_season_series, config)
        assert list(outcomes.seasons) == list(SEASONS)
        assert np.array_equal(outcomes.seasons["DJF"].data,
                              build_pairs(two_season_series)["DJF"].data)
        assert outcomes.seasons["JJA"] == "no usable JJA observations in the series"
        # No k cap, so the only warning is the one for a bootstrap p-value of 0.
        report = outcomes[("DJF", "MAM")].report
        assert report.p_value == 0.0
        assert report.warnings == ["no bootstrap replicate exceeded the statistic: p < 1/100"]

    def test_k_cap_can_break_bootstrap_floor(self):
        # Small X season: the capped k still violates n >= 4k for the
        # bootstrap source, reported per pair instead of raising.
        series = make_rain_series({
            "DJF": (90, CopulaModel("logistic", 0.4)),
            "MAM": (420, CopulaModel("logistic", 0.4)),
        }, seed=13)
        config = TestConfig(k_exceedances=150, risk="euclidean", num_cells=4,
                            margins="empirical", bootstrap_replicates=100, seed=3)
        with pytest.warns(UserWarning, match="capping"):
            outcomes = seasonal_tests(series, config)
        result = outcomes[("DJF", "MAM")]
        assert result.k_used == 89
        assert result.error is not None

    @pytest.mark.parametrize("source, bootstraps", [("x", 3), ("symmetric", 4)])
    def test_each_season_bootstrapped_once(self, monkeypatch, source, bootstraps):
        # Six pairs, but only three distinct x seasons and four distinct
        # seasons, all of 200 days: one lockstep call draws B permutations
        # for all of them.
        series = make_rain_series({season: (200, CopulaModel("logistic", 0.4 + 0.1 * i))
                                   for i, season in enumerate(SEASONS)}, seed=14)
        config = TestConfig(k_exceedances=40, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, bootstrap_source=source, seed=5)
        calls = count_bootstraps(monkeypatch)
        lockstep, rows = count_lockstep_calls(monkeypatch)
        outcomes = seasonal_tests(series, config)
        assert len(calls) == bootstraps
        assert sorted(set(calls)) == sorted(calls)
        assert lockstep == [(200,) * bootstraps]
        assert rows == [100]
        assert_pairs_match_uncached(outcomes, config)

    @pytest.mark.parametrize("source, sizes", [
        ("x", [(360, 360), (353,)]), ("symmetric", [(360, 360), (353, 353)])])
    def test_seasons_of_two_sizes_make_one_call_per_size(self, monkeypatch, source, sizes):
        series = make_rain_series({"DJF": (360, CopulaModel("logistic", 0.4)),
                                   "MAM": (360, CopulaModel("logistic", 0.5)),
                                   "JJA": (353, CopulaModel("logistic", 0.6)),
                                   "SON": (353, CopulaModel("logistic", 0.7))}, seed=18)
        config = TestConfig(k_exceedances=40, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, bootstrap_source=source, seed=9)
        calls, rows = count_lockstep_calls(monkeypatch)
        outcomes = seasonal_tests(series, config)
        assert sorted(calls) == sorted(sizes)
        assert rows == [100] * len(sizes)
        assert_pairs_match_uncached(outcomes, config)

    @pytest.mark.parametrize("source", ["x", "symmetric"])
    def test_each_season_ranked_once(self, source):
        # Six pairs over four seasons: each season is standardized once, not
        # once per pair it takes part in.
        series = make_rain_series({season: (200, CopulaModel("logistic", 0.4 + 0.1 * i))
                                   for i, season in enumerate(SEASONS)}, seed=14)
        config = TestConfig(k_exceedances=40, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, bootstrap_source=source, seed=5)
        with mock.patch.object(margins, "_rank_transform",
                               wraps=margins._rank_transform) as ranks:
            outcomes = seasonal_tests(series, config)
        assert ranks.call_count == 4
        assert list(outcomes) == [(sx, sy) for i, sx in enumerate(SEASONS)
                                  for sy in SEASONS[i + 1:]]
        assert_pairs_match_uncached(outcomes, config)

    @pytest.mark.parametrize("source", ["x", "symmetric"])
    def test_each_season_counted_once(self, source):
        # Six pairs over four seasons of one capped k: each season's cells
        # are counted once, not once per pair it takes part in.
        series = make_rain_series({season: (200, CopulaModel("logistic", 0.4 + 0.1 * i))
                                   for i, season in enumerate(SEASONS)}, seed=14)
        config = TestConfig(k_exceedances=40, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, bootstrap_source=source, seed=5)
        with mock.patch.object(inference, "count_cells",
                               wraps=inference.count_cells) as counts:
            outcomes = seasonal_tests(series, config)
        assert counts.call_count == 4
        assert len({id(call.args[0]) for call in counts.call_args_list}) == 4
        assert_pairs_match_uncached(outcomes, config)

    def test_k_caps_that_differ_between_pairs(self, monkeypatch):
        # MAM caps DJF-MAM at k=99; the other DJF pairs keep k=100, so DJF is
        # bootstrapped once per k. MAM as x fails the n >= 4k floor.
        series = make_rain_series({"DJF": (420, CopulaModel("logistic", 0.4)),
                                   "MAM": (100, CopulaModel("logistic", 0.5)),
                                   "JJA": (420, CopulaModel("logistic", 0.6)),
                                   "SON": (420, CopulaModel("logistic", 0.7))}, seed=15)
        config = TestConfig(k_exceedances=100, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, seed=6)
        calls = count_bootstraps(monkeypatch)
        with pytest.warns(UserWarning, match="capping"):
            outcomes = seasonal_tests(series, config)
        assert [outcomes[pair].k_used for pair in (("DJF", "MAM"), ("DJF", "JJA"))] == [99, 100]
        assert outcomes[("MAM", "JJA")].error is not None
        assert len(calls) == 3
        assert_pairs_match_uncached(outcomes, config)

    def test_one_day_season_fails_only_its_pairs(self):
        # A one-day MAM caps its pairs' k at 0, which no test config accepts.
        series = make_rain_series({"DJF": (59, CopulaModel("logistic", 0.4)),
                                   "MAM": (1, CopulaModel("logistic", 0.5)),
                                   "JJA": (90, CopulaModel("logistic", 0.6))}, seed=16)
        config = TestConfig(k_exceedances=12, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, seed=7)
        with pytest.warns(UserWarning, match="capping at 0"):
            outcomes = seasonal_tests(series, config)
        for pair in (("DJF", "MAM"), ("MAM", "JJA"), ("MAM", "SON")):
            assert outcomes[pair].report is None
            assert outcomes[pair].error
        assert "k_exceedances must be >= 1, got 0" in outcomes[("DJF", "MAM")].error
        assert outcomes[("DJF", "JJA")].report is not None
        assert outcomes[("DJF", "JJA")].error is None

    def test_overflowing_season_fails_only_its_pairs(self):
        # Finite depths whose hourly sum overflows give JJA a non-finite day.
        base = make_rain_series({season: (200, CopulaModel("logistic", 0.5))
                                 for season in SEASONS}, seed=4)
        depths = base.depths.copy()
        months = base.timestamps.astype("datetime64[M]").astype(int) % 12 + 1
        depths[np.flatnonzero(months == 7)[10:20]] = 1e308
        series = RainSeries(base.timestamps, depths, base.missing)
        config = TestConfig(k_exceedances=40, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, seed=2)
        outcomes = seasonal_tests(series, config)
        failed = [pair for pair, result in outcomes.items() if result.report is None]
        assert failed == [("DJF", "JJA"), ("MAM", "JJA"), ("JJA", "SON")]
        assert all("sample entries must be finite" in outcomes[pair].error for pair in failed)

    def test_requires_empirical_margins(self, two_season_series):
        config = TestConfig(k_exceedances=50, risk="euclidean", num_cells=4,
                            margins="known")
        with pytest.raises(DomainError):
            seasonal_tests(two_season_series, config)

    @pytest.mark.parametrize("risk, num_cells, message", [
        ("max", 4, "implies 3 cells, but num_cells=4"),
        ("euclidean", None, "angular partitions need an explicit num_cells"),
    ])
    def test_unbuildable_partition_raises_once(self, two_season_series, risk, num_cells, message):
        # One error for the configuration, before any season is built, not one per pair.
        config = TestConfig(k_exceedances=50, risk=risk, num_cells=num_cells,
                            bootstrap_replicates=100)
        with mock.patch.object(ingest, "build_pairs", side_effect=AssertionError("built")):
            with pytest.raises(ConfigError, match=message):
                seasonal_tests(two_season_series, config)


def count_bootstraps(monkeypatch):
    """Record the (source bytes, k_n targets) of every source that
    ``bootstrap_null`` bootstraps, alone or in lockstep with others."""
    calls = []
    real = inference.bootstrap_null

    def counting(source, targets, *args, **kwargs):
        sources = (source,) if isinstance(source, Sample) else source
        calls.extend((src.data.tobytes(), tuple(k for _, k in targets)) for src in sources)
        return real(source, targets, *args, **kwargs)

    monkeypatch.setattr(inference, "bootstrap_null", counting)
    return calls


def count_lockstep_calls(monkeypatch):
    """Record the source sizes of each ``bootstrap_null`` call, and the
    permutation rows (``RngStream.jumped_permutations``) drawn in each."""
    calls, rows = [], []
    real_bootstrap, real_permutations = inference.bootstrap_null, RngStream.jumped_permutations

    def bootstrap(source, *args, **kwargs):
        sources = (source,) if isinstance(source, Sample) else source
        calls.append(tuple(src.n for src in sources))
        rows.append(0)
        return real_bootstrap(source, *args, **kwargs)

    def permutations(stream, start, stop, *args, **kwargs):
        rows[-1] += stop - start
        return real_permutations(stream, start, stop, *args, **kwargs)

    monkeypatch.setattr(inference, "bootstrap_null", bootstrap)
    monkeypatch.setattr(RngStream, "jumped_permutations", permutations)
    return calls, rows


def assert_pairs_match_uncached(outcomes, config):
    """Each pair's report equals a fresh run_test of that pair, plus its cap note."""
    ran = 0
    for (season_x, season_y), result in outcomes.items():
        if result.report is None:
            continue
        px, py = outcomes.seasons[season_x], outcomes.seasons[season_y]
        fresh = run_test(Sample(px.data), Sample(py.data),
                         replace(config, k_exceedances=result.k_used)).to_dict()
        if result.k_used != config.k_exceedances:
            fresh["warnings"].append(f"k_exceedances={config.k_exceedances} exceeds the smaller "
                                     f"season size; capping at {result.k_used}")
        assert result.report.to_dict() == fresh
        ran += 1
    assert ran >= 4


def oracle_load_csv(path, timestamp_col="timestamp", depth_col="depth", missing_token="",
                    station_id=""):
    """The per-row loader: one ``csv.DictReader`` row and one ``datetime`` at a
    time. Any depth outside [0, inf) is masked."""
    timestamps, depths, missing = [], [], []
    n_malformed = 0
    n_masked = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise FormatError(f"{path}: empty file, no header row")
            if timestamp_col not in reader.fieldnames or depth_col not in reader.fieldnames:
                raise FormatError(
                    f"{path}: header {reader.fieldnames} lacks required columns "
                    f"{timestamp_col!r} and {depth_col!r}"
                )
            for row in reader:
                ts = oracle_timestamp(row.get(timestamp_col))
                if ts is None:
                    n_malformed += 1
                    continue
                field = (row.get(depth_col) or "").strip()
                if field == missing_token:
                    value = None
                else:
                    try:
                        value = float(field)
                    except ValueError:
                        n_malformed += 1
                        continue
                    if not 0 <= value < math.inf:
                        value = None
                timestamps.append(ts)
                depths.append(np.nan if value is None else value)
                missing.append(value is None)
                n_masked += value is None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: cannot read CSV: {exc}") from exc
    n_rows = len(timestamps) + n_malformed
    if n_rows == 0:
        raise FormatError(f"{path}: no data rows")
    if n_malformed > 0.5 * n_rows:
        raise FormatError(
            f"{path}: {n_malformed} of {n_rows} rows malformed; refusing to continue"
        )
    ts = np.array(timestamps, dtype="datetime64[m]")
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    if np.any(np.diff(ts) == np.timedelta64(0, "m")):
        raise FormatError(f"{path}: duplicate timestamps")
    return RainSeries(ts, np.array(depths)[order], np.array(missing)[order],
                      station_id=station_id, n_malformed=n_malformed, n_masked=n_masked)


def oracle_timestamp(text):
    if not text:
        return None
    try:
        dt = datetime.fromisoformat(text.strip())
        if dt.tzinfo is not None:
            dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    except (ValueError, OverflowError):
        return None
    if dt.minute % 6 != 0 or dt.second != 0 or dt.microsecond != 0:
        return None
    return np.datetime64(dt, "m")


def outcome(loader, path, **kwargs):
    """Every field of the returned series, or the FormatError message."""
    try:
        series = loader(path, **kwargs)
    except FormatError as exc:
        return str(exc)
    return (series.timestamps.tolist(), series.depths.tolist(), series.missing.tolist(),
            series.n_malformed, series.n_masked, series.station_id)


def assert_matches_oracle(path, **kwargs):
    got, want = outcome(load_csv, path, **kwargs), outcome(oracle_load_csv, path, **kwargs)
    if isinstance(want, tuple):
        assert isinstance(got, tuple), got
        # NaN-equal depths: NaN != NaN, so compare their positions separately.
        assert np.array_equal(np.array(got[1]), np.array(want[1]), equal_nan=True)
        got, want = got[:1] + got[2:], want[:1] + want[2:]
    assert got == want


EPOCH = np.datetime64("2006-01-01T00:00")


def stamp(slot, sep="T"):
    return str(EPOCH + np.timedelta64(6 * slot, "m")).replace("T", sep)


def bump(text, i):
    """``text`` with its digit at ``i`` moved on by one, 9 wrapping to 0."""
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


# Slots half an hour before a midnight, a month end, a year end and the ends
# of February 1900 and 2000, from which sorted rows roll over inside a file.
ROLLOVERS = [int((np.datetime64(instant) - EPOCH) // np.timedelta64(6, "m"))
             for instant in ("2006-05-17T23:30", "2006-04-30T23:30", "2006-12-31T23:30",
                             "1900-02-28T23:30", "2000-02-28T23:30", "2000-02-29T23:30")]


# Each kind maps a 6-minute slot and a depth to (timestamp field, depth field);
# None for the depth drops it and every field after it from the row.
ROW_KINDS = {
    "clean": lambda slot, d, tok: (stamp(slot), d),
    "space": lambda slot, d, tok: (stamp(slot, " "), d),
    "off_grid": lambda slot, d, tok: (stamp(slot)[:-1] + "3", d),
    "off_grid_by_1": lambda slot, d, tok: (stamp(slot)[:-1] + "1", d),
    "month_13": lambda slot, d, tok: ("2006-13-01T00:00", d),
    "feb_29_2007": lambda slot, d, tok: ("2007-02-29T00:00", d),
    "feb_29_2008": lambda slot, d, tok: ("2008-02-29T00:%02d" % (6 * (slot % 10)), d),
    # Century years: 1900 is not a leap year, 2000 is.
    "feb_29_1900": lambda slot, d, tok: ("1900-02-29" + stamp(slot)[10:], d),
    "feb_29_2000": lambda slot, d, tok: ("2000-02-29" + stamp(slot)[10:], d),
    "first_day": lambda slot, d, tok: ("0001-01-01T00:%02d" % (6 * (slot % 10)), d),
    "last_day": lambda slot, d, tok: ("9999-12-31 23:%02d" % (6 * (slot % 10)), d),
    "april_31": lambda slot, d, tok: ("2006-04-31T12:00", d),
    "hour_24": lambda slot, d, tok: ("2006-03-01T24:00", d),
    # The date bytes of the rows around it, with a time no date makes valid.
    "hour_24_in_run": lambda slot, d, tok: (stamp(slot)[:11] + "24:00", d),
    "minute_60_in_run": lambda slot, d, tok: (stamp(slot)[:11] + "23:60", d),
    "dash_for_colon": lambda slot, d, tok: (stamp(slot).replace(":", "-"), d),
    "underscore_separator": lambda slot, d, tok: (stamp(slot, "_"), d),
    # A date one digit away from the rows around it.
    "year_digit": lambda slot, d, tok: (bump(stamp(slot), 3), d),
    "month_digit": lambda slot, d, tok: (bump(stamp(slot), 6), d),
    "day_digit": lambda slot, d, tok: (bump(stamp(slot), 9), d),
    "year_0": lambda slot, d, tok: ("0000-01-01T00:00", d),
    "seconds_00": lambda slot, d, tok: (stamp(slot) + ":00", d),
    "seconds_30": lambda slot, d, tok: (stamp(slot) + ":30", d),
    "utc_offset": lambda slot, d, tok: (stamp(slot) + "+01:00", d),
    "negative_offset": lambda slot, d, tok: (stamp(slot) + "-02:30", d),
    "offset_before_year_1": lambda slot, d, tok: ("0001-01-01T00:00+01:00", d),
    "offset_after_year_9999": lambda slot, d, tok: ("9999-12-31T23:54-01:00", d),
    "spaces": lambda slot, d, tok: (f" {stamp(slot)} ", f"  {d} "),
    "tabs": lambda slot, d, tok: (stamp(slot), f"\t{d}\t"),
    "unit_separators": lambda slot, d, tok: (stamp(slot), f"\x1f{d}\x1f"),
    "wide_digits": lambda slot, d, tok: ("\uff12" + stamp(slot)[1:], d),
    # 16 characters in 17 bytes, and 16 bytes holding a two-byte character.
    "accented_separator": lambda slot, d, tok: (stamp(slot).replace("T", "\u00e9"), d),
    "accent_in_16_bytes": lambda slot, d, tok: (stamp(slot)[:14] + "\u00e9", d),
    "not_a_date": lambda slot, d, tok: ("not-a-date-at-al", d),
    "missing_token": lambda slot, d, tok: (stamp(slot), tok),
    "negative": lambda slot, d, tok: (stamp(slot), "-0.5"),
    "nan": lambda slot, d, tok: (stamp(slot), "nan"),
    "inf": lambda slot, d, tok: (stamp(slot), "inf"),
    "minus_inf": lambda slot, d, tok: (stamp(slot), "-Infinity"),
    "unparsable": lambda slot, d, tok: (stamp(slot), "abc"),
    "short": lambda slot, d, tok: (stamp(slot), None),
    "quoted": lambda slot, d, tok: (f'"{stamp(slot)}"', f'"{d}"'),
    "quoted_comma": lambda slot, d, tok: (stamp(slot), '"1,5"'),
}
CLEAN_WEIGHT = 4  # clean rows outnumber each odd kind, so most files parse

# Depths on both sides of every rule that splits decimals of at most 15
# digits, read by array arithmetic, from longer decimals and the tokens that
# are no decimals, which go through float().
DEPTHS = ["0", "0.2", "1.5398969322723608", "1e-3", "7", "9999", "-0", "+1", ".5", "5.", "007",
          ".", "0.1.2", "0.000", "1e400", "1_0", "\u0661\u0662.\u0665", "123456789.012345",
          "0.12345678901234", "999999999999999", "1234567890123456", "1234567890.123456",
          "0.10000000000000001", "9007199254740993", "0.30000000000000004",
          "12345678901234567", "0.20000000000000001", "9999999999999999999",
          ".0000000000000000001", "123456789012345678.9", "18446744073709551617",
          "0.1000000000000000055511151231257827"]


@st.composite
def rain_files(draw):
    """A CSV text mixing every row kind, plus the loader's keyword arguments."""
    names = draw(st.sampled_from([("timestamp", "depth"), ("ts", "mm")]))
    extra = draw(st.sampled_from([None, "station", "note"]))
    columns = list(names) + ([extra] if extra else [])
    columns = draw(st.permutations(columns))
    missing_token = draw(st.sampled_from(["", "NA", "-999", "0", "9999", "1234567890123456"]))
    kinds = draw(st.lists(st.sampled_from(["clean"] * CLEAN_WEIGHT + sorted(ROW_KINDS)),
                          min_size=1, max_size=30))
    # Rows in date order, a few slots apart, share their date bytes in runs.
    start = draw(st.one_of(st.sampled_from(ROLLOVERS), st.integers(0, 10 ** 6)))
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 5, 239, 240, 2401]),
                          min_size=len(kinds), max_size=len(kinds)))
    slots = np.cumsum([start] + steps)[1:].tolist()
    if draw(st.booleans()):
        slots = draw(st.permutations(slots))
    depths = draw(st.lists(st.sampled_from(DEPTHS), min_size=len(kinds), max_size=len(kinds)))
    lines = [",".join(columns)]
    for kind, slot, depth in zip(kinds, slots, depths):
        ts_field, depth_field = ROW_KINDS[kind](slot, depth, missing_token)
        values = {names[0]: ts_field, names[1]: depth_field, extra: '"a\nb"' if slot % 2 else "x"}
        row = []
        for column in columns:
            if values[column] is None:
                break
            row.append(values[column])
        lines.append(",".join(row))
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append("")  # a blank line
    endings = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no trailing newline
    return text, {"timestamp_col": names[0], "depth_col": names[1],
                  "missing_token": missing_token}


@settings(max_examples=300, deadline=None)
@given(rain_files(), st.sampled_from([None, (1, 1), (17, 2), (40, 3)]))
def test_load_csv_matches_per_row_oracle(case, block):
    """Tiny blocks (characters of quote-free text, records of quoted text)
    put block boundaries inside the generated files."""
    text, kwargs = case
    chars, rows = block or (ingest._BLOCK_CHARS, ingest._BLOCK_ROWS)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.multiple(ingest, _BLOCK_CHARS=chars, _BLOCK_ROWS=rows):
        path = Path(tmp) / "rain.csv"
        path.write_bytes(text.encode())
        assert_matches_oracle(str(path), **kwargs)


class TestLoadCsvAgainstOracle:
    @pytest.mark.parametrize("text", [
        "",
        "\n",
        "timestamp,depth\n",
        "timestamp,depth\n\n\r\n",
        "time,mm\n2006-01-01T00:00,0.2\n",
        '"timestamp",depth\n"2006-01-01T00:00",1\n',
        "timestamp,depth\n2006-01-01T00:00,1\n2006-01-01 00:00,2\n",
        "timestamp,depth\n2006-01-01T01:00+01:00,1\n2006-01-01T00:00,2\n",
        "timestamp,depth\njunk,1\n2006-01-01T00:00,1\nmore junk,2\n",
        "timestamp,depth\n2006-01-01T00:00,1\n2006-01-01T00:06,x\n",
        # Records of 2, 3 and 1 fields, or 2, 1 (blank) and 3: as many
        # fields as two per line, in lines of unequal field counts.
        "timestamp,depth,note\n2006-01-01T00:00,1\n2006-01-01T00:06,2,x\n2006-01-01T00:12\n",
        "timestamp,depth,note\n2006-01-01T00:00,1\n\n2006-01-01T00:06,2,x\n",
        # Two fields in every record, none of them the depth.
        "timestamp,note,depth\n2006-01-01T00:00,x\n2006-01-01T00:06,y\n",
    ])
    def test_format_errors_and_edge_files(self, tmp_path, text):
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode())
        assert_matches_oracle(str(path))

    def test_duplicate_column_reads_last_occurrence(self, tmp_path):
        path = tmp_path / "dup_cols.csv"
        path.write_text("depth,timestamp,depth\n1,2006-01-01T00:00,2\n3,2006-01-01T00:06\n")
        assert_matches_oracle(str(path))
        series = load_csv(str(path))
        assert series.depths[0] == 2.0 and series.missing.tolist() == [False, True]

    def test_nul_and_long_fields(self, tmp_path):
        path = tmp_path / "nul.csv"
        path.write_text("timestamp,depth\n2006-01-01T00:00\0,1\n2006-01-01T00:06,1\n"
                        "2006-01-01T00:12,1\n")
        assert_matches_oracle(str(path))
        long_line = "2006-01-01T00:06,1," + "," * (csv.field_size_limit() + 1)
        path.write_text(f"timestamp,depth\n2006-01-01T00:00,2\n{long_line}\n")
        assert_matches_oracle(str(path))
        assert load_csv(str(path)).depths.tolist() == [2.0, 1.0]
        path.write_text("timestamp,depth\n2006-01-01T00:00," + "1" * (csv.field_size_limit() + 1)
                        + "\n")
        assert_matches_oracle(str(path))

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"timestamp,depth\n2006-01-01T00:00,\xff\n")
        with pytest.raises(FormatError, match="cannot read CSV"):
            load_csv(str(path))

    def test_utf8_whatever_the_locale(self, tmp_path):
        # Under the C locale without UTF-8 mode, open() decodes as ASCII.
        path = tmp_path / "station.csv"
        path.write_bytes("timestamp,depth,station\n2006-01-01T00:00,0.2,N\u00eemes\n"
                         "2006-01-01T00:06,,N\u00eemes\n".encode())
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        script = ("import sys; from tailtest.ingest import load_csv; "
                  "series = load_csv(sys.argv[1]); print(series.depths.tolist())")
        proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0.2, nan]"

    def test_calendar_edges_read_by_array_arithmetic(self, tmp_path):
        # Valid 16-byte stamps never reach the one-at-a-time parser; 1900-02-29 does.
        stamps = ["0001-01-01T00:00", "1900-02-28T23:54", "1900-03-01T00:00",
                  "2000-02-29T00:00", "2000-12-31T23:54", "9999-12-31 23:54"]
        rows = [f"{stamp},1" for stamp in stamps]
        with mock.patch.object(ingest, "_parse_timestamp", wraps=ingest._parse_timestamp) as slow:
            series = load_csv(write_csv(tmp_path / "edges.csv", rows))
            assert slow.call_count == 0
            load_csv(write_csv(tmp_path / "invalid.csv", rows[:2] + ["1900-02-29T00:00,1"]))
            assert slow.call_count == 1
        want = np.array([stamp.replace(" ", "T") for stamp in stamps], dtype="datetime64[m]")
        assert np.array_equal(series.timestamps, want)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_date_arithmetic_once_per_run_of_dates(self, tmp_path, shuffled):
        # Two days in date order are two runs of equal date bytes; shuffled,
        # a run starts wherever a row's date differs from the row before.
        rows = [f"2006-01-0{day}T{hour:02d}:{minute:02d},0.{minute // 6}"
                for day in (1, 2) for hour in range(24) for minute in range(0, 60, 6)]
        if shuffled:
            rows = [rows[i] for i in RngStream(3).permutation(len(rows))]
        runs = 1 + sum(a[:10] != b[:10] for a, b in zip(rows, rows[1:]))
        path = write_csv(tmp_path / "runs.csv", rows)
        with mock.patch.object(ingest, "_dates", wraps=ingest._dates) as dates:
            assert_matches_oracle(path)
        assert sum(call.args[0].shape[0] for call in dates.call_args_list) == runs
        assert (runs == 2) != shuffled

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_depths_masked(self, tmp_path, token):
        rows = ["2006-01-01T00:00,1.0", f"2006-01-01T00:06,{token}", "2006-01-01T00:12,0.0"]
        series = load_csv(write_csv(tmp_path / "nonfinite.csv", rows))
        assert series.missing.tolist() == [False, True, False]
        assert series.n_masked == 1 and series.n_malformed == 0
