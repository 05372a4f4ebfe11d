"""CSV ingestion, daily aggregation, seasonal splitting, season-pair tests."""

import numpy as np
import pytest

from tailtest import CopulaModel, DomainError, FormatError, InsufficientDataError, TestConfig
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


class TestRainSeriesType:
    def test_strictly_increasing(self):
        ts = np.array(["2006-01-01T00:00", "2006-01-01T00:00"], dtype="datetime64[m]")
        with pytest.raises(FormatError):
            RainSeries(ts, np.zeros(2), np.zeros(2, dtype=bool))

    def test_unmasked_negative_rejected(self):
        ts = np.array(["2006-01-01T00:00", "2006-01-01T00:06"], dtype="datetime64[m]")
        with pytest.raises(FormatError):
            RainSeries(ts, np.array([-1.0, 0.0]), np.zeros(2, dtype=bool))


class TestBuildPairs:
    def test_constant_depth_day(self, tmp_path):
        # 1 mm per slot: 6-minute max 1, hourly sum 10 everywhere.
        rows = full_day_rows("2006-01-01", lambda slot: 1.0)
        series = load_csv(write_csv(tmp_path / "c.csv", rows))
        pairs = build_pairs(series, "DJF")
        assert pairs.n == 1
        assert pairs.data[0] == pytest.approx([1.0, 10.0])

    def test_single_wet_slot_day(self, tmp_path):
        rows = full_day_rows("2006-01-01", lambda slot: 5.0 if slot == 37 else 0.0)
        series = load_csv(write_csv(tmp_path / "s.csv", rows))
        pairs = build_pairs(series, "DJF")
        assert pairs.data[0] == pytest.approx([5.0, 5.0])

    def test_incomplete_day_dropped(self, tmp_path):
        rows = full_day_rows("2006-01-01", lambda slot: 1.0)[:-1]
        rows += full_day_rows("2006-01-02", lambda slot: 1.0)
        series = load_csv(write_csv(tmp_path / "i.csv", rows))
        pairs = build_pairs(series, "DJF")
        assert pairs.n == 1
        assert str(pairs.dates[0]) == "2006-01-02"

    def test_masked_slot_drops_day(self, tmp_path):
        rows = full_day_rows("2006-01-01", lambda slot: 1.0)
        rows[13] = rows[13].rsplit(",", 1)[0] + ","
        series = load_csv(write_csv(tmp_path / "mask.csv", rows))
        with pytest.raises(InsufficientDataError):
            build_pairs(series, "DJF")

    def test_dry_day_dropped(self, tmp_path):
        rows = full_day_rows("2006-01-01", lambda slot: 0.0)
        rows += full_day_rows("2006-01-02", lambda slot: 0.5 if slot < 3 else 0.0)
        series = load_csv(write_csv(tmp_path / "dry.csv", rows))
        pairs = build_pairs(series, "DJF")
        assert pairs.n == 1
        pairs_kept = build_pairs(series, "DJF", drop_dry_days=False)
        assert pairs_kept.n == 2

    def test_djf_spans_year_boundary(self):
        # Meteorological convention: December joins the following Jan/Feb.
        assert season_of_month(12) == "DJF"
        assert season_of_month(1) == "DJF"
        assert season_of_month(2) == "DJF"
        series = make_rain_series({"DJF": (95, CopulaModel("logistic", 0.5))}, seed=3)
        pairs = build_pairs(series, "DJF")
        # hand-built calendar oracle for 2006-2007: DJF days are Jan 1 - Feb 28
        # 2006 (59), Dec 1-31 2006 (31), then Jan 2007 onward.
        dates = pairs.dates.astype("datetime64[D]").astype(str)
        assert dates[0] == "2006-01-01"
        assert dates[58] == "2006-02-28"
        assert dates[59] == "2006-12-01"
        assert dates[90] == "2007-01-01"
        months = pairs.dates.astype("datetime64[M]").astype(int) % 12 + 1
        assert set(months) <= {12, 1, 2}

    def test_unknown_season(self, tmp_path):
        rows = full_day_rows("2006-01-01", lambda slot: 1.0)
        series = load_csv(write_csv(tmp_path / "u.csv", rows))
        with pytest.raises(DomainError):
            build_pairs(series, "WINTER")

    def test_hourly_conservation_and_bounds(self):
        series = make_rain_series({"JJA": (40, CopulaModel("logistic", 0.6))}, seed=4)
        pairs = build_pairs(series, "JJA")
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

    def test_filter_order_independence(self, tmp_path):
        # Removing a dry day's rows entirely equals dropping it by policy.
        wet = full_day_rows("2006-01-02", lambda slot: 2.0 if slot == 0 else 0.0)
        dry = full_day_rows("2006-01-01", lambda slot: 0.0)
        with_dry = load_csv(write_csv(tmp_path / "wd.csv", dry + wet))
        without_dry = load_csv(write_csv(tmp_path / "nd.csv", wet))
        a = build_pairs(with_dry, "DJF")
        b = build_pairs(without_dry, "DJF")
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.dates, b.dates)


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
        report = outcomes[("DJF", "MAM")].report
        assert report.warnings == [str(caught[0].message)]
        assert report.to_dict()["warnings"] == report.warnings

    def test_seasons_returned_with_outcomes(self, two_season_series):
        config = TestConfig(k_exceedances=60, risk="euclidean", num_cells=4,
                            margins="empirical", bootstrap_replicates=100, seed=4)
        outcomes = seasonal_tests(two_season_series, config)
        assert list(outcomes.seasons) == list(SEASONS)
        assert np.array_equal(outcomes.seasons["DJF"].data,
                              build_pairs(two_season_series, "DJF").data)
        with pytest.raises(InsufficientDataError) as missing:
            build_pairs(two_season_series, "JJA")
        assert outcomes.seasons["JJA"] == str(missing.value)
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

    def test_requires_empirical_margins(self, two_season_series):
        config = TestConfig(k_exceedances=50, risk="euclidean", num_cells=4,
                            margins="known")
        with pytest.raises(DomainError):
            seasonal_tests(two_season_series, config)
