"""Rainfall series ingestion and the seasonal pair pipeline.

Input is a 6-minute depth series (240 slots per day). For every complete
wet day the pipeline forms the bivariate observation (daily maximum of the
6-minute depths, daily maximum of the 24 hourly sums), splits days into
meteorological seasons, and runs the empirical-margin divergence test on
every season pair. Days with any missing slot are dropped, as are dry days
(both maxima zero), since massive ties at zero would degrade the rank
standardization; both policies are explicit flags.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from .errors import DomainError, FormatError, InsufficientDataError
from .inference import TestConfig, TestReport, run_test
from .margins import Sample

SEASONS = ("DJF", "MAM", "JJA", "SON")
_SEASON_OF_MONTH = {12: "DJF", 1: "DJF", 2: "DJF",
                    3: "MAM", 4: "MAM", 5: "MAM",
                    6: "JJA", 7: "JJA", 8: "JJA",
                    9: "SON", 10: "SON", 11: "SON"}
_SEASON_LOOKUP = np.array([""] + [_SEASON_OF_MONTH[m] for m in range(1, 13)])

SLOTS_PER_HOUR = 10
SLOTS_PER_DAY = 24 * SLOTS_PER_HOUR


@dataclass(frozen=True)
class RainSeries:
    """6-minute depth records with a missing-data mask.

    Timestamps are UTC instants on the 6-minute grid, strictly increasing.
    Masked entries keep their timestamp but carry no usable depth.
    """

    timestamps: np.ndarray  # datetime64[m]
    depths: np.ndarray
    missing: np.ndarray
    station_id: str = ""
    n_malformed: int = 0
    n_masked: int = 0

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype="datetime64[m]")
        depths = np.asarray(self.depths, dtype=np.float64)
        missing = np.asarray(self.missing, dtype=bool)
        if not (ts.shape == depths.shape == missing.shape) or ts.ndim != 1:
            raise FormatError("timestamps, depths and missing mask must be matching 1-D arrays")
        if ts.size == 0:
            raise FormatError("rain series is empty")
        if np.any(np.diff(ts) <= np.timedelta64(0, "m")):
            raise FormatError("timestamps must be strictly increasing")
        if np.any(depths[~missing] < 0):
            raise FormatError("negative depths must be masked as missing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "missing", missing)

    @property
    def n(self) -> int:
        return self.timestamps.size


@dataclass(frozen=True)
class SeasonalPairs:
    """Per retained day: (max 6-minute depth, max hourly sum)."""

    season: str
    dates: np.ndarray  # datetime64[D]
    data: np.ndarray   # (n_days, 2)

    @property
    def n(self) -> int:
        return self.data.shape[0]


def load_csv(path: str, timestamp_col: str = "timestamp", depth_col: str = "depth",
             missing_token: str = "", station_id: str = "") -> RainSeries:
    """Parse a depth series from CSV.

    Rows whose timestamp or depth cannot be parsed (or sit off the 6-minute
    grid) count as malformed and are dropped; rows carrying the missing
    token or a negative depth are kept but masked. More than 50% malformed
    rows rejects the file.
    """
    timestamps, depths, missing = [], [], []
    n_malformed = 0
    n_masked = 0
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise FormatError(f"{path}: empty file, no header row")
            if timestamp_col not in reader.fieldnames or depth_col not in reader.fieldnames:
                raise FormatError(
                    f"{path}: header {reader.fieldnames} lacks required columns "
                    f"{timestamp_col!r} and {depth_col!r}"
                )
            for row in reader:
                ts = _parse_timestamp(row.get(timestamp_col))
                if ts is None:
                    n_malformed += 1
                    continue
                field = (row.get(depth_col) or "").strip()
                if field == missing_token:
                    timestamps.append(ts)
                    depths.append(np.nan)
                    missing.append(True)
                    n_masked += 1
                    continue
                try:
                    value = float(field)
                except ValueError:
                    n_malformed += 1
                    continue
                if value < 0:
                    timestamps.append(ts)
                    depths.append(np.nan)
                    missing.append(True)
                    n_masked += 1
                    continue
                timestamps.append(ts)
                depths.append(value)
                missing.append(False)
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


def _parse_timestamp(text: Optional[str]):
    if not text:
        return None
    try:
        dt = datetime.fromisoformat(text.strip())
    except ValueError:
        return None
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    if dt.minute % 6 != 0 or dt.second != 0 or dt.microsecond != 0:
        return None
    return np.datetime64(dt, "m")


def season_of_month(month: int) -> str:
    return _SEASON_OF_MONTH[month]


def build_pairs(series: RainSeries, season: str, drop_incomplete_days: bool = True,
                drop_dry_days: bool = True) -> SeasonalPairs:
    """Daily (6-minute max, hourly-sum max) pairs for one meteorological season.

    December belongs to the winter spanning into the following January and
    February. A day is retained when all 240 six-minute slots are present
    and unmasked (unless ``drop_incomplete_days`` is off, in which case the
    maxima run over whatever slots exist).
    """
    if season not in SEASONS:
        raise DomainError(f"season must be one of {SEASONS}, got {season!r}")
    ts = series.timestamps
    months = ts.astype("datetime64[M]").astype(int) % 12 + 1
    in_season = _SEASON_LOOKUP[months] == season
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
    return SeasonalPairs(season, np.array(dates, dtype="datetime64[D]"),
                         np.array(rows, dtype=np.float64))


@dataclass(frozen=True)
class SeasonPairOutcome:
    """Result of one season-pair comparison, or the reason it did not run."""

    season_x: str
    season_y: str
    n_x: Optional[int] = None
    n_y: Optional[int] = None
    k_used: Optional[int] = None
    report: Optional[TestReport] = None
    error: Optional[str] = None


class SeasonalOutcomes(dict):
    """Season-pair outcomes keyed by ``(season_x, season_y)``; ``seasons``
    maps every season to its ``SeasonalPairs`` or to why it has none."""

    def __init__(self, seasons: dict[str, SeasonalPairs | str]):
        super().__init__()
        self.seasons = seasons


def seasonal_tests(series: RainSeries, config: TestConfig,
                   drop_incomplete_days: bool = True,
                   drop_dry_days: bool = True) -> SeasonalOutcomes:
    """Empirical-margin divergence tests between all unordered season pairs.

    Seasons are standardized independently with their own sample sizes; the
    same exceedance count is applied to both, capped at one below the
    smaller season (with a warning, which the pair's report also carries).
    Pairs lacking data report an error while the remaining pairs still run.
    """
    if config.margins != "empirical":
        raise DomainError("seasonal tests use empirical margins and bootstrap calibration")
    pairs_by_season: dict[str, SeasonalPairs | str] = {}
    for season in SEASONS:
        try:
            pairs_by_season[season] = build_pairs(series, season, drop_incomplete_days,
                                                  drop_dry_days)
        except (InsufficientDataError, FormatError) as exc:
            pairs_by_season[season] = str(exc)

    outcomes = SeasonalOutcomes(pairs_by_season)
    for i, season_x in enumerate(SEASONS):
        for season_y in SEASONS[i + 1:]:
            key = (season_x, season_y)
            px, py = pairs_by_season[season_x], pairs_by_season[season_y]
            if isinstance(px, str) or isinstance(py, str):
                msg = px if isinstance(px, str) else py
                outcomes[key] = SeasonPairOutcome(season_x, season_y, error=msg)
                continue
            k = config.k_exceedances
            cap = min(px.n, py.n) - 1
            notes = []
            if k > cap:
                note = f"k_exceedances={k} exceeds the smaller season size; capping at {cap}"
                warnings.warn(note, stacklevel=2)
                notes.append(note)
                k = cap
            pair_config = replace(config, k_exceedances=k)
            try:
                report = run_test(Sample(px.data), Sample(py.data), pair_config)
            except (DomainError, InsufficientDataError, ValueError) as exc:
                outcomes[key] = SeasonPairOutcome(season_x, season_y, px.n, py.n, k,
                                                  error=str(exc))
                continue
            report = replace(report, warnings=report.warnings + notes)
            outcomes[key] = SeasonPairOutcome(season_x, season_y, px.n, py.n, k,
                                              report=report)
    return outcomes
