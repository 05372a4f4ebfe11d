"""Rainfall series ingestion and the seasonal pair pipeline.

Input is a 6-minute depth series (240 slots per day). ``build_pairs`` forms,
in one array pass, each day's bivariate observation over its unmasked slots
(daily maximum of the 6-minute depths, daily maximum of the 24 hourly sums)
and splits the days into meteorological seasons; ``seasonal_tests`` runs the
empirical-margin divergence test on every season pair. Days with a missing or
masked slot are dropped, as are dry days (both maxima zero), since massive
ties at zero would degrade the rank standardization; both policies are flags.

``load_csv`` parses the depth series as arrays, block by block of records;
only tokens outside the common fixed-width timestamp shapes are parsed one
at a time. Its docstring states the row rules.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import chain, compress, islice
from typing import Optional

import numpy as np

from .errors import DomainError, FormatError, InsufficientDataError
from .inference import TestConfig, TestReport, run_test
from .margins import Sample

# Month m (1-12) belongs to SEASONS[m % 12 // 3].
SEASONS = ("DJF", "MAM", "JJA", "SON")

SLOTS_PER_HOUR = 10
SLOTS_PER_DAY = 24 * SLOTS_PER_HOUR


@dataclass(frozen=True)
class RainSeries:
    """6-minute depth records with a missing-data mask.

    Timestamps are UTC instants on the 6-minute grid, strictly increasing.
    Masked entries keep their timestamp but carry no usable depth; every
    unmasked depth is finite and non-negative.
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
        if not np.isfinite(depths[~missing]).all():
            raise FormatError("NaN and infinite depths must be masked as missing")
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

    The first record names the columns; blank lines are skipped, and a row
    shorter than the header reads as empty fields where it ends. A row is
    malformed, and dropped, when its timestamp does not parse, sits off the
    6-minute grid or falls outside years 1-9999 in UTC (``_parse_timestamp``),
    or when its depth is neither the missing token nor a number. It is kept
    but masked when its stripped depth equals the missing token or is a
    number outside [0, inf): negative, infinite or NaN. More than 50%
    malformed rows rejects the file, as do duplicate timestamps.

    The file is read once and parsed in blocks of records. Timestamps
    shaped exactly ``YYYY-MM-DDTHH:MM`` or ``YYYY-MM-DD HH:MM`` are decoded
    together as integer arrays, and the depths are converted in one pass;
    only the other tokens are parsed one by one.
    """
    try:
        with open(path, newline="") as fh:
            records = _records(fh.read())
        header = next(records)
        if header is None:
            raise FormatError(f"{path}: empty file, no header row")
        if timestamp_col not in header or depth_col not in header:
            raise FormatError(
                f"{path}: header {header} lacks required columns "
                f"{timestamp_col!r} and {depth_col!r}"
            )
        # A repeated column name reads its last occurrence, as csv.DictReader does.
        columns = [len(header) - 1 - header[::-1].index(name)
                   for name in (timestamp_col, depth_col)]
        blocks = [_parse_block(fields, widths, *columns, missing_token)
                  for fields, widths in records]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: cannot read CSV: {exc}") from exc
    n_malformed = sum(block[0] for block in blocks)
    n_rows = n_malformed + sum(block[1].size for block in blocks)
    if n_rows == 0:
        raise FormatError(f"{path}: no data rows")
    if n_malformed > 0.5 * n_rows:
        raise FormatError(
            f"{path}: {n_malformed} of {n_rows} rows malformed; refusing to continue"
        )
    minutes, depths, missing = (np.concatenate(part) for part in list(zip(*blocks))[1:])
    ts = minutes.view("datetime64[m]")
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    if np.any(np.diff(ts) == np.timedelta64(0, "m")):
        raise FormatError(f"{path}: duplicate timestamps")
    return RainSeries(ts, depths[order], missing[order], station_id=station_id,
                      n_malformed=n_malformed, n_masked=int(missing.sum()))


_BLOCK_CHARS = 1 << 20
_BLOCK_ROWS = 1 << 16


def _records(text: str):
    """Yield the header record (None for an empty text), then the non-blank
    records after it in blocks, each as one flat object array of fields and
    the field count of each record.

    Quote-free text is split on line endings and commas, which gives the
    records the csv module gives; one C-level split per block takes about
    40% off the time of ``load_csv`` against reading the same records with
    ``csv.reader``. Text with quotes, where a field may hold commas and line
    breaks, or with NUL characters goes through the csv module, as does a
    block holding a line longer than the csv field limit, so that such a
    file fails with the csv module's error. Blocks bound the memory that the
    per-field strings take: parsed whole, a 345,600-row file nearly doubles
    the peak memory of ``load_csv``.
    """
    if '"' in text or "\0" in text:
        reader = csv.reader(io.StringIO(text, newline=""))
        yield next(reader, None)
        while chunk := list(islice(reader, _BLOCK_ROWS)):
            yield _flatten(chunk)
        return
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    first, _, body = text.partition("\n")
    yield next(csv.reader([first])) if text else None
    body += "\n"
    while "\n\n" in body:
        body = body.replace("\n\n", "\n")
    body = body.lstrip("\n")
    start = 0
    while start < len(body):
        stop = body.find("\n", start + _BLOCK_CHARS) + 1 or len(body)
        yield _split_block(body[start:stop])
        start = stop


def _split_block(block: str):
    """Fields and field counts of newline-terminated, non-blank lines."""
    # In UTF-8 no multi-byte character holds a comma or newline byte, and a
    # line has at least as many bytes as characters.
    data = np.frombuffer(block.encode(), np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    if np.diff(ends, prepend=-1).max() > csv.field_size_limit() + 1:
        return _flatten(csv.reader(io.StringIO(block, newline="")))
    commas = np.searchsorted(np.flatnonzero(data == ord(",")), ends)
    fields = block.replace("\n", ",").split(",")
    fields.pop()
    return np.array(fields, dtype=object), np.diff(commas, prepend=0) + 1


def _flatten(rows):
    rows = [row for row in rows if row]
    return (np.array(list(chain.from_iterable(rows)), dtype=object),
            np.fromiter(map(len, rows), np.intp, len(rows)))


def _parse_block(fields: np.ndarray, widths: np.ndarray, ts_col: int, depth_col: int,
                 missing_token: str):
    """The row rules on one block of records: the number of malformed rows,
    then the minutes since the epoch, depth (NaN where masked) and missing
    flag of every kept row, in file order."""
    starts = np.cumsum(widths) - widths

    def column(j):
        tokens = np.full(widths.size, "", dtype=object)
        present = widths > j
        tokens[present] = fields[starts[present] + j]
        return tokens

    parsed, minutes = _grid_minutes(column(ts_col))
    depth_tokens = list(map(str.strip, column(depth_col)[parsed].tolist()))
    is_token = np.fromiter(map(missing_token.__eq__, depth_tokens), bool, len(depth_tokens))
    numbers = ~is_token
    values = np.full(is_token.size, np.nan)
    bad = np.zeros(is_token.size, dtype=bool)
    values[numbers], bad[numbers] = _floats(list(compress(depth_tokens, numbers)))
    kept = ~bad
    missing = (is_token | ~((values >= 0) & (values < np.inf)))[kept]
    return (widths.size - int(kept.sum()), minutes[parsed][kept],
            np.where(missing, np.nan, values[kept]), missing)


# Character positions of the digits in YYYY-MM-DDTHH:MM.
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15]


def _grid_minutes(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which timestamp tokens parse onto the 6-minute grid, and their
    minutes since the epoch (0 where they do not).

    Tokens shaped exactly ``YYYY-MM-DDTHH:MM`` or ``YYYY-MM-DD HH:MM`` with
    a valid date, hour and grid minute are read by integer arithmetic on
    their code points; numpy's own string-to-datetime cast would accept
    "NaT", "today" and partial dates. Every other token goes through
    ``_parse_timestamp``, which owns the rule.
    """
    parsed = np.zeros(tokens.size, dtype=bool)
    minutes = np.zeros(tokens.size, dtype=np.int64)
    fixed = np.flatnonzero(np.fromiter(map(len, tokens.tolist()), np.intp, tokens.size) == 16)
    # One byte per character: a non-ASCII one becomes "?", which no clean token holds.
    text = "".join(tokens[fixed].tolist()).encode("ascii", "replace")
    codes = np.frombuffer(text, np.uint8).reshape(-1, 16)
    # Below "0" the subtraction wraps round, so capping at 10 marks every non-digit.
    digits = np.minimum(codes[:, _DIGITS] - np.uint8(48), 10)
    year = digits[:, :4] @ np.array([1000, 100, 10, 1], dtype=np.int32)
    month, day, hour, minute = (digits[:, i:i + 2] @ np.array([10, 1], dtype=np.int32)
                                for i in (4, 6, 8, 10))
    month_start = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    first_day = month_start.astype("datetime64[D]").astype(np.int64)
    month_length = (month_start + 1).astype("datetime64[D]").astype(np.int64) - first_day
    clean = ((digits <= 9).all(axis=1)
             & (codes[:, 4] == ord("-")) & (codes[:, 7] == ord("-"))
             & ((codes[:, 10] == ord("T")) | (codes[:, 10] == ord(" ")))
             & (codes[:, 13] == ord(":"))
             & (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_length)
             & (hour < 24) & (minute < 60) & (minute % 6 == 0))
    parsed[fixed[clean]] = True
    minutes[fixed[clean]] = ((first_day + day - 1) * 1440 + hour * 60 + minute)[clean]
    for i in np.flatnonzero(~parsed):
        stamp = _parse_timestamp(tokens[i])
        if stamp is not None:
            parsed[i] = True
            minutes[i] = stamp.astype(np.int64)
    return parsed, minutes


def _floats(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``float`` of every token in one pass, and which tokens are not numbers
    (NaN there). Only when one fails are the tokens converted one by one."""
    bad = np.zeros(len(tokens), dtype=bool)
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens)), bad
    except ValueError:
        values = np.full(len(tokens), np.nan)
    for i, token in enumerate(tokens):
        try:
            values[i] = float(token)
        except ValueError:
            bad[i] = True
    return values, bad


def _parse_timestamp(text: Optional[str]):
    if not text:
        return None
    try:
        dt = datetime.fromisoformat(text.strip())
        if dt.tzinfo is not None:
            dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    except (ValueError, OverflowError):  # unparsable, or in UTC outside years 1-9999
        return None
    if dt.minute % 6 != 0 or dt.second != 0 or dt.microsecond != 0:
        return None
    return np.datetime64(dt, "m")


def season_of_month(month: int) -> str:
    if not 1 <= month <= 12:
        raise DomainError(f"month must lie in 1-12, got {month}")
    return SEASONS[month % 12 // 3]


def build_pairs(series: RainSeries, drop_incomplete_days: bool = True,
                drop_dry_days: bool = True) -> dict[str, SeasonalPairs | str]:
    """Daily (6-minute max, hourly-sum max) pairs of every meteorological season.

    Maps each of ``SEASONS`` to its pairs, or to the reason it has none.
    December belongs to the winter spanning into the following January and
    February. A day is retained when all 240 six-minute slots are present
    and unmasked (unless ``drop_incomplete_days`` is off, in which case the
    maxima run over whatever unmasked slots exist).

    Each day's unmasked slots are one contiguous run of the series; maxima
    and hourly sums take each run in slot order, as a per-day loop would,
    so every value is the same to the bit. They are computed once for the
    whole series, and each season keeps its own days.
    """
    present = ~series.missing
    hours = series.timestamps[present].astype(np.int64) // 60
    depths = series.depths[present]
    days = hours // 24
    starts = np.flatnonzero(np.diff(days, prepend=days[:1] - 1))
    counts = np.diff(starts, append=days.size)
    dates = days[starts]
    months = dates.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64)
    seasons = (months + 1) % 12 // 3

    # A fully masked series has no day runs: skip reduceat rather than rely on its empty case.
    max6 = np.maximum.reduceat(depths, starts) if starts.size else depths
    # Bin j of run i is 24 i + j: keyed by run, the bins stay as few as the days.
    hour_keys = hours - np.repeat(24 * (dates - np.arange(dates.size)), counts)
    max_hourly = np.bincount(hour_keys, weights=depths,
                             minlength=24 * dates.size).reshape(-1, 24).max(axis=1)
    kept = np.ones(dates.size, dtype=bool)
    if drop_incomplete_days:
        kept &= counts == SLOTS_PER_DAY
    if drop_dry_days:  # depths are non-negative, so only a dry day has max6 == 0
        kept &= max6 != 0.0
    pairs = np.column_stack((max6, max_hourly))
    by_season: dict[str, SeasonalPairs | str] = {}
    for index, season in enumerate(SEASONS):
        in_season = seasons == index
        keep = in_season & kept
        if not np.any(in_season):
            by_season[season] = f"no usable {season} observations in the series"
        elif not np.any(keep):
            by_season[season] = f"no retained {season} days after filtering"
        else:
            by_season[season] = SeasonalPairs(season, dates[keep].astype("datetime64[D]"),
                                              pairs[keep])
    return by_season


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
    The pairs share one bootstrap cache, so each season is bootstrapped once
    per exceedance count rather than once per pair.
    """
    if config.margins != "empirical":
        raise DomainError("seasonal tests use empirical margins and bootstrap calibration")
    pairs_by_season = build_pairs(series, drop_incomplete_days, drop_dry_days)
    outcomes = SeasonalOutcomes(pairs_by_season)
    nulls: dict = {}
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
                report = run_test(Sample(px.data), Sample(py.data), pair_config, nulls=nulls)
            except (DomainError, InsufficientDataError, ValueError) as exc:
                outcomes[key] = SeasonPairOutcome(season_x, season_y, px.n, py.n, k,
                                                  error=str(exc))
                continue
            report = replace(report, warnings=report.warnings + notes)
            outcomes[key] = SeasonPairOutcome(season_x, season_y, px.n, py.n, k,
                                              report=report)
    return outcomes
