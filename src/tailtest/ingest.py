"""Rainfall series ingestion and the seasonal pair pipeline.

Input is a 6-minute depth series (240 slots per day). ``build_pairs`` forms,
in one array pass, each day's bivariate observation over its unmasked slots
(daily maximum of the 6-minute depths, daily maximum of the 24 hourly sums)
and splits the days into meteorological seasons; ``seasonal_tests`` runs the
empirical-margin divergence test on every season pair, the pairs of one
exceedance count as one calibrated batch. Days with a missing or
masked slot are dropped, as are dry days (both maxima zero), since massive
ties at zero would degrade the rank standardization; both policies are flags.

``load_csv`` reads the file as UTF-8 bytes, whatever the locale, and parses
it block by block of records as byte spans. 16-byte timestamps are read as
64-bit words, each date once per run of rows that share it, and decimal
depths by array arithmetic (at most 15 digits) or one ``float`` batch per
width (longer ones); only the other tokens are decoded and parsed one at a
time, by ``datetime.fromisoformat`` and ``float``. Its docstring states the
row rules and the input properties the fast steps rely on.
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

from .errors import DomainError, FormatError, TailTestError
from .inference import TestConfig, TestReport, _check_pair, _test_batch, build_partition
from .margins import Sample, standardize

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
        present = depths[~missing]
        if np.any(present < 0):
            raise FormatError("negative depths must be masked as missing")
        if not np.isfinite(present).all():
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

    The file is read once, as UTF-8 whatever the locale, and parsed in
    blocks of records without a string per field. Timestamps of exactly 16
    bytes shaped ``YYYY-MM-DDTHH:MM`` or ``YYYY-MM-DD HH:MM`` are read as
    arrays of 64-bit words (``_grid_minutes``). Depths of digits and at
    most one point in at most 32 bytes (``0``, ``0.2``, ``.5``,
    ``1.5398969322723608``) are read undecoded, to the doubles ``float``
    gives: by integer arithmetic up to 15 digits, beyond that by ``float``
    of their bytes, one batch per width (``_plain_decimals``). Every other
    timestamp goes through ``datetime.fromisoformat``, and every other
    depth through ``str.strip`` and ``float``, one token at a time.

    Three input properties make this fast, and a file without them reads
    the same, only slower. When every record of a block has the same
    number of fields, two or more, no line is blank and each column is a
    strided slice of the field offsets, not a gather. When rows are in date
    order, a date is parsed once per run of rows that share its 10 bytes,
    and the rows need no final sort.
    """
    try:
        with open(path, "rb") as fh:
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
        blocks = [_parse_block(*block, *columns, missing_token) for block in records]
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
    if np.any(minutes[1:] < minutes[:-1]):  # rows out of date order
        order = np.argsort(minutes, kind="stable")
        minutes, depths, missing = minutes[order], depths[order], missing[order]
    ts = minutes.view("datetime64[m]")
    if np.any(np.diff(ts) == np.timedelta64(0, "m")):
        raise FormatError(f"{path}: duplicate timestamps")
    return RainSeries(ts, depths, missing, station_id=station_id,
                      n_malformed=n_malformed, n_masked=int(missing.sum()))


_BLOCK_CHARS = 1 << 20
_BLOCK_ROWS = 1 << 16


def _records(data: bytes):
    """Yield the header record (None for an empty file), then the non-blank
    records after it in blocks. A block is its fields' UTF-8 bytes, the
    start and end offset of every field in them, and the field count of
    every record, or one int when every record of the block has that many.

    Quote-free data is split on line endings and commas as bytes, which
    gives the records the csv module gives without a string per field.
    Data with quotes, where a field may hold commas and line breaks, or
    with NUL bytes goes through the csv module, as does a block holding a
    line longer than the csv field limit, so that such a file fails with
    the csv module's error. Either way the file must be UTF-8. Blocks of
    about ``_BLOCK_CHARS`` bytes (``_BLOCK_ROWS`` records from the csv
    module) bound the memory of the per-field arrays.
    """
    if b'"' in data or b"\0" in data:
        reader = csv.reader(io.StringIO(data.decode(), newline=""))
        yield next(reader, None)
        while chunk := list(islice(reader, _BLOCK_ROWS)):
            yield _join_fields(chunk)
        return
    if not data.isascii():
        data.decode()  # fails as the csv module would on a file that is not UTF-8
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    start = data.find(b"\n") + 1 or len(data)
    yield next(csv.reader([data[:start].decode()])) if data else None
    if not data.endswith(b"\n"):
        data += b"\n"
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK_CHARS) + 1 or len(data)
        yield _split_block(data[start:stop])
        start = stop


def _split_block(block: bytes):
    """The block form of the non-blank ones of newline-terminated lines."""
    # In UTF-8 no multi-byte character holds a comma or newline byte, and a
    # line has at least as many bytes as characters.
    data = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
    line_end = data[ends] == ord("\n")
    # Every line has the first line's count of fields when every that many-th
    # field, and no other, ends a line; with two fields or more, none is blank.
    fields = int(np.argmax(line_end)) + 1
    uniform = (fields > 1 and fields * np.count_nonzero(line_end) == ends.size
               and line_end[fields - 1::fields].all())
    lines = ends[fields - 1::fields] if uniform else ends[line_end]
    if np.diff(lines, prepend=-1).max() > csv.field_size_limit() + 1:
        return _join_fields(csv.reader(io.StringIO(block.decode(), newline="")))
    starts = np.r_[0, ends[:-1] + 1]
    if uniform:
        return block, starts, ends, fields
    # A blank line is one empty field that ends a line, right after a line end.
    kept = ~(line_end & (starts == ends) & np.r_[True, line_end[:-1]])
    return block, starts[kept], ends[kept], np.diff(np.flatnonzero(line_end[kept]), prepend=-1)


def _join_fields(rows):
    """The block form of csv module records, blank ones left out."""
    rows = [row for row in rows if row]
    fields = [field.encode() for field in chain.from_iterable(rows)]
    lengths = np.fromiter(map(len, fields), np.intp, len(fields))
    ends = np.cumsum(lengths)
    return (b"".join(fields), ends - lengths, ends,
            np.fromiter(map(len, rows), np.intp, len(rows)))


def _parse_block(block: bytes, starts: np.ndarray, ends: np.ndarray, widths: np.ndarray | int,
                 ts_col: int, depth_col: int, missing_token: str):
    """The row rules on one block of records: the number of malformed rows,
    then the minutes since the epoch, depth (NaN where masked) and missing
    flag of every kept row, in file order."""
    data = np.frombuffer(block, np.uint8)
    n_rows = starts.size // widths if isinstance(widths, int) else widths.size

    def column(j):
        # Field j of every record as a byte span, empty where the record ends before it.
        if isinstance(widths, int) and j < widths:
            return starts[j::widths], ends[j::widths]
        counts = np.broadcast_to(widths, n_rows)
        present = counts > j
        field = np.where(present, np.cumsum(counts) - counts + j, 0)
        return np.where(present, starts[field], 0), np.where(present, ends[field], 0)

    parsed, minutes = _grid_minutes(data, *column(ts_col))
    depth_starts, depth_ends = column(depth_col)
    values, decimal, is_token = _plain_decimals(data, depth_starts, depth_ends,
                                                missing_token.encode())
    rest = np.flatnonzero(~decimal)
    depth_tokens = [block[s:e].decode().strip()
                    for s, e in zip(depth_starts[rest].tolist(), depth_ends[rest].tolist())]
    is_token[rest] = np.fromiter(map(missing_token.__eq__, depth_tokens), bool, rest.size)
    numbers = ~is_token[rest]
    bad = np.zeros(n_rows, dtype=bool)
    values[rest[numbers]], bad[rest[numbers]] = _floats(list(compress(depth_tokens, numbers)))
    kept = parsed & ~bad
    missing = (is_token | ~((values >= 0) & (values < np.inf)))[kept]
    return (n_rows - int(kept.sum()), minutes[kept],
            np.where(missing, np.nan, values[kept]), missing)


def _gather(data: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``data`` from each start, one row each, as one
    gather of ``width``-byte items from a view of ``data`` with stride 1.
    Every span must lie within ``data``."""
    if starts.size == 0:
        return np.empty((0, width), dtype=np.uint8)
    items = np.ndarray((data.size - width + 1,), f"V{width}", data, strides=(1,))
    return items[starts].view(np.uint8).reshape(-1, width)


# Decimal tokens wider than this go through ``float`` one at a time.
_WIDEST = 32
# Exact doubles: 10**15 < 2**53.
_POWERS_OF_TEN = np.array([float(10 ** e) for e in range(16)])


def _plain_decimals(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, token: bytes
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values of the tokens, the byte spans of ``data`` from ``starts``
    to ``ends``, that are unsigned decimals of digits and at most one point
    in at most ``_WIDEST`` bytes, such as ``0``, ``0.2``, ``.5``, ``007`` or
    ``1.5398969322723608`` (NaN elsewhere); which tokens those are; and
    which of those equal ``token``.

    A decimal of at most 15 digits is m / 10**f for an integer mantissa
    m < 10**15 and f < 16 digits after the point. Both are exact doubles,
    so the one correctly rounded division, which a decimal without a point
    does not need, equals ``float`` of the token (Clinger, PLDI 1990).
    Longer decimals of one width go to ``float`` together, as one split of
    their bytes.
    """
    widths = ends - starts
    values = np.full(widths.size, np.nan)
    decimal = np.zeros(widths.size, dtype=bool)
    is_token = np.zeros(widths.size, dtype=bool)
    present = np.zeros(_WIDEST + 2, dtype=bool)
    present[np.minimum(widths, _WIDEST + 1)] = True
    for width in (np.flatnonzero(present[1:_WIDEST + 1]) + 1).tolist():
        rows = np.flatnonzero(widths == width)
        codes = _gather(data, starts[rows], width)
        # Below "0" the subtraction wraps round, so every non-digit reads above 9.
        digits = codes - np.uint8(ord("0"))
        is_point = codes == ord(".")
        points = is_point.sum(axis=1)
        ok = ((digits <= 9) | is_point).all(axis=1) & (points <= 1) & (points < width)
        decimal[rows] = ok
        if width == len(token):
            is_token[rows] = ok & (codes == np.frombuffer(token, np.uint8)).all(axis=1)
        short = ok & (points >= width - 15)  # at most 15 digits
        if short.any():
            # The mantissa of every short row, exact in a double: the point adds no digit.
            mantissa = np.where(is_point[:, 0], 0.0, digits[:, 0])
            for j in range(1, width):
                mantissa = np.where(is_point[:, j], mantissa, 10 * mantissa + digits[:, j])
            pointed = np.flatnonzero(points)
            mantissa[pointed] /= _POWERS_OF_TEN[width - 1 - is_point[pointed].argmax(axis=1)]
            values[rows] = np.where(short, mantissa, np.nan)
        long = np.flatnonzero(ok & ~short)
        if long.size:
            text = np.column_stack((codes[long], np.full(long.size, ord(" "), np.uint8)))
            values[rows[long]] = np.fromiter(map(float, text.tobytes().decode().split()),
                                             np.float64, long.size)
    return values, decimal, is_token


# Character positions of the digits in YYYY-MM-DD.
_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int32)
# Days from March 1 to the first of each month (January at index 0), in a
# year that starts on March 1.
_DAYS_FROM_MARCH = ((153 * ((np.arange(1, 13) + 9) % 12) + 2) // 5).astype(np.int32)


def _days_from_civil(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Days from 1970-01-01 to each proleptic Gregorian date, by integer
    arithmetic on 400-year eras of 146097 days that start on March 1
    (Hinnant, "chrono-Compatible Low-Level Date Algorithms",
    ``days_from_civil``); a month outside 1-12 gives a meaningless day."""
    year = year - (month <= 2)
    era = year // 400
    year_of_era = year - 400 * era
    day_of_era = (365 * year_of_era + year_of_era // 4 - year_of_era // 100
                  + _DAYS_FROM_MARCH.take(month - 1, mode="clip") + day - 1)
    return 146097 * era + day_of_era - 719468


def _dates(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of bytes start with a valid date ``YYYY-MM-DD`` of years
    1-9999, and the days from 1970-01-01 to each (meaningless where not)."""
    # Below "0" the subtraction wraps round, so capping at 10 marks every non-digit.
    digits = np.minimum(codes[:, _DATE_DIGITS] - np.uint8(ord("0")), 10)
    pairs = 10 * digits[:, 0::2].astype(np.int32) + digits[:, 1::2]
    year = 100 * pairs[:, 0] + pairs[:, 1]
    month, day = pairs[:, 2], pairs[:, 3]
    month_length = _MONTH_DAYS.take(month - 1, mode="clip")
    # Only a February 29 needs the leap-year rule.
    feb_29 = np.flatnonzero((month == 2) & (day == 29))
    leap = year[feb_29]
    month_length[feb_29] += (leap % 4 == 0) & ((leap % 100 != 0) | (leap % 400 == 0))
    valid = ((digits <= 9).all(axis=1) & (codes[:, 4] == ord("-")) & (codes[:, 7] == ord("-"))
             & (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_length))
    return valid, _days_from_civil(year, month, day).astype(np.int64)


# The minute of the day of an hour (bytes 11-12 of a stamp) and of a grid
# minute (bytes 14-15), keyed by the two digits as a little-endian 16-bit
# word; any other pair of bytes reads -2**14, so a sum below 0 is off the grid.
_HOUR_MINUTES, _GRID_MINUTES = np.full((2, 1 << 16), -(1 << 14), dtype=np.int16)
_HOUR_MINUTES[np.frombuffer(b"%02d" * 24 % tuple(range(24)), "<u2")] = range(0, 1440, 60)
_GRID_MINUTES[np.frombuffer(b"%02d" * 10 % tuple(range(0, 60, 6)), "<u2")] = range(0, 60, 6)
# Bytes 10 and 13 of a stamp, in its second little-endian word.
_TIME_SEPARATORS = np.uint64(0xFF << 40 | 0xFF << 16)
_T_AND_COLON = np.uint64(ord(":") << 40 | ord("T") << 16)
_SPACE_AND_COLON = np.uint64(ord(":") << 40 | ord(" ") << 16)


def _grid_minutes(data: np.ndarray, starts: np.ndarray, ends: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Which timestamp tokens, the byte spans of ``data`` from ``starts`` to
    ``ends``, parse onto the 6-minute grid, and their minutes since the
    epoch (0 where they do not).

    Tokens of exactly 16 bytes shaped ``YYYY-MM-DDTHH:MM`` or ``YYYY-MM-DD
    HH:MM`` with a valid date, hour and grid minute are read as two
    little-endian 64-bit words each; numpy's own string-to-datetime cast
    would accept "NaT", "today" and partial dates. Rows in date order come
    in runs that share their 10 date bytes, so each run's first row alone
    goes through the date arithmetic; every row checks its own separators,
    hour and minute. Every other token is decoded and goes through
    ``_parse_timestamp``, which owns the rule.
    """
    parsed = np.zeros(starts.size, dtype=bool)
    minutes = np.zeros(starts.size, dtype=np.int64)
    fixed = np.flatnonzero(ends - starts == 16)
    if fixed.size:
        # A byte of a multi-byte character is no digit or separator, so no clean token holds one.
        words = _gather(data, starts[fixed], 16).view("<u8")
        # A run starts where the date, the first word and two bytes of the
        # second, differs from the row before.
        step = words[1:] ^ words[:-1]
        firsts = np.flatnonzero(np.r_[True, (step[:, 0] | (step[:, 1] & 0xFFFF)) != 0])
        valid_date, days = _dates(words[firsts].view(np.uint8))
        runs = np.diff(firsts, append=fixed.size)
        clock = words[:, 1]
        separators = clock & _TIME_SEPARATORS
        of_day = (_HOUR_MINUTES.take(((clock >> 24) & 0xFFFF).view(np.int64))
                  + _GRID_MINUTES.take((clock >> 48).view(np.int64)))
        parsed[fixed] = (np.repeat(valid_date, runs) & (of_day >= 0)
                         & ((separators == _T_AND_COLON) | (separators == _SPACE_AND_COLON)))
        minutes[fixed] = np.repeat(1440 * days, runs) + of_day
    for i in np.flatnonzero(~parsed).tolist():
        stamp = _parse_timestamp(data[starts[i]:ends[i]].tobytes().decode())
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
    """Result of one season-pair comparison, or the reason it did not run;
    the pair is its key in ``SeasonalOutcomes``."""

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
    A pair lacking data, or failing ``run_test``'s checks (a season of one
    day, say), reports the error while the remaining pairs still run; a
    configuration that implies no partition raises ``ConfigError`` first.
    Each season is standardized once, and the pairs of one capped exceedance
    count are tested as one ``calibrate`` batch: each season is bootstrapped
    once per exceedance count, and seasons of one size share each draw of
    permutations. Every report is that of a lone ``run_test`` of its pair.
    """
    if config.margins != "empirical":
        raise DomainError("seasonal tests use empirical margins and bootstrap calibration")
    build_partition(config, 2)  # an unbuildable partition fails once, before any pair
    pairs_by_season = build_pairs(series, drop_incomplete_days, drop_dry_days)
    outcomes = SeasonalOutcomes(pairs_by_season)
    ready = {season: p for season, p in pairs_by_season.items() if not isinstance(p, str)}
    pairs = [(sx, sy) for i, sx in enumerate(SEASONS) for sy in SEASONS[i + 1:]]
    results, batches = {}, {}
    for key in pairs:
        if not ready.keys() >= set(key):
            results[key] = SeasonPairOutcome(error=next(pairs_by_season[s] for s in key
                                                        if s not in ready))
            continue
        # The exceedance count, capped at one below the smaller season.
        k, notes = min(config.k_exceedances, min(ready[s].n for s in key) - 1), []
        if k < config.k_exceedances:
            note = (f"k_exceedances={config.k_exceedances} exceeds the smaller season size; "
                    f"capping at {k}")
            warnings.warn(note, stacklevel=2)
            notes.append(note)
        try:
            pair_config = replace(config, k_exceedances=k)
            _check_pair(*(Sample(ready[s].data) for s in key), pair_config)
        except TailTestError as exc:
            results[key] = SeasonPairOutcome(k, error=str(exc))
            continue
        batches.setdefault(pair_config, []).append((key, notes))
    tested = {s for batch in batches.values() for key, _ in batch for s in key}
    standardized = {s: standardize(Sample(ready[s].data), "empirical")
                    for s in SEASONS if s in tested}
    for pair_config, batch in batches.items():
        reports = _test_batch([tuple(standardized[s] for s in key) for key, _ in batch],
                              pair_config)
        for (key, notes), report in zip(batch, reports):
            report = replace(report, warnings=report.warnings + notes)
            results[key] = SeasonPairOutcome(pair_config.k_exceedances, report=report)
    outcomes.update((key, results[key]) for key in pairs)
    return outcomes
