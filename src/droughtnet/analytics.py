"""Drought-severity analytics over the central observational database.

Per-region indicators (temperature anomaly against the climatological
normal, precipitation normalised to mm per 30-day month, circular-mean
wind), a four-class severity classifier with strict thresholds, the
windowed drought-evolution pattern, and the wind-advection forecast
that escalates the downwind neighbour of a drought-stricken region.

All passes are read-only over a completed database.
"""

from __future__ import annotations

import json
import math
import pickle
from dataclasses import dataclass
from enum import IntEnum
from itertools import islice

from .backbone import CentralDatabase
from .environment import Climatology, normal_temp_over_window
from .forked import forked, share_count
from .geometry import GeoPoint

DAY_S = 86_400
MONTH_S = 30 * DAY_S
MIN_WINDOW_S = 30 * DAY_S
# half-width of the wind cone that picks a region's downwind neighbour
CONE_HALF_ANGLE_DEG = 45.0


class AnalyticsError(Exception):
    pass


class NoData(AnalyticsError):
    pass


class InsufficientSpan(AnalyticsError):
    pass


class InvalidThresholds(AnalyticsError):
    pass


class SeverityClass(IntEnum):
    NON_DROUGHT = 0
    SLIGHT = 1
    MODERATE = 2
    SERIOUS = 3

    @property
    def label(self) -> str:
        return ("NonDrought", "Slight", "Moderate", "Serious")[self]


def escalate(cls: SeverityClass) -> SeverityClass:
    return SeverityClass(min(int(cls) + 1, int(SeverityClass.SERIOUS)))


@dataclass(frozen=True, slots=True)
class Thresholds:
    """Classifier cut points; only the 25 mm moderate-rainfall bound is
    sourced from the field description, the rest are exposed defaults."""

    precip_serious_mm: float = 5.0
    temp_serious_c: float = 2.0
    precip_moderate_mm: float = 25.0
    temp_moderate_c: float = 1.0
    precip_slight_mm: float = 50.0
    temp_slight_c: float = 0.5

    def validate(self) -> "Thresholds":
        if not (self.precip_serious_mm < self.precip_moderate_mm < self.precip_slight_mm):
            raise InvalidThresholds("precipitation thresholds must increase with mildness")
        if not (self.temp_serious_c > self.temp_moderate_c > self.temp_slight_c):
            raise InvalidThresholds("temperature thresholds must decrease with mildness")
        return self


@dataclass(frozen=True, slots=True)
class DroughtIndicators:
    window: tuple[int, int]
    mean_temp_anomaly_c: float
    mean_monthly_precip_mm: float
    wind_mean_dir_deg: float
    wind_mean_speed_ms: float


@dataclass(frozen=True, slots=True)
class EvolutionPattern:
    entries: tuple  # ((window, SeverityClass, DroughtIndicators), ...)


def _aggregate(db: CentralDatabase, start: int, window_s: int) -> dict:
    """One pass over the database: per (region, window index) the row count,
    sums of temperature, precipitation, wind vector components and speed,
    and node set; each sum adds its key's values in row order from 0.0.

    This process folds the first of ``_region_cuts``'s shares while a forked
    child folds each other one (see ``forked``).  A key in two shares (rows
    not grouped by region) drops their merged sums for one serial fold: each
    key adds its rows in one process, so the sums have the same bits always."""
    columns = (db.region, db.node, db.ts, *(db.cal[f] for f in (
        "temperature_c", "precipitation_mm", "wind_dir_deg", "wind_speed_ms")))

    def fold(rows, out):  # in the child
        pickle.dump(_fold(zip(*(col[slice(*rows)] for col in columns)), start, window_s), out)

    if len(cuts := _region_cuts(db.region)) > 2:
        with forked(list(zip(cuts[1:], cuts[2:])), fold,
                    lambda r: f"folding rows {r[0]} to {r[1] - 1}", AnalyticsError) as children:
            sums = _fold(islice(zip(*columns), cuts[1]), start, window_s)  # no column copied
            for _, file in children:
                if not sums.keys().isdisjoint(share := pickle.load(file)):
                    break
                sums.update(share)
            else:
                return sums
    return _fold(zip(*columns), start, window_s)


def _region_cuts(region) -> list[int]:
    """Bounds of ``share_count`` row shares, each cut moved to the nearest region change."""
    n, raw, shares = len(region), region.tobytes(), share_count(len(region))
    cuts = {0, n}
    for at in (n * k // shares for k in range(1, shares)):  # run: row at's region, one byte
        # on a tie the later row: the share before a cut starts first, so it takes more
        changes = (n - len(raw[at:].lstrip(run := raw[at:at + 1])), len(raw[:at].rstrip(run)))
        cuts.add(min((c for c in changes if 0 < c < n), key=lambda c: abs(c - at), default=0))
    return sorted(cuts)


def _fold(rows, start: int, window_s: int) -> dict:
    """``_aggregate``'s sums of (region, node, t, temp, precip, wind dir, wind speed) rows."""
    sums: dict[tuple[int, int], list] = {}
    sin, cos, rad = math.sin, math.cos, math.radians
    held, region, lo, hi = [], None, 0, 0  # the current key's list, region and window [lo, hi)
    n = s_t = s_p = s_sin = s_cos = s_spd = 0  # its count and sums, while its rows run on
    for r, node, t, temp, precip, wdir, wspd in rows:
        if r != region or not lo <= t < hi:  # lo is never below start
            if t < start:
                continue
            held[:6] = n, s_t, s_p, s_sin, s_cos, s_spd
            w = (t - start) // window_s
            region, lo, hi = r, start + w * window_s, start + (w + 1) * window_s
            held = sums.setdefault((r, w), [0, 0.0, 0.0, 0.0, 0.0, 0.0, set()])
            (n, s_t, s_p, s_sin, s_cos, s_spd), add = held[:6], held[6].add
        n += 1
        s_t += temp
        s_p += precip
        a = rad(wdir)
        s_sin += sin(a)
        s_cos += cos(a)
        s_spd += wspd
        add(node)
    held[:6] = n, s_t, s_p, s_sin, s_cos, s_spd
    return sums


def _indicators_from_acc(window: tuple[int, int], acc: list,
                         climatology: Climatology) -> DroughtIndicators:
    n, sum_t, sum_p, sum_sin, sum_cos, sum_spd, nodes = acc
    t0, t1 = window
    normal = normal_temp_over_window(climatology, t0, t1)
    monthly = (sum_p / len(nodes)) * (MONTH_S / (t1 - t0))
    wind_dir = math.degrees(math.atan2(sum_sin / n, sum_cos / n)) % 360.0
    return DroughtIndicators(
        window=window,
        mean_temp_anomaly_c=sum_t / n - normal,
        mean_monthly_precip_mm=monthly,
        wind_mean_dir_deg=wind_dir,
        wind_mean_speed_ms=sum_spd / n,
    )


def indicators_all(db: CentralDatabase, climatologies: dict[int, Climatology],
                   window: tuple[int, int]) -> dict[int, DroughtIndicators]:
    """Indicators of every given region from calibrated records in the
    half-open window [t0, t1), at least MIN_WINDOW_S long, as every caller
    makes it, in one database pass."""
    t0, t1 = window
    sums = _aggregate(db, t0, t1 - t0)
    out = {}
    for region_id, clim in climatologies.items():
        acc = sums.get((region_id, 0))
        if acc is None or acc[0] == 0:
            raise NoData(f"no region-{region_id} records in {window}")
        out[region_id] = _indicators_from_acc(window, acc, clim)
    return out


def classify(ind: DroughtIndicators, thresholds: Thresholds = Thresholds()) -> SeverityClass:
    """Four ordered classes with strict cut points: a value exactly at a
    threshold falls to the milder class."""
    thresholds.validate()
    precip = ind.mean_monthly_precip_mm
    anomaly = ind.mean_temp_anomaly_c
    if precip < thresholds.precip_serious_mm and anomaly > thresholds.temp_serious_c:
        return SeverityClass.SERIOUS
    if precip < thresholds.precip_moderate_mm and anomaly > thresholds.temp_moderate_c:
        return SeverityClass.MODERATE
    if precip < thresholds.precip_slight_mm or anomaly > thresholds.temp_slight_c:
        return SeverityClass.SLIGHT
    return SeverityClass.NON_DROUGHT


def evolve_all(db: CentralDatabase, t_max: int, climatologies: dict[int, Climatology],
               window_len_days: int,
               thresholds: Thresholds = Thresholds()) -> dict[int, EvolutionPattern]:
    """Partition the record span, up to the database's highest timestamp
    t_max, into consecutive windows of at least 30 days (validate() checks
    window_days) and classify each, for every given region in one database
    pass."""
    window_s = window_len_days * DAY_S
    # a window counts as complete when records reach within a day of its
    # end; shorter tails (e.g. the 5-day remainder of a 365-day year over
    # 30-day windows) are dropped
    n_windows = (t_max + DAY_S) // window_s
    if n_windows < 2:
        raise InsufficientSpan(
            f"span {t_max + 1} s holds {n_windows} windows of {window_len_days} d; need 2"
        )
    sums = _aggregate(db, 0, window_s)
    out = {}
    for region_id, clim in climatologies.items():
        entries = []
        for k in range(n_windows):
            acc = sums.get((region_id, k))
            if acc is None or acc[0] == 0:
                raise NoData(f"no region-{region_id} records in window {k}")
            window = (k * window_s, (k + 1) * window_s)
            ind = _indicators_from_acc(window, acc, clim)
            entries.append((window, classify(ind, thresholds), ind))
        out[region_id] = EvolutionPattern(entries=tuple(entries))
    return out


def _bearing_deg(frm: GeoPoint, to: GeoPoint) -> float:
    return math.degrees(math.atan2(to.y_km - frm.y_km, to.x_km - frm.x_km)) % 360.0


def _angle_diff(a: float, b: float) -> float:
    return abs((a - b + 180.0) % 360.0 - 180.0)


def advect_forecast(
    current: dict[int, SeverityClass],
    indicators: dict[int, DroughtIndicators],
    region_layout: dict[int, GeoPoint],
) -> dict[int, SeverityClass]:
    """Severity forecast under wind advection.

    Each region at Moderate or worse escalates its downwind neighbour
    (the region whose bearing lies within the wind cone) by one class.
    Calm wind or an empty cone leaves forecasts at current classes; no
    forecast ever drops below the current class.
    """
    forecast = dict(current)
    for region, cls in current.items():
        if cls < SeverityClass.MODERATE:
            continue
        ind = indicators[region]
        if ind.wind_mean_speed_ms <= 0.0:
            continue
        origin = region_layout[region]
        best = None
        for other, pos in region_layout.items():
            if other == region or other not in current:
                continue
            diff = _angle_diff(_bearing_deg(origin, pos), ind.wind_mean_dir_deg)
            if diff <= CONE_HALF_ANGLE_DEG + 1e-9:
                cand = (diff, origin.distance_to(pos), other)
                if best is None or cand < best:
                    best = cand
        if best is not None:
            downwind = best[2]
            forecast[downwind] = max(forecast[downwind], escalate(current[downwind]))
    return forecast


# -- exports ------------------------------------------------------------------


def patterns_to_csv_lines(patterns: dict[int, EvolutionPattern]):
    yield "region,window_start_s,window_end_s,class,anomaly_C,precip_mm"
    for region in sorted(patterns):
        for (t0, t1), cls, ind in patterns[region].entries:
            yield (
                f"{region},{t0},{t1},{cls.label},"
                f"{ind.mean_temp_anomaly_c!r},{ind.mean_monthly_precip_mm!r}"
            )


def forecast_to_json(current: dict[int, SeverityClass],
                     forecast: dict[int, SeverityClass]) -> str:
    payload = {
        str(region): {"current": current[region].label, "forecast": forecast[region].label}
        for region in sorted(current)
    }
    return json.dumps(payload, indent=2, sort_keys=True)
