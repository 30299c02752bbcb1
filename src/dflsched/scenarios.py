"""Weather synthesis, day clustering and scenario construction.

A synthetic typical year stands in for measured meteorological files: annual
and diurnal harmonics plus an AR(1) residual.  Days are clustered with a
PAM-style k-medoids search in which the three extreme days (coldest,
hottest, highest variance) are fixed medoids that the swap phase never
touches; medoids are always actual days, never averages.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HOURS_PER_DAY = 24
DAYS_PER_YEAR = 365
HOURS_PER_YEAR = HOURS_PER_DAY * DAYS_PER_YEAR


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class DayScenario:
    """One representative day: ambient profile, starting zone temperatures,
    the cluster it stands for and the fraction of the year it represents."""

    ambient: np.ndarray  # (24,) degC
    initial_tau: np.ndarray  # (Z,) degC
    label: int
    weight: float
    day_index: int = -1

    def __post_init__(self):
        object.__setattr__(self, "ambient", np.asarray(self.ambient, dtype=float))
        object.__setattr__(self, "initial_tau", np.asarray(self.initial_tau, dtype=float))
        if not np.all(np.isfinite(self.ambient)):
            raise ScenarioError("ambient profile must be finite")


def check_weights(scenarios: list[DayScenario]) -> None:
    total = sum(s.weight for s in scenarios)
    if abs(total - 1.0) > 1e-9:
        raise ScenarioError(f"scenario weights sum to {total}, expected 1")


@dataclass(frozen=True)
class WeatherParams:
    """Harmonic-plus-AR(1) synthetic year.  Defaults give a continental
    climate with cold winters and hot summers."""

    mean: float = 10.0
    annual_amplitude: float = 13.0
    diurnal_amplitude: float = 6.0
    coldest_day: int = 15
    warmest_hour: int = 15
    ar_phi: float = 0.9
    ar_sigma: float = 1.2


def synthesize_year(seed: int, params: WeatherParams = WeatherParams()) -> np.ndarray:
    """Hourly series over 8760 hours, deterministic per seed."""
    rng = np.random.default_rng(seed)
    hours = np.arange(HOURS_PER_YEAR)
    day = hours // HOURS_PER_DAY
    hod = hours % HOURS_PER_DAY
    annual = -params.annual_amplitude * np.cos(
        2 * np.pi * (day - params.coldest_day) / DAYS_PER_YEAR)
    diurnal = params.diurnal_amplitude * np.cos(
        2 * np.pi * (hod - params.warmest_hour) / HOURS_PER_DAY)
    resid = np.zeros(HOURS_PER_YEAR)
    if params.ar_sigma > 0:
        eps = rng.normal(0.0, params.ar_sigma, size=HOURS_PER_YEAR)
        prev = 0.0
        for i in range(HOURS_PER_YEAR):
            prev = params.ar_phi * prev + eps[i]
            resid[i] = prev
    return params.mean + annual + diurnal + resid


def days_matrix(series: np.ndarray) -> np.ndarray:
    series = np.asarray(series, dtype=float).ravel()
    if len(series) != HOURS_PER_YEAR:
        raise ScenarioError(f"expected {HOURS_PER_YEAR} hourly values, got {len(series)}")
    return series.reshape(DAYS_PER_YEAR, HOURS_PER_DAY)


# ---------------------------------------------------------------------------
# extreme days and clustering


def pick_extremes(days: np.ndarray) -> tuple[int, int, int]:
    """Indices of the coldest day (mean), hottest day (mean) and the day
    with the highest variance; ties break to the earliest index and a later
    criterion picking an already-chosen day slides to its next-best."""
    days = np.asarray(days, dtype=float)
    means = days.mean(axis=1)
    variances = days.var(axis=1)
    rank_cold = np.argsort(means, kind="stable")
    rank_hot = np.argsort(-means, kind="stable")
    rank_var = np.argsort(-variances, kind="stable")
    chosen: list[int] = []
    for ranking in (rank_cold, rank_hot, rank_var):
        for idx in ranking:
            if int(idx) not in chosen:
                chosen.append(int(idx))
                break
    return tuple(chosen)


@dataclass(frozen=True)
class ClusterResult:
    medoids: np.ndarray  # (k,) day indices
    assignment: np.ndarray  # (n,) cluster index into medoids
    weights: np.ndarray  # (k,) cluster size / n
    cost: float


def _distances_to(days: np.ndarray, medoid_days: np.ndarray) -> np.ndarray:
    """Euclidean distance from each of ``days`` (n, T) to each of
    ``medoid_days`` (m, T), as an (n, m) matrix.

    Built one row at a time, so the only temporaries are (m, T) and the
    memory cost is the (n, m) result itself: there is no (n, m, T)
    difference cube.  Each entry is still the difference, the square,
    numpy's sum over the contiguous T axis and the square root, the same
    operations in the same order as a broadcast over the cube, so the
    distances are bit-for-bit those of the broadcast.  A Gram-matrix,
    ``cdist`` or ``einsum`` form sums in another order, changes the last
    bits of many entries and could flip a near-tie medoid.
    """
    out = np.empty((len(days), len(medoid_days)))
    for i, day in enumerate(days):
        out[i] = np.sqrt(((day - medoid_days) ** 2).sum(axis=1))
    return out


def kmedoid_cluster(days: np.ndarray, k: int,
                    fixed: tuple[int, ...] = ()) -> ClusterResult:
    """PAM build + swap with the given medoids pinned.

    Distance is Euclidean on the raw 24-hour profiles.  The swap phase
    applies best-improvement moves over the non-fixed medoids only and is
    fully deterministic.

    Memory: one n x n float64 distance matrix (about 1 MB for a 365-day
    year) and no n x n x T temporary; see ``_distances_to``.
    """
    days = np.asarray(days, dtype=float)
    n = len(days)
    fixed = tuple(int(i) for i in fixed)
    if len(set(fixed)) != len(fixed):
        raise ScenarioError("fixed medoids must be distinct")
    for i in fixed:
        if not 0 <= i < n:
            raise ScenarioError(f"fixed medoid {i} out of range")
    if k < len(fixed):
        raise ScenarioError("k must be at least the number of fixed medoids")
    distinct = len(np.unique(days, axis=0))
    if k > distinct:
        raise ScenarioError(f"k={k} exceeds the {distinct} distinct days")

    medoids = list(fixed)
    dist_all = _distances_to(days, days)  # (n, n)

    def total_cost(meds: list[int]) -> float:
        return float(dist_all[:, meds].min(axis=1).sum())

    # BUILD: greedily add the day that lowers the cost the most
    while len(medoids) < k:
        if medoids:
            current = dist_all[:, medoids].min(axis=1)
        else:
            current = np.full(n, np.inf)
        best_day, best_cost = -1, np.inf
        for cand in range(n):
            if cand in medoids:
                continue
            cost = float(np.minimum(current, dist_all[:, cand]).sum())
            if cost < best_cost - 1e-12:
                best_cost, best_day = cost, cand
        medoids.append(best_day)

    # SWAP: best-improvement over non-fixed medoids
    improved = True
    while improved:
        improved = False
        base = total_cost(medoids)
        best_swap, best_cost = None, base
        for pos in range(len(fixed), k):
            for cand in range(n):
                if cand in medoids:
                    continue
                trial = medoids.copy()
                trial[pos] = cand
                cost = total_cost(trial)
                if cost < best_cost - 1e-12:
                    best_cost, best_swap = cost, (pos, cand)
        if best_swap is not None:
            medoids[best_swap[0]] = best_swap[1]
            improved = True

    med = np.asarray(medoids, dtype=int)
    assignment = np.argmin(dist_all[:, med], axis=1)
    weights = np.bincount(assignment, minlength=k) / n
    return ClusterResult(med, assignment, weights, total_cost(medoids))


def order_cycle(profiles: np.ndarray) -> np.ndarray:
    """Permutation forming a smooth cycle: ascend through the even-ranked
    daily means, then descend through the odd-ranked ones, which minimizes
    the summed squared mean jumps around the cycle (wrap-around included)."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    means = profiles.mean(axis=1)
    order = np.argsort(means, kind="stable")
    up = order[0::2]
    down = order[1::2][::-1]
    return np.concatenate([up, down])


def cycle_cost(means: np.ndarray, order: np.ndarray) -> float:
    m = np.asarray(means, dtype=float)[np.asarray(order, dtype=int)]
    return float(((m - np.roll(m, -1)) ** 2).sum())


# ---------------------------------------------------------------------------
# splits and the hot-year stress set


def sample_split_days(days: np.ndarray, clustering: ClusterResult,
                      seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per cluster, draw two distinct non-medoid member days uniformly: one
    for validation, one for test.  Clusters too small to spare members fall
    back to their medoid."""
    rng = np.random.default_rng(seed)
    val, test = [], []
    for ci, medoid in enumerate(clustering.medoids):
        members = np.flatnonzero(clustering.assignment == ci)
        members = members[members != medoid]
        if len(members) >= 2:
            picks = rng.choice(members, size=2, replace=False)
        elif len(members) == 1:
            picks = np.array([members[0], medoid])
        else:
            picks = np.array([medoid, medoid])
        val.append(int(picks[0]))
        test.append(int(picks[1]))
    return np.asarray(val), np.asarray(test)


def hot_year_days(days: np.ndarray, clustering: ClusterResult) -> tuple[np.ndarray, int]:
    """Per cluster, the member day with the highest daily mean; also returns
    which cluster holds the overall hottest pick (that scenario receives the
    +2 degC record-breaking offset)."""
    days = np.asarray(days, dtype=float)
    means = days.mean(axis=1)
    picks = []
    for ci in range(len(clustering.medoids)):
        members = np.flatnonzero(clustering.assignment == ci)
        picks.append(int(members[np.argmax(means[members])]))
    picks = np.asarray(picks)
    hottest_cluster = int(np.argmax(means[picks]))
    return picks, hottest_cluster


HOT_YEAR_OFFSET = 2.0  # degC added on top of the hottest cluster's pick


def build_hot_year(days: np.ndarray, clustering: ClusterResult,
                   initial_tau_for) -> list[DayScenario]:
    """Hot-year stress scenarios (one per cluster); ``initial_tau_for`` maps
    a day index to starting zone temperatures."""
    picks, hottest_cluster = hot_year_days(days, clustering)
    scenarios = scenarios_for_days(days, picks, clustering, initial_tau_for)
    hottest = scenarios[hottest_cluster]
    scenarios[hottest_cluster] = replace(hottest, ambient=hottest.ambient + HOT_YEAR_OFFSET)
    return scenarios


def scenarios_for_days(days: np.ndarray, day_indices: np.ndarray,
                       clustering: ClusterResult,
                       initial_tau_for) -> list[DayScenario]:
    """Wrap raw day indices (one per cluster, in cluster order) as scenarios
    carrying the cluster weights."""
    out = []
    for ci, day_idx in enumerate(day_indices):
        out.append(DayScenario(
            ambient=days[int(day_idx)].copy(),
            initial_tau=initial_tau_for(int(day_idx)),
            label=ci,
            weight=float(clustering.weights[ci]),
            day_index=int(day_idx),
        ))
    return out


# ---------------------------------------------------------------------------
# file formats


def write_weather_csv(series: np.ndarray, path: str | Path) -> None:
    """Header ``hour,temp_c`` then 8760 rows."""
    series = np.asarray(series, dtype=float).ravel()
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["hour", "temp_c"])
        for i, v in enumerate(series):
            writer.writerow([i, repr(float(v))])


def read_weather_csv(path: str | Path) -> np.ndarray:
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        header = next(reader)
        if header != ["hour", "temp_c"]:
            raise ScenarioError(f"{path}: expected header 'hour,temp_c'")
        values = [float(row[1]) for row in reader]
    if len(values) != HOURS_PER_YEAR:
        raise ScenarioError(f"{path}: expected {HOURS_PER_YEAR} rows, got {len(values)}")
    return np.asarray(values)


def save_bundle(path: str | Path, *, clustering: ClusterResult,
                order: np.ndarray, train: list[DayScenario],
                val: list[DayScenario], test: list[DayScenario],
                hot_year: list[DayScenario]) -> None:
    def enc(scenarios: list[DayScenario]):
        return [
            {
                "ambient": s.ambient.tolist(),
                "initial_tau": s.initial_tau.tolist(),
                "label": s.label,
                "weight": s.weight,
                "day_index": s.day_index,
            }
            for s in scenarios
        ]

    doc = {
        "format": "scenario-bundle-v1",
        "medoids": clustering.medoids.tolist(),
        "assignment": clustering.assignment.tolist(),
        "weights": clustering.weights.tolist(),
        "cost": clustering.cost,
        "order": np.asarray(order, dtype=int).tolist(),
        "train": enc(train),
        "val": enc(val),
        "test": enc(test),
        "hot_year": enc(hot_year),
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_bundle(path: str | Path) -> dict:
    """Read a bundle written by ``save_bundle``; every split's scenario
    weights must sum to 1."""
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != "scenario-bundle-v1":
        raise ScenarioError(f"{path}: not a scenario bundle")

    def dec(items) -> list[DayScenario]:
        split = [
            DayScenario(
                ambient=np.asarray(d["ambient"]),
                initial_tau=np.asarray(d["initial_tau"]),
                label=int(d["label"]),
                weight=float(d["weight"]),
                day_index=int(d["day_index"]),
            )
            for d in items
        ]
        check_weights(split)
        return split

    return {
        "clustering": ClusterResult(
            medoids=np.asarray(doc["medoids"], dtype=int),
            assignment=np.asarray(doc["assignment"], dtype=int),
            weights=np.asarray(doc["weights"], dtype=float),
            cost=float(doc["cost"]),
        ),
        "order": np.asarray(doc["order"], dtype=int),
        "train": dec(doc["train"]),
        "val": dec(doc["val"]),
        "test": dec(doc["test"]),
        "hot_year": dec(doc["hot_year"]),
    }
