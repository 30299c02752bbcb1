"""Weather synthesis, extremes, k-medoids clustering, cycle ordering and the
hot-year stress set."""
import itertools
import json

import numpy as np
import pytest

from dflsched import scenarios
from dflsched.scenarios import WeatherParams


class TestSynthesizeYear:
    def test_pure_harmonics_reconstructed_independently(self):
        params = WeatherParams(mean=10.0, annual_amplitude=12.0,
                               diurnal_amplitude=5.0, ar_sigma=0.0)
        series = scenarios.synthesize_year(0, params)
        assert series.shape == (8760,)
        # independent double-harmonic reconstruction
        d = np.arange(8760) // 24
        h = np.arange(8760) % 24
        expected = 10.0 - 12.0 * np.cos(2 * np.pi * (d - 15) / 365) \
            + 5.0 * np.cos(2 * np.pi * (h - 15) / 24)
        np.testing.assert_allclose(series, expected, atol=1e-12)
        # the coldest point: coldest day at the coldest hour
        assert series.min() == pytest.approx(10.0 - 12.0 - 5.0)
        assert np.argmin(series) == 15 * 24 + 3

    def test_same_seed_identical(self):
        a = scenarios.synthesize_year(42)
        b = scenarios.synthesize_year(42)
        np.testing.assert_array_equal(a, b)
        c = scenarios.synthesize_year(43)
        assert not np.array_equal(a, c)

    def test_ar1_autocorrelation(self):
        params = WeatherParams(mean=0.0, annual_amplitude=0.0,
                               diurnal_amplitude=0.0, ar_phi=0.9, ar_sigma=1.0)
        x = scenarios.synthesize_year(5, params)
        x = x - x.mean()
        rho = float((x[1:] @ x[:-1]) / (x @ x))
        assert abs(rho - 0.9) <= 0.05


class TestPickExtremes:
    def test_planted_extremes_recovered(self):
        rng = np.random.default_rng(0)
        days = rng.normal(10.0, 1.0, size=(365, 24))
        days[40] -= 30.0   # coldest
        days[200] += 30.0  # hottest
        days[300] = 10.0 + 20.0 * np.sign(np.sin(np.arange(24)))  # max variance
        cold, hot, var = scenarios.pick_extremes(days)
        assert (cold, hot, var) == (40, 200, 300)

    def test_constant_year_dedup_keeps_distinct_days(self):
        days = np.zeros((10, 24))
        cold, hot, var = scenarios.pick_extremes(days)
        assert len({cold, hot, var}) == 3
        assert (cold, hot, var) == (0, 1, 2)  # ties break to earliest, then next-best


def _broadcast_distances(days, medoid_days):
    """The reference: the (n, m, T) difference cube, squared, summed over T."""
    diff = days[:, None, :] - medoid_days[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


class TestKMedoids:
    def test_every_day_its_own_medoid(self):
        rng = np.random.default_rng(1)
        days = rng.normal(size=(40, 24))
        result = scenarios.kmedoid_cluster(days, k=40)
        assert sorted(result.medoids.tolist()) == list(range(40))
        assert result.cost == pytest.approx(0.0, abs=1e-12)

    def test_two_blobs_found_by_exhaustive_oracle(self):
        # two well-separated blobs of constant profiles
        rng = np.random.default_rng(2)
        lo = 0.0 + rng.normal(0, 0.1, size=(20, 24))
        hi = 50.0 + rng.normal(0, 0.1, size=(20, 24))
        days = np.vstack([lo, hi])
        result = scenarios.kmedoid_cluster(days, k=2)
        sides = sorted(int(m) // 20 for m in result.medoids)
        assert sides == [0, 1]
        # exhaustive medoid-pair search
        dist = _broadcast_distances(days, days)
        best = min(dist[:, [i, j]].min(axis=1).sum()
                   for i in range(40) for j in range(i + 1, 40))
        assert result.cost == pytest.approx(best, rel=1e-12)

    def test_fixed_medoids_retained(self):
        rng = np.random.default_rng(3)
        days = rng.normal(size=(60, 24))
        cold = int(np.argmin(days.mean(axis=1)))
        result = scenarios.kmedoid_cluster(days, k=5, fixed=(cold,))
        assert cold in result.medoids.tolist()
        assert result.medoids[0] == cold

    def test_medoids_are_actual_days(self):
        rng = np.random.default_rng(4)
        days = rng.normal(size=(80, 24))
        result = scenarios.kmedoid_cluster(days, k=6)
        for m in result.medoids:
            assert np.array_equal(days[m], days[int(m)])  # row identity
        assert len(set(result.medoids.tolist())) == 6

    def test_assignment_optimality_direct_scan(self):
        rng = np.random.default_rng(5)
        days = rng.normal(size=(100, 24))
        result = scenarios.kmedoid_cluster(days, k=7, fixed=(0, 1))
        med_days = days[result.medoids]
        for i in range(100):
            dists = np.sqrt(((med_days - days[i]) ** 2).sum(axis=1))
            assert dists[result.assignment[i]] == pytest.approx(dists.min())

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(6)
        days = rng.normal(size=(50, 24))
        result = scenarios.kmedoid_cluster(days, k=4)
        assert result.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_swap_improves_on_build(self):
        # final cost can never exceed any single-medoid-set cost containing
        # the same fixed medoids; spot-check against a few random sets
        rng = np.random.default_rng(7)
        days = rng.normal(size=(90, 24))
        result = scenarios.kmedoid_cluster(days, k=5)
        dist = _broadcast_distances(days, days)
        for _ in range(25):
            meds = rng.choice(90, size=5, replace=False)
            assert result.cost <= dist[:, meds].min(axis=1).sum() + 1e-9

    def test_k_larger_than_distinct_days_rejected(self):
        days = np.zeros((10, 24))
        with pytest.raises(scenarios.ScenarioError):
            scenarios.kmedoid_cluster(days, k=2)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(8)
        days = rng.normal(size=(70, 24))
        a = scenarios.kmedoid_cluster(days, k=5, fixed=(3,))
        b = scenarios.kmedoid_cluster(days, k=5, fixed=(3,))
        np.testing.assert_array_equal(a.medoids, b.medoids)
        np.testing.assert_array_equal(a.assignment, b.assignment)


def _distance_cases():
    rng = np.random.default_rng(11)
    rows = rng.normal(10.0, 8.0, size=(12, 24))
    return {
        "synthetic-year": scenarios.days_matrix(scenarios.synthesize_year(7)),
        "one-day": rng.normal(size=(1, 24)),
        "five-hours": rng.normal(size=(40, 5)),
        "integer-valued": rng.integers(-20, 40, size=(60, 24)).astype(float),
        "repeated-rows": np.vstack([rows, rows[::-1], rows[:4]]),
    }


class TestDayDistances:
    @pytest.mark.parametrize("case", sorted(_distance_cases()))
    def test_rows_equal_the_broadcast_bytes(self, case):
        """Row-by-row distances are the broadcast's, bit for bit, so medoid
        ties break as they always did."""
        days = _distance_cases()[case]
        ours = scenarios._distances_to(days, days)
        ref = _broadcast_distances(days, days)
        assert ours.dtype == ref.dtype and ours.shape == ref.shape
        assert ours.tobytes() == ref.tobytes()

    def test_clustering_a_year_allocates_no_difference_cube(self):
        """The traced peak of clustering a 365-day year stays below three
        n x n float64 matrices; a 365 x 365 x 24 cube is 25.6 MB."""
        import tracemalloc
        days = scenarios.days_matrix(scenarios.synthesize_year(7))
        fixed = scenarios.pick_extremes(days)
        # a first call does numpy's one-off set-up outside the trace
        scenarios.kmedoid_cluster(days[:20], k=4)
        tracemalloc.start()
        try:
            scenarios.kmedoid_cluster(days, k=10, fixed=fixed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(days) ** 2 * 8


class TestOrderCycle:
    def test_four_means_up_down_sweep(self):
        profiles = np.array([[0.0], [10.0], [20.0], [30.0]]) * np.ones((1, 24))
        order = scenarios.order_cycle(profiles)
        means = profiles.mean(axis=1)[order]
        assert means.tolist() in ([0.0, 20.0, 30.0, 10.0], [10.0, 30.0, 20.0, 0.0])

    def test_minimizes_squared_jumps_exhaustively(self):
        profiles = np.array([[0.0], [10.0], [20.0], [30.0]]) * np.ones((1, 24))
        means = profiles.mean(axis=1)
        ours = scenarios.cycle_cost(means, scenarios.order_cycle(profiles))
        best = min(scenarios.cycle_cost(means, perm)
                   for perm in itertools.permutations(range(4)))
        assert ours == pytest.approx(best)

    def test_single_medoid(self):
        order = scenarios.order_cycle(np.full((1, 24), 12.0))
        assert order.tolist() == [0]

    def test_smooth_cycle_preserved_up_to_rotation_reflection(self):
        # profiles already forming a smooth cycle keep their cycle cost
        means = np.array([5.0, 15.0, 25.0, 18.0, 8.0])
        profiles = means[:, None] * np.ones((1, 24))
        order = scenarios.order_cycle(profiles)
        assert scenarios.cycle_cost(means, order) <= scenarios.cycle_cost(
            means, np.arange(5)) + 1e-12


class TestSplitsAndHotYear:
    def make_clustered(self, seed=9):
        series = scenarios.synthesize_year(seed)
        days = scenarios.days_matrix(series)
        extremes = scenarios.pick_extremes(days)
        clustering = scenarios.kmedoid_cluster(days, k=10, fixed=extremes)
        return days, clustering

    def test_split_days_come_from_their_cluster(self):
        days, clustering = self.make_clustered()
        val, test = scenarios.sample_split_days(days, clustering, seed=1)
        assert len(val) == len(test) == 10
        for ci, (v, t) in enumerate(zip(val, test)):
            assert clustering.assignment[v] == ci
            assert clustering.assignment[t] == ci

    def test_hot_year_piecewise_maxima(self):
        days, clustering = self.make_clustered()
        picks, hottest_cluster = scenarios.hot_year_days(days, clustering)
        means = days.mean(axis=1)
        for ci, day in enumerate(picks):
            members = np.flatnonzero(clustering.assignment == ci)
            assert means[day] == pytest.approx(means[members].max())
            assert means[day] >= means[clustering.medoids[ci]]

    def test_hot_year_offset_on_exactly_one_scenario(self):
        days, clustering = self.make_clustered()
        hot = scenarios.build_hot_year(days, clustering,
                                       initial_tau_for=lambda d: np.zeros(2))
        picks, hottest = scenarios.hot_year_days(days, clustering)
        offsets = [s.ambient - days[s.day_index] for s in hot]
        bumped = [i for i, off in enumerate(offsets)
                  if np.allclose(off, scenarios.HOT_YEAR_OFFSET)]
        flat = [i for i, off in enumerate(offsets) if np.allclose(off, 0.0)]
        assert bumped == [hottest]
        assert len(flat) == 9

    def test_hot_year_hotter_than_training(self):
        days, clustering = self.make_clustered()
        hot = scenarios.build_hot_year(days, clustering,
                                       initial_tau_for=lambda d: np.zeros(2))
        weights = clustering.weights
        train_mean = float(np.average(days[clustering.medoids].mean(axis=1),
                                      weights=weights))
        hot_mean = float(np.average([s.ambient.mean() for s in hot],
                                    weights=weights))
        assert hot_mean > train_mean


class TestFileFormats:
    def test_weather_csv_round_trip(self, tmp_path):
        series = scenarios.synthesize_year(3)
        path = tmp_path / "weather.csv"
        scenarios.write_weather_csv(series, path)
        assert path.read_text().splitlines()[0] == "hour,temp_c"
        back = scenarios.read_weather_csv(path)
        np.testing.assert_array_equal(back, series)

    @staticmethod
    def save_small_bundle(path):
        series = scenarios.synthesize_year(4)
        days = scenarios.days_matrix(series)
        clustering = scenarios.kmedoid_cluster(days, k=4)
        tau = lambda d: np.array([20.0, 21.0])
        train = scenarios.scenarios_for_days(days, clustering.medoids, clustering, tau)
        hot = scenarios.build_hot_year(days, clustering, tau)
        order = scenarios.order_cycle(np.stack([s.ambient for s in train]))
        scenarios.save_bundle(path, clustering=clustering, order=order,
                              train=train, val=train, test=train, hot_year=hot)
        return clustering, order, train

    def test_bundle_round_trip(self, tmp_path):
        path = tmp_path / "bundle.json"
        clustering, order, train = self.save_small_bundle(path)
        back = scenarios.load_bundle(path)
        np.testing.assert_array_equal(back["clustering"].medoids, clustering.medoids)
        np.testing.assert_array_equal(back["order"], order)
        np.testing.assert_array_equal(back["train"][0].ambient, train[0].ambient)
        scenarios.check_weights(back["train"])

    def test_bundle_with_unnormalized_split_weights_rejected(self, tmp_path):
        path = tmp_path / "bundle.json"
        self.save_small_bundle(path)
        doc = json.loads(path.read_text())
        doc["test"][0]["weight"] += 0.01  # a hand edit: test weights sum to 1.01
        path.write_text(json.dumps(doc))
        with pytest.raises(scenarios.ScenarioError, match="sum to"):
            scenarios.load_bundle(path)
