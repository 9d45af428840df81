import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierdispatch import (DemandModel, EmptyHistory, ServiceLaw, SpikeWindow,
                          fit_rates, region_rates_at, sample_chain)
from hierdispatch.spatial import Depot, make_grid, partition_regions
from hierdispatch.units import MS_PER_HOUR


class TestFitRates:
    def test_empirical_mean(self):
        history = [(0, i) for i in range(24)]
        model = fit_rates(history, horizon_hours=12.0, num_cells=3)
        assert model.rates[0] == pytest.approx(2.0)

    def test_absent_cell_zero(self):
        model = fit_rates([(1, 0)], horizon_hours=4.0, num_cells=3)
        assert model.rates[0] == 0.0
        assert model.rates[2] == 0.0

    def test_two_cells(self):
        history = [(0, i) for i in range(18)] + [(1, i) for i in range(6)]
        model = fit_rates(history, horizon_hours=6.0, num_cells=2)
        assert model.rates[0] == pytest.approx(3.0)
        assert model.rates[1] == pytest.approx(1.0)

    def test_empty_history(self):
        with pytest.raises(EmptyHistory):
            fit_rates([], horizon_hours=1.0, num_cells=4)


class TestSampleChain:
    def test_zero_rates_empty(self):
        model = DemandModel(rates=np.zeros(5))
        chain = sample_chain(model, horizon_ms=10 * MS_PER_HOUR, seed=1)
        assert len(chain) == 0

    def test_poisson_count_within_3_sigma(self):
        # gamma = 1/h over 10,000 h: count ~ Poisson(10,000), sigma = 100
        model = DemandModel(rates=np.array([1.0]))
        chain = sample_chain(model, horizon_ms=10_000 * MS_PER_HOUR, seed=7)
        assert abs(len(chain) - 10_000) <= 300

    def test_deterministic_per_seed(self):
        model = DemandModel(rates=np.array([0.5, 2.0, 0.1]))
        a = sample_chain(model, horizon_ms=100 * MS_PER_HOUR, seed=9)
        b = sample_chain(model, horizon_ms=100 * MS_PER_HOUR, seed=9)
        assert a.incidents == b.incidents
        c = sample_chain(model, horizon_ms=100 * MS_PER_HOUR, seed=10)
        assert a.incidents != c.incidents

    def test_sorted_unique_increasing_ids(self):
        model = DemandModel(rates=np.full(20, 5.0))
        chain = sample_chain(model, horizon_ms=50 * MS_PER_HOUR, seed=3)
        times = [i.report_time_ms for i in chain.incidents]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        assert [i.id for i in chain.incidents] == list(range(len(chain)))

    def test_cells_are_ints_in_zero_rate_gaps(self):
        # only the positive-rate cells are sampled; cell ids stay Python ints
        rates = np.zeros(30)
        rates[[3, 17, 29]] = 2.0
        chain = sample_chain(DemandModel(rates=rates),
                             horizon_ms=20 * MS_PER_HOUR, seed=4)
        assert {i.cell for i in chain.incidents} == {3, 17, 29}
        assert all(type(i.cell) is int for i in chain.incidents)

    def test_interarrival_exponential_mean(self):
        # one cell at 10/h over 10,000 h -> ~1e5 samples; mean gap ~ 6 min
        model = DemandModel(rates=np.array([10.0]))
        chain = sample_chain(model, horizon_ms=10_000 * MS_PER_HOUR, seed=5)
        assert len(chain) >= 95_000
        times = np.array([i.report_time_ms for i in chain.incidents])
        gaps_h = np.diff(times) / MS_PER_HOUR
        assert np.mean(gaps_h) == pytest.approx(0.1, rel=0.05)

    def test_service_laws(self):
        fixed = DemandModel(rates=np.array([3.0]),
                            service=ServiceLaw("fixed", 600_000))
        chain = sample_chain(fixed, horizon_ms=20 * MS_PER_HOUR, seed=2)
        assert {i.service_duration_ms for i in chain.incidents} == {600_000}
        expo = DemandModel(rates=np.array([3.0]),
                           service=ServiceLaw("exponential", 600_000))
        chain = sample_chain(expo, horizon_ms=3000 * MS_PER_HOUR, seed=2)
        durations = np.array([i.service_duration_ms for i in chain.incidents])
        assert np.mean(durations) == pytest.approx(600_000, rel=0.05)


@st.composite
def spiked_models(draw):
    """A model over 1-40 cells with zero-rate cells and 0-3 spike windows."""
    n = draw(st.integers(1, 40))
    rates = [draw(st.sampled_from([0.0, 0.0, 0.01, 0.3, 1.0, 4.0])) for _ in range(n)]
    spikes = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, 10 * MS_PER_HOUR))
        spikes.append(SpikeWindow(
            cells=frozenset(draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))),
            start_ms=start, end_ms=start + draw(st.integers(1, 5 * MS_PER_HOUR)),
            multiplier=draw(st.sampled_from([1.0, 2.0, 4.0]))))
    law = ServiceLaw(draw(st.sampled_from(["fixed", "exponential"])))
    return DemandModel(rates=np.array(rates), spikes=spikes, service=law)


@settings(max_examples=200, deadline=None)
@given(model=spiked_models(), horizon_ms=st.integers(1, 12 * MS_PER_HOUR),
       start_ms=st.integers(0, 6 * MS_PER_HOUR), seed=st.integers(0, 10 ** 6))
# ~4,000 draws in 3.6 s: pushes move the last ones to the window's end or later
@example(model=DemandModel(rates=np.full(2, 2e6)), horizon_ms=3600, start_ms=5, seed=1)
def test_chain_equals_per_segment_reference(model, horizon_ms, start_ms, seed):
    # cells outside every spike window skip _segments; the draws must not
    # move. The reference keeps pushed incidents past the window's end; the
    # chain ends before the first of them
    chain = sample_chain(model, horizon_ms, seed, start_ms=start_ms)
    ref = oracles.sample_chain_by_segments(model, horizon_ms, seed, start_ms=start_ms)
    end_ms = start_ms + horizon_ms
    assert chain.incidents == [i for i in ref.incidents if i.report_time_ms < end_ms]
    assert chain.horizon_ms == ref.horizon_ms


class TestSpikes:
    def test_window_multiplies_only_inside(self):
        spike = SpikeWindow(cells=frozenset({0}), start_ms=0,
                            end_ms=10 * MS_PER_HOUR, multiplier=3.0)
        model = DemandModel(rates=np.array([2.0, 2.0]), spikes=[spike])
        assert model.rate_at(0, 5 * MS_PER_HOUR) == pytest.approx(6.0)
        assert model.rate_at(0, 10 * MS_PER_HOUR) == pytest.approx(2.0)
        assert model.rate_at(1, 5 * MS_PER_HOUR) == pytest.approx(2.0)

    def test_spiked_counts_match_piecewise_expectation(self):
        # multiplier 3 on [0, T): expected count 3*gamma*T inside the
        # window and gamma*T outside; 1000 h halves, gamma = 1/h
        T = 1000 * MS_PER_HOUR
        spike = SpikeWindow(cells=frozenset({0}), start_ms=0, end_ms=T,
                            multiplier=3.0)
        model = DemandModel(rates=np.array([1.0]), spikes=[spike])
        chain = sample_chain(model, horizon_ms=2 * T, seed=11)
        inside = sum(1 for i in chain.incidents if i.report_time_ms < T)
        outside = len(chain) - inside
        assert abs(inside - 3000) <= 4 * np.sqrt(3000)
        assert abs(outside - 1000) <= 4 * np.sqrt(1000)

    def test_restrict_zeroes_other_cells(self):
        spike = SpikeWindow(cells=frozenset({0, 1}), start_ms=0, end_ms=100,
                            multiplier=2.0)
        model = DemandModel(rates=np.array([1.0, 2.0, 3.0]), spikes=[spike])
        sub = model.restrict({1})
        assert list(sub.rates) == [0.0, 2.0, 0.0]
        assert sub.spikes[0].cells == frozenset({1})

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SpikeWindow(cells=frozenset({0}), start_ms=5, end_ms=5, multiplier=2.0)
        with pytest.raises(ValueError):
            SpikeWindow(cells=frozenset({0}), start_ms=0, end_ms=5, multiplier=0.5)


class TestRegionRates:
    def test_effective_rates_follow_spikes(self):
        cells = make_grid(4, 1)
        depots = [Depot(id=0, cell=0), Depot(id=1, cell=3)]
        part = partition_regions(cells, np.array([1.0, 1.0, 1.0, 1.0]),
                                 depots, k=2, seed=0)
        spike = SpikeWindow(cells=frozenset(part.cells_of(0)), start_ms=0,
                            end_ms=100, multiplier=4.0)
        model = DemandModel(rates=np.ones(4), spikes=[spike])
        during = region_rates_at(model, part, 50)
        after = region_rates_at(model, part, 100)
        assert during[0] == pytest.approx(4 * after[0])
        assert during[1] == pytest.approx(after[1])


class TestHistoryFile:
    def test_load_and_fit(self, tmp_path):
        from hierdispatch.harness import load_history
        path = tmp_path / "history.csv"
        path.write_text(
            "incident_id,timestamp_iso8601,gx,gy\n"
            "0,2024-01-01T00:00:00,1,0\n"
            "1,2024-01-01T03:00:00,1,0\n"
            "2,2024-01-01T06:00:00,4,1\n")
        records = load_history(path, width=5, height=2)
        assert records[0] == (1, 0)
        assert records[1] == (1, 3 * MS_PER_HOUR)
        model = fit_rates(records, horizon_hours=6.0, num_cells=10)
        assert model.rates[1] == pytest.approx(2 / 6)
        assert model.rates[9] == pytest.approx(1 / 6)

    def test_rejects_out_of_grid(self, tmp_path):
        from hierdispatch.harness import load_history
        path = tmp_path / "history.csv"
        path.write_text("incident_id,timestamp_iso8601,gx,gy\n"
                        "0,2024-01-01T00:00:00,9,0\n")
        with pytest.raises(ValueError, match=r"row 1: gx '9'"):
            load_history(path, width=5, height=2)
