"""Open-loop arrival schedules: deterministic, rate-true, duration-capped."""

from __future__ import annotations

import pytest

from repro.bench.loadgen import generate_arrivals


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        for process in ("poisson", "bursty", "uniform"):
            a = generate_arrivals(process=process, rate=80.0, duration_s=2.0,
                                  seed=42)
            b = generate_arrivals(process=process, rate=80.0, duration_s=2.0,
                                  seed=42)
            assert a == b, process

    def test_different_seed_different_schedule(self):
        a = generate_arrivals(process="poisson", rate=80.0, duration_s=2.0,
                              seed=1)
        b = generate_arrivals(process="poisson", rate=80.0, duration_s=2.0,
                              seed=2)
        assert a != b

    def test_no_global_rng_coupling(self):
        import random

        random.seed(12345)
        a = generate_arrivals(process="poisson", rate=50.0, duration_s=1.0,
                              seed=9)
        random.seed(99999)
        b = generate_arrivals(process="poisson", rate=50.0, duration_s=1.0,
                              seed=9)
        assert a == b


class TestShape:
    def test_duration_cap(self):
        for process in ("poisson", "bursty", "uniform"):
            arrivals = generate_arrivals(process=process, rate=200.0,
                                         duration_s=1.5, seed=3)
            assert arrivals, process
            assert all(0.0 < t < 1.5 for t in arrivals), process

    def test_sorted_offsets(self):
        for process in ("poisson", "bursty", "uniform"):
            arrivals = generate_arrivals(process=process, rate=100.0,
                                         duration_s=2.0, seed=5)
            assert arrivals == sorted(arrivals), process

    def test_poisson_mean_rate(self):
        arrivals = generate_arrivals(process="poisson", rate=100.0,
                                     duration_s=20.0, seed=0)
        # 2000 expected, sd ~45; a 4-sigma band keeps this deterministic
        # test meaningful without being flaky across seeds.
        assert 1800 <= len(arrivals) <= 2200

    def test_uniform_spacing(self):
        arrivals = generate_arrivals(process="uniform", rate=10.0,
                                     duration_s=1.0)
        assert len(arrivals) in (9, 10)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(abs(g - 0.1) < 1e-9 for g in gaps)

    def test_bursty_emits_whole_bursts_at_mean_rate(self):
        arrivals = generate_arrivals(process="bursty", rate=100.0,
                                     duration_s=20.0, seed=7, burst_size=8)
        assert len(arrivals) % 8 == 0
        assert 1300 <= len(arrivals) <= 2700  # mean 2000, heavier variance
        # Arrivals inside one burst are simultaneous.
        first_epoch = arrivals[0]
        assert arrivals[:8] == [first_epoch] * 8


class TestValidation:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            generate_arrivals(process="poisson", rate=0.0, duration_s=1.0)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            generate_arrivals(process="poisson", rate=10.0, duration_s=0.0)

    def test_rejects_bad_burst_size(self):
        with pytest.raises(ValueError):
            generate_arrivals(process="bursty", rate=10.0, duration_s=1.0,
                              burst_size=0)

    def test_rejects_unknown_process(self):
        with pytest.raises(ValueError):
            generate_arrivals(process="fractal", rate=10.0, duration_s=1.0)
