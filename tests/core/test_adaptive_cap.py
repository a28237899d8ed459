"""Adaptive support cap (``auto:<rate>``) and the ``t2s-topk`` lane.

The adaptive policy's contract: the cap is monotone nondecreasing,
never exceeds ``n_shards``, grows exactly when a window's dropped-mass
rate exceeds the target, and the two degenerate targets behave as
advertised - ``auto:0`` converges toward exact scoring whenever mass is
dropped, a near-1 target freezes the initial cap.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import T2SOnlyPlacer, TopKT2SOnlyPlacer
from repro.core.optchain import OptChainPlacer, TopKOptChainPlacer
from repro.core.placement import make_placer
from repro.core.scorer import parse_support_cap
from repro.core.t2s import AdaptiveTopKT2SScorer, TopKT2SScorer
from repro.datasets.synthetic import synthetic_stream
from repro.errors import ConfigurationError

N_SHARDS = 16


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(8_000, seed=3)


class TestParse:
    def test_forms(self):
        assert parse_support_cap(8) == ("fixed", 8)
        assert parse_support_cap("8") == ("fixed", 8)
        assert parse_support_cap("auto:0.01") == ("auto", 0.01)
        assert parse_support_cap("auto:0") == ("auto", 0.0)

    @pytest.mark.parametrize(
        "bad", ["auto:", "auto:x", "auto:1.5", "auto:-0.1", "cap", 1.5, True]
    )
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            parse_support_cap(bad)


class TestAdaptiveScorer:
    def test_cap_monotone_and_bounded(self, stream):
        placer = TopKOptChainPlacer(
            N_SHARDS, support_cap="auto:0.001", support_window=500
        )
        scorer = placer.scorer
        assert isinstance(scorer, AdaptiveTopKT2SScorer)
        caps = []
        for offset in range(0, len(stream), 400):
            placer.place_batch(stream[offset : offset + 400])
            caps.append(placer.support_cap)
        assert caps == sorted(caps)  # never shrinks
        assert all(cap <= N_SHARDS for cap in caps)
        assert caps[-1] > scorer.initial_cap  # it actually adapted
        assert scorer.cap_growths > 0

    def test_growth_follows_window_rate(self):
        # Drive the window check directly: a window whose rate exceeds
        # the target doubles the cap, one below leaves it.
        scorer = AdaptiveTopKT2SScorer(
            8, target_rate=0.1, support_cap=2, window=10
        )
        scorer._window_count = 10
        scorer._window_mass = 100.0
        scorer._window_dropped = 20.0  # rate 0.2 > 0.1
        scorer._evaluate_window()
        assert scorer.support_cap == 4
        scorer._window_mass = 100.0
        scorer._window_dropped = 5.0  # rate 0.05 < 0.1
        scorer._evaluate_window()
        assert scorer.support_cap == 4
        # Counters reset after every evaluation.
        assert scorer._window_mass == 0.0
        assert scorer._window_count == 0

    def test_huge_target_freezes_initial_cap(self, stream):
        placer = TopKOptChainPlacer(
            N_SHARDS, support_cap="auto:0.99", support_window=200
        )
        placer.place_batch(stream[:4_000])
        assert placer.support_cap == placer.scorer.initial_cap
        assert placer.scorer.cap_growths == 0

    def test_zero_target_converges_to_exact_cap(self, stream):
        placer = TopKOptChainPlacer(
            N_SHARDS, support_cap="auto:0", support_window=200
        )
        placer.place_batch(stream[:6_000])
        # Any dropped mass forces growth; at cap == n_shards truncation
        # can never fire again, so the cap pins there.
        assert placer.support_cap == N_SHARDS

    @settings(max_examples=15, deadline=None)
    @given(
        target=st.floats(min_value=0.0, max_value=0.5),
        window=st.integers(min_value=50, max_value=1_000),
        initial=st.integers(min_value=1, max_value=16),
    )
    def test_property_cap_invariants(self, target, window, initial):
        stream = synthetic_stream(2_500, seed=11)
        placer = TopKOptChainPlacer(
            8,
            support_cap=f"auto:{target!r}",
            support_initial_cap=initial,
            support_window=window,
        )
        scorer = placer.scorer
        last = scorer.support_cap
        assert last == min(initial, 8)
        for offset in range(0, len(stream), 250):
            placer.place_batch(stream[offset : offset + 250])
            cap = scorer.support_cap
            assert last <= cap <= 8
            last = cap
        # The current vector-support bound always holds for the
        # *final* cap (caps only grow, so earlier vectors obey it too;
        # +1 for the post-placement alpha credit).
        for vector in scorer._p_prime:
            if vector is not None:
                assert len(vector) <= cap + 1

    def test_adaptive_runs_unfused_but_matches_itself(self, stream):
        """The kernel never runs the adaptive scorer, and the batched
        path must equal one-at-a-time placement."""
        batched = TopKOptChainPlacer(
            N_SHARDS, support_cap="auto:0.01", support_window=300
        )
        single = TopKOptChainPlacer(
            N_SHARDS, support_cap="auto:0.01", support_window=300
        )
        prefix = stream[:3_000]
        batched_shards = batched.place_batch(prefix)
        single_shards = [single.place(tx) for tx in prefix]
        assert batched_shards == single_shards
        assert batched.support_cap == single.support_cap

    def test_engine_snapshot_round_trip(self, stream, tmp_path):
        from repro.service.engine import PlacementEngine
        from repro.service.state import load_engine_snapshot

        engine = PlacementEngine(
            make_placer(
                "optchain-topk",
                N_SHARDS,
                support_cap="auto:0.005",
                support_window=300,
            ),
            epoch_length=1_000,
        )
        engine.place_batch(stream[:4_000])
        grown_cap = engine.placer.support_cap
        path = tmp_path / "adaptive.snap"
        engine.checkpoint(path)
        restored = load_engine_snapshot(path)
        scorer = restored.placer.scorer
        assert isinstance(scorer, AdaptiveTopKT2SScorer)
        assert scorer.support_cap == grown_cap
        assert scorer.target_rate == 0.005
        assert scorer.window == 300
        # Continuing is bit-identical (window counters restored too).
        expected = engine.place_batch(stream[4_000:])
        assert restored.place_batch(stream[4_000:]) == expected


class TestT2STopK:
    def test_registered_in_factory(self):
        placer = make_placer("t2s-topk", N_SHARDS, support_cap=4)
        assert isinstance(placer, TopKT2SOnlyPlacer)
        assert placer.support_cap == 4

    def test_cap_at_least_n_shards_is_bit_identical(self, stream):
        exact = T2SOnlyPlacer(N_SHARDS, expected_total=4_000)
        capped = TopKT2SOnlyPlacer(
            N_SHARDS, support_cap=N_SHARDS, expected_total=4_000
        )
        prefix = stream[:4_000]
        assert capped.place_stream(prefix) == exact.place_stream(prefix)
        assert capped.scorer.truncated_vector_count == 0

    def test_finite_cap_truncates_and_tracks(self, stream):
        capped = TopKT2SOnlyPlacer(N_SHARDS, support_cap=2)
        capped.place_stream(stream[:4_000])
        stats = capped.scorer.support_stats()
        assert stats["support_cap"] == 2
        assert stats["max_nnz"] <= 3  # cap + post-placement credit
        assert capped.scorer.dropped_mass_total > 0.0

    def test_adaptive_t2s_lane(self, stream):
        placer = TopKT2SOnlyPlacer(
            N_SHARDS, support_cap="auto:0.001", support_window=400
        )
        placer.place_stream(stream[:4_000])
        assert placer.support_cap > placer.scorer.initial_cap

    def test_snapshot_round_trip(self, stream, tmp_path):
        from repro.service.engine import PlacementEngine
        from repro.service.state import load_engine_snapshot

        engine = PlacementEngine(
            make_placer("t2s-topk", N_SHARDS, support_cap=3),
            epoch_length=1_000,
        )
        engine.place_batch(stream[:2_000])
        path = tmp_path / "t2s_topk.snap"
        engine.checkpoint(path)
        restored = load_engine_snapshot(path)
        assert isinstance(restored.placer, TopKT2SOnlyPlacer)
        assert restored.placer.support_cap == 3
        expected = engine.place_batch(stream[2_000:3_000])
        assert restored.place_batch(stream[2_000:3_000]) == expected

    def test_experiment_runner_builds_it(self):
        from repro.experiments.configs import get_scale
        from repro.experiments.runner import build_placer

        scale = get_scale("tiny")
        placer = build_placer("t2s-topk", 8, scale, expected_total=100)
        assert isinstance(placer, TopKT2SOnlyPlacer)
        assert placer.support_cap == scale.topk_support_cap


class TestExactUntouched:
    def test_plain_strategies_stay_fused_compatible(self):
        assert OptChainPlacer(4).scorer.fused_compatible
        assert TopKT2SScorer(4, support_cap=2).fused_compatible
        assert not AdaptiveTopKT2SScorer(4, target_rate=0.1).fused_compatible
