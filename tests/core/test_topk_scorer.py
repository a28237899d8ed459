"""Bounded-support (top-k) T2S scoring: equivalence, bounds, drift.

Three contracts from the ISSUE:

1. ``TopKT2SScorer(cap >= n_shards)`` is **bit-identical** to the exact
   scorer end to end - placements, scorer state, snapshot
   restore-then-continue - because a vector over ``n_shards`` shards
   can never exceed ``n_shards`` entries, so truncation never fires.
2. ``place_batch`` and a per-transaction ``place`` loop leave identical
   state, truncation accounting included, on streams with
   duplicate-outpoint transactions; ``place_observed`` agrees with both.
3. Shrinking the cap trades placement quality monotonically on the
   pinned stream: dropped mass grows as the cap shrinks, and the
   cross-shard drift vs exact shrinks to zero as the cap grows.
"""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optchain import OptChainPlacer, TopKOptChainPlacer
from repro.core.placement import make_placer
from repro.core.scorer import (
    PlacementScorer,
    make_scorer,
    truncate_support,
)
from repro.core.t2s import T2SScorer, TopKT2SScorer
from repro.datasets.synthetic import (
    BitcoinLikeGenerator,
    GeneratorConfig,
    synthetic_stream,
)
from repro.errors import ConfigurationError
from repro.partition.quality import cross_shard_fraction
from repro.service.engine import PlacementEngine

N_TX = 4_000


@pytest.fixture(scope="module")
def topk_stream():
    """Dense stream (multi-input heavy) so vector support actually
    exceeds small caps."""
    config = GeneratorConfig(
        n_wallets=400, coinbase_interval=150, bootstrap_coinbase=25
    )
    return synthetic_stream(N_TX, seed=1234, config=config)


# -- the scorer registry / interface ---------------------------------------


def test_registry_and_factory():
    assert PlacementScorer.registry["exact"] is T2SScorer
    assert PlacementScorer.registry["topk"] is TopKT2SScorer
    exact = make_scorer("exact", 4)
    topk = make_scorer("topk", 4, support_cap=2)
    assert isinstance(exact, PlacementScorer)
    assert exact.support_cap is None
    assert topk.support_cap == 2
    with pytest.raises(ConfigurationError, match="unknown scorer"):
        make_scorer("nope", 4)


def test_seed_reference_scorer_does_not_displace_exact():
    import repro.core._seed_reference  # noqa: F401

    assert PlacementScorer.registry["exact"] is T2SScorer


def test_support_cap_validated():
    with pytest.raises(ConfigurationError, match="support_cap"):
        TopKT2SScorer(4, support_cap=0)


def test_strategy_registered_everywhere():
    placer = make_placer("optchain-topk", 8, support_cap=3)
    assert isinstance(placer, TopKOptChainPlacer)
    assert placer.support_cap == 3
    from repro.experiments.configs import get_scale
    from repro.experiments.runner import build_placer

    scale = get_scale("tiny")
    built = build_placer("optchain-topk", 8, scale)
    assert built.support_cap == scale.topk_support_cap


def test_truncate_support_helper():
    vector = {3: 0.5, 0: 0.25, 7: 0.5, 1: 0.125}
    truncated, dropped = truncate_support(vector, 2)
    # Mass ties (shards 3 and 7 at 0.5) keep the lower shard id, and
    # survivors keep their original insertion order.
    assert truncated == {3: 0.5, 7: 0.5}
    assert list(truncated) == [3, 7]
    assert dropped == 0.25 + 0.125
    # Conservation for one truncation event.
    assert math.isclose(
        sum(truncated.values()) + dropped, sum(vector.values())
    )


# -- exactness reduction (cap >= n_shards) ---------------------------------


@pytest.mark.parametrize("n_shards", [4, 16])
def test_cap_at_n_shards_is_bit_identical(topk_stream, n_shards):
    exact = OptChainPlacer(n_shards)
    capped = TopKOptChainPlacer(n_shards, support_cap=n_shards)
    assert exact.place_stream(topk_stream) == capped.place_stream(
        topk_stream
    )
    # Not just the decisions: the entire decision state matches, so
    # every future placement matches too.
    exact_state = exact.export_state()
    capped_state = capped.export_state()
    capped_state["scorer"].pop("dropped_mass")
    capped_state["scorer"].pop("truncated_vectors")
    assert capped_state == exact_state
    assert capped.scorer.dropped_mass_total == 0.0
    assert capped.scorer.truncated_vector_count == 0


def test_cap_at_n_shards_end_to_end_through_engine_and_snapshot(
    tmp_path, topk_stream
):
    """The acceptance criterion's end-to-end lane: core place_batch,
    service engine, snapshot -> restore, all bit-identical to exact
    optchain when cap >= n_shards."""
    n_shards = 8
    expected = OptChainPlacer(n_shards).place_stream(topk_stream)

    engine = PlacementEngine(
        make_placer("optchain-topk", n_shards, support_cap=n_shards),
        epoch_length=500,
    )
    split = len(topk_stream) // 2
    first = engine.place_batch(topk_stream[:split])
    path = tmp_path / "capk.snap"
    engine.checkpoint(path)
    restored = PlacementEngine.restore(path)
    second = restored.place_batch(topk_stream[split:])
    assert first + second == expected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_shards=st.integers(1, 8),
    extra=st.integers(0, 3),
)
def test_cap_ge_n_shards_equivalence_property(seed, n_shards, extra):
    """Any cap >= n_shards reduces to the exact scorer on any stream."""
    stream = BitcoinLikeGenerator(
        config=GeneratorConfig(
            n_wallets=50, coinbase_interval=20, bootstrap_coinbase=5
        ),
        seed=seed,
    ).generate(300)
    exact = OptChainPlacer(n_shards)
    capped = TopKOptChainPlacer(n_shards, support_cap=n_shards + extra)
    assert exact.place_stream(stream) == capped.place_stream(stream)
    assert capped.scorer.dropped_mass_total == 0.0


# -- batch vs per-transaction placement ------------------------------------


def _optchain(cap, n_shards: int = 16):
    """Exact OptChain for ``cap=None``, else the fixed-cap variant."""
    if cap is None:
        return OptChainPlacer(n_shards)
    return TopKOptChainPlacer(n_shards, support_cap=cap)


@pytest.mark.parametrize("cap", [1, 2, 4, None])
def test_batch_equals_per_transaction_path(topk_stream, cap):
    batch = _optchain(cap)
    batched = batch.place_stream(topk_stream)
    single = _optchain(cap)
    looped = [single.place(tx) for tx in topk_stream]
    assert batched == looped
    # Full state, min-mass bounds included: both paths feed the scorer
    # raw outpoint txids, so duplicate-outpoint transactions take the
    # same recurrence branch.
    assert batch.export_state() == single.export_state()


@pytest.mark.parametrize("cap", [2, None])
def test_place_observed_matches_place_and_force_place(topk_stream, cap):
    """``place_observed`` prefers what ``place`` would choose and
    commits what ``force_place`` would commit."""
    stream = topk_stream[:3_000]
    assert any(len(tx.inputs) != len(tx.input_txids) for tx in stream)
    observed = _optchain(cap)
    forced = _optchain(cap)
    for tx in stream:
        # An arbitrary external policy, so the shared history drifts
        # away from what OptChain itself would have built.
        shard = (3 * tx.txid) % observed.n_shards
        duplicate = len(tx.inputs) != len(tx.input_txids)
        if duplicate or tx.txid % 100 == 0:
            expected = copy.deepcopy(observed).place(tx)
            assert observed.place_observed(tx, shard) == expected
        else:
            observed.place_observed(tx, shard)
        forced.force_place(tx, shard)
    assert observed.scorer.export_state() == forced.scorer.export_state()
    assert observed.assignment() == forced.assignment()
    assert observed.shard_sizes() == forced.shard_sizes()
    assert observed.min_shard_size == forced.min_shard_size
    assert observed.max_shard_size == forced.max_shard_size


def test_engine_batches_equal_raw_placer(topk_stream):
    placer = TopKOptChainPlacer(16, support_cap=3)
    expected = placer.place_stream(topk_stream)
    engine = PlacementEngine(
        make_placer("optchain-topk", 16, support_cap=3),
        epoch_length=700,
    )
    got = []
    for start in range(0, len(topk_stream), 512):
        got.extend(engine.place_batch(topk_stream[start : start + 512]))
    assert got == expected


# -- the truncation invariants ---------------------------------------------


def test_support_bound_holds(topk_stream):
    cap = 3
    placer = TopKOptChainPlacer(16, support_cap=cap)
    placer.place_stream(topk_stream)
    scorer = placer.scorer
    assert scorer.truncated_vector_count > 0
    # Arrival truncates to cap; place() may add one more shard.
    assert all(
        len(vector) <= cap + 1
        for vector in scorer._p_prime
        if vector is not None
    )
    stats = scorer.support_stats()
    assert stats["max_nnz"] <= cap + 1
    assert stats["support_cap"] == cap
    assert stats["dropped_mass"] == scorer.dropped_mass_total > 0.0


def test_min_mass_bound_still_sound_after_truncation(topk_stream):
    """The pruning fast path relies on _min_mass lower-bounding every
    entry; truncation must refresh it."""
    placer = TopKOptChainPlacer(16, support_cap=2)
    placer.place_stream(topk_stream)
    scorer = placer.scorer
    for vector, bound in zip(scorer._p_prime, scorer._min_mass):
        if vector:
            assert min(vector.values()) >= bound


def test_single_truncation_event_conserves_mass():
    scorer = TopKT2SScorer(8, support_cap=2, alpha=0.5)
    reference = T2SScorer(8, alpha=0.5)
    # Build four single-entry ancestors on distinct shards, then merge
    # them: the child's 4-entry vector must truncate to 2.
    for txid, shard in enumerate((0, 3, 5, 7)):
        scorer.add_transaction_raw(txid, [])
        scorer.place(txid, shard)
        reference.add_transaction_raw(txid, [])
        reference.place(txid, shard)
    merged = reference.add_transaction_raw(4, [0, 1, 2, 3])
    truncated = scorer.add_transaction_raw(4, [0, 1, 2, 3])
    assert len(merged) == 4
    assert len(truncated) == 2
    assert math.isclose(
        sum(truncated.values()) + scorer.dropped_mass_total,
        sum(merged.values()),
    )
    assert scorer.truncated_vector_count == 1


# -- quality drift ----------------------------------------------------------


def test_drift_shrinks_monotonically_as_cap_grows(topk_stream):
    """The quality/speed dial: on the pinned stream, cross-shard drift
    vs exact is monotone nonincreasing along cap 2 -> 4 -> 8 -> 16 and
    exactly zero once the cap reaches n_shards; dropped mass is
    strictly monotone in the cap everywhere."""
    n_shards = 16
    exact = cross_shard_fraction(
        topk_stream, OptChainPlacer(n_shards).place_stream(topk_stream)
    )
    drifts = []
    dropped = []
    for cap in (2, 4, 8, 16):
        placer = TopKOptChainPlacer(n_shards, support_cap=cap)
        cross = cross_shard_fraction(
            topk_stream, placer.place_stream(topk_stream)
        )
        drifts.append(abs(cross - exact))
        dropped.append(placer.scorer.dropped_mass_total)
    assert drifts == sorted(drifts, reverse=True)
    assert drifts[-1] == 0.0
    assert drifts[0] < 0.02  # the trade stays small even at cap=2
    assert dropped == sorted(dropped, reverse=True)
    assert dropped[-1] == 0.0 < dropped[0]


# -- observability ----------------------------------------------------------


def test_support_stats_tracks_release(topk_stream):
    placer = TopKOptChainPlacer(8, support_cap=4)
    placer.place_stream(topk_stream[:500])
    scorer = placer.scorer
    stats = scorer.support_stats()
    assert stats["live_vectors"] == 500
    assert stats["mean_nnz"] > 0.0
    scorer.release_vectors(range(100))
    after = scorer.support_stats()
    assert after["live_vectors"] == 400
    assert after["dropped_mass"] == stats["dropped_mass"]


def test_engine_stats_surface_support_section(topk_stream):
    engine = PlacementEngine(
        make_placer("optchain-topk", 8, support_cap=2),
        epoch_length=500,
    )
    engine.place_batch(topk_stream[:1_000])
    payload = engine.stats().as_dict()
    support = payload["support"]
    assert support["live_vectors"] > 0
    assert support["max_nnz"] <= 3
    assert support["dropped_mass"] > 0.0
    assert support["support_cap"] == 2
    # Strategies without a scorer report no support section.
    no_scorer = PlacementEngine(make_placer("omniledger", 8))
    assert no_scorer.stats().as_dict()["support"] is None
