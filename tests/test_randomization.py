import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from oracles import enumerated, reference_sequences, sequence_probability, unrank_multiset

from randmcp import randomization
from randmcp.dose_response import DoseGrid
from randmcp.randomization import (
    EnumerationTooLargeError,
    RandomizationSpec,
    count_sequences,
    enumerate_sequences,
    is_member,
    sample_sequence,
    sample_sequences,
)
from randmcp.rng import substream

GRID4 = DoseGrid(doses=(0.0, 10.0, 25.0, 100.0))
GRID2 = DoseGrid(doses=(0.0, 100.0))

TRIAL_PBD = RandomizationSpec(procedure="pbd", grid=GRID4, n=49, block=(1, 2, 2, 2))
TRIAL_RA = RandomizationSpec(procedure="ra", grid=GRID4, n=49, targets=(7, 14, 14, 14))
TRIAL_CR = RandomizationSpec(procedure="cr", grid=GRID4, n=49, weights=(1, 2, 2, 2))


class TestSpecValidation:
    def test_ra_targets_must_sum(self):
        with pytest.raises(ValueError, match="sum"):
            RandomizationSpec(procedure="ra", grid=GRID4, n=49, targets=(7, 14, 14, 13))

    def test_pbd_rejects_partial_blocks(self):
        with pytest.raises(ValueError, match="partial blocks"):
            RandomizationSpec(procedure="pbd", grid=GRID4, n=50, block=(1, 2, 2, 2))

    def test_cr_allocation_is_stated_by_weights_alone(self):
        with pytest.raises(TypeError, match="probs"):
            RandomizationSpec(procedure="cr", grid=GRID2, n=10, probs=(0.5, 0.5))

    @pytest.mark.parametrize("weights", [(1, 0), (1, 2, 2), (1, -1)])
    def test_cr_weights_must_be_positive_one_per_arm(self, weights):
        with pytest.raises(ValueError, match="positive integer arm weights"):
            RandomizationSpec(procedure="cr", grid=GRID2, n=10, weights=weights)

    def test_cr_probs_follow_the_weights(self):
        assert TRIAL_CR.probs == (1 / 7, 2 / 7, 2 / 7, 2 / 7)
        assert RandomizationSpec(procedure="cr", grid=GRID4, n=5).probs == (0.25,) * 4

    def test_unknown_procedure(self):
        with pytest.raises(ValueError, match="unknown procedure"):
            RandomizationSpec(procedure="urn", grid=GRID2, n=10)


class TestCounts:
    def test_trial_pbd_count_exact(self):
        count, log10 = count_sequences(TRIAL_PBD)
        assert count == 630 ** 7
        assert log10 == pytest.approx(7 * math.log10(630))

    def test_trial_ra_count_exact(self):
        count, _ = count_sequences(TRIAL_RA)
        expected = math.factorial(49) // (
            math.factorial(7) * math.factorial(14) ** 3
        )
        assert count == expected
        assert f"{count:.2e}".startswith("1.82")

    def test_trial_cr_count_counts_die_faces(self):
        count, _ = count_sequences(TRIAL_CR)
        assert count == 7 ** 49

    def test_plain_cr_counts_arm_sequences(self):
        spec = RandomizationSpec(procedure="cr", grid=GRID4, n=6)
        assert count_sequences(spec)[0] == 4 ** 6

    def test_pbd_is_subset_of_ra_is_subset_of_cr(self):
        c_pbd, _ = count_sequences(TRIAL_PBD)
        c_ra, _ = count_sequences(TRIAL_RA)
        c_cr, _ = count_sequences(TRIAL_CR)
        assert c_pbd < c_ra < c_cr


class TestSampling:
    def test_ra_hits_targets_exactly(self):
        rng = substream(1, 0)
        seqs = sample_sequences(TRIAL_RA, 500, rng)
        for seq in seqs:
            assert np.bincount(seq, minlength=4).tolist() == [7, 14, 14, 14]

    def test_pbd_every_block_matches_composition(self):
        rng = substream(1, 1)
        seqs = sample_sequences(TRIAL_PBD, 500, rng)
        blocks = seqs.reshape(500, 7, 7)
        counts = np.stack([(blocks == j).sum(axis=2) for j in range(4)], axis=2)
        assert np.all(counts == np.array([1, 2, 2, 2]))

    def test_cr_law_of_large_numbers(self):
        spec = RandomizationSpec(procedure="cr", grid=GRID2, n=1_000_000)
        seq = sample_sequence(spec, substream(1, 2))
        assert abs(np.mean(seq == 0) - 0.5) < 0.002

    def test_marginal_assignment_matches_design_ratio(self):
        # Each patient's marginal arm probability equals the ratio under
        # all three procedures (3-sigma Monte Carlo band).
        reps = 4000
        for spec in (TRIAL_PBD, TRIAL_RA, TRIAL_CR):
            seqs = sample_sequences(spec, reps, substream(2, hash(spec.procedure) % 100))
            for patient in (0, 6, 24, 48):
                freq = np.bincount(seqs[:, patient], minlength=4) / reps
                expected = np.array([1, 2, 2, 2]) / 7
                sigma = np.sqrt(expected * (1 - expected) / reps)
                assert np.all(np.abs(freq - expected) < 3.5 * sigma)

    def test_sampling_is_deterministic_per_stream(self):
        a = sample_sequences(TRIAL_PBD, 5, substream(7, 3))
        b = sample_sequences(TRIAL_PBD, 5, substream(7, 3))
        c = sample_sequences(TRIAL_PBD, 5, substream(7, 4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestEnumeration:
    def test_ra_two_plus_two(self):
        spec = RandomizationSpec(procedure="ra", grid=GRID2, n=4, targets=(2, 2))
        items = list(zip(*enumerated(spec)))
        assert len(items) == 6
        assert all(p == pytest.approx(1 / 6) for _, p in items)
        seqs = {tuple(s) for s, _ in items}
        assert len(seqs) == 6

    def test_pbd_two_blocks(self):
        spec = RandomizationSpec(procedure="pbd", grid=GRID2, n=4, block=(1, 1))
        items = list(zip(*enumerated(spec)))
        assert len(items) == 4
        assert all(p == pytest.approx(1 / 4) for _, p in items)

    def test_probabilities_sum_to_one(self):
        specs = [
            RandomizationSpec(procedure="ra", grid=GRID4, n=8, targets=(2, 2, 2, 2)),
            RandomizationSpec(procedure="pbd", grid=GRID2, n=6, block=(1, 2)),
            RandomizationSpec(procedure="cr", grid=GRID2, n=8, weights=(1, 2)),
        ]
        for spec in specs:
            total = sum(p for _, p in zip(*enumerated(spec)))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_cap_error_names_exact_count(self):
        with pytest.raises(EnumerationTooLargeError) as err:
            list(enumerate_sequences(TRIAL_RA, cap=1000))
        assert err.value.count == count_sequences(TRIAL_RA)[0]

    def test_nesting_pbd_within_ra_within_cr(self):
        pbd = RandomizationSpec(procedure="pbd", grid=GRID2, n=6, block=(1, 2))
        ra = RandomizationSpec(procedure="ra", grid=GRID2, n=6, targets=(2, 4))
        cr = RandomizationSpec(procedure="cr", grid=GRID2, n=6, weights=(1, 2))
        pbd_set = {tuple(s) for s, _ in zip(*enumerated(pbd))}
        ra_set = {tuple(s) for s, _ in zip(*enumerated(ra))}
        assert pbd_set < ra_set
        for seq in ra_set:
            assert is_member(cr, np.array(seq))

    def test_sampling_frequencies_match_enumeration(self):
        spec = RandomizationSpec(procedure="ra", grid=GRID2, n=6, targets=(3, 3))
        items = list(zip(*enumerated(spec)))
        index = {tuple(s): i for i, (s, _) in enumerate(items)}
        draws = 100_000
        seqs = sample_sequences(spec, draws, substream(3, 0))
        observed = np.zeros(len(items))
        for seq in seqs:
            observed[index[tuple(seq)]] += 1
        expected = np.array([p * draws for _, p in items])
        result = chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_enumeration_matches_membership_and_probability(self):
        spec = RandomizationSpec(procedure="pbd", grid=GRID4, n=8, block=(1, 1, 1, 1))
        for seq, prob in zip(*enumerated(spec)):
            assert is_member(spec, seq)
            assert prob == pytest.approx(sequence_probability(spec, seq))


def _grid(k):
    return DoseGrid(doses=tuple(float(d) for d in range(k)))


@st.composite
def small_specs(draw):
    """RA, PBD (blocks may hold zero of an arm) and CR reference sets of at most 13,824 rows."""
    procedure = draw(st.sampled_from(["ra", "pbd", "cr_weights", "cr_equal"]))
    k = draw(st.integers(2, 4))
    if procedure == "ra":
        targets = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)
                       .filter(lambda t: sum(t) <= 9))
        return RandomizationSpec(procedure="ra", grid=_grid(k), n=sum(targets), targets=targets)
    if procedure == "pbd":
        block = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)
                     .filter(lambda b: 1 <= sum(b) <= 4))
        n_blocks = draw(st.integers(1, 3))
        return RandomizationSpec(procedure="pbd", grid=_grid(k), n=n_blocks * sum(block),
                                 block=block)
    n = draw(st.integers(1, {2: 12, 3: 7, 4: 6}[k]))
    if procedure == "cr_weights":
        weights = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
        return RandomizationSpec(procedure="cr", grid=_grid(k), n=n, weights=weights)
    return RandomizationSpec(procedure="cr", grid=_grid(k), n=n)


class TestChunkedEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(spec=small_specs(), chunk=st.sampled_from([3, 7, randomization.CHUNK]))
    def test_chunks_match_per_sequence_generator(self, spec, chunk):
        items = list(reference_sequences(spec))
        want_arms = np.stack([seq for seq, _ in items])
        want_probs = np.array([prob for _, prob in items])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randomization, "CHUNK", chunk)
            chunks = list(enumerate_sequences(spec))
        assert all(arms.shape[0] == chunk for arms, _ in chunks[:-1])
        assert 1 <= chunks[-1][0].shape[0] <= chunk
        arms = np.concatenate([a for a, _ in chunks])
        probs = np.concatenate([p for _, p in chunks])
        assert arms.dtype == want_arms.dtype
        assert np.array_equal(arms, want_arms)
        assert np.array_equal(probs.view(np.uint64), want_probs.view(np.uint64))

    def test_cap_admits_only_counts_that_unrank_exactly(self):
        # Unranking multiplies a count by at most n, in 64-bit integers.
        admitted = RandomizationSpec(procedure="cr", grid=GRID2, n=57)  # 57 * 2**57 < 2**63
        enumerate_sequences(admitted, cap=2 ** 64)  # lazy: builds no chunk
        refused = RandomizationSpec(procedure="cr", grid=GRID2, n=58)  # 58 * 2**58 >= 2**63
        with pytest.raises(EnumerationTooLargeError) as err:
            enumerate_sequences(refused, cap=2 ** 64)
        assert err.value.count == 2 ** 58
        assert err.value.cap == (2 ** 63 - 1) // 58


@st.composite
def block_specs(draw):
    """RA and PBD reference sets with k = 2-5 arms, n <= 14 and at most 40,000 rows."""
    k = draw(st.integers(2, 5))
    if draw(st.booleans()):
        targets = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)
                       .filter(lambda t: sum(t) <= 14))
        assume(randomization._multinomial(targets) <= 40_000)
        return RandomizationSpec(procedure="ra", grid=_grid(k), n=sum(targets), targets=targets)
    block = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                 .filter(lambda b: 1 <= sum(b) <= 7))
    n_blocks = draw(st.integers(1, 14 // sum(block)))
    assume(randomization._multinomial(block) ** n_blocks <= 40_000)
    return RandomizationSpec(procedure="pbd", grid=_grid(k), n=n_blocks * sum(block),
                             block=block)


def unranked(spec):
    """Every row of a RA or PBD reference set, each block unranked position by position."""
    block = spec.composition
    table = unrank_multiset(block, np.arange(randomization._multinomial(block)))
    digits = np.array(list(itertools.product(range(table.shape[0]), repeat=spec.n_blocks)))
    return table[digits].reshape(-1, spec.n)


class TestPrefixSuffixTables:
    @settings(max_examples=80, deadline=None)
    @given(spec=block_specs(), chunk=st.sampled_from([1, 3, 7, randomization.CHUNK]))
    def test_chunks_match_unranking_oracle(self, spec, chunk):
        want = unranked(spec)
        assume(want.shape[0] // chunk <= 5_000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(randomization, "CHUNK", chunk)
            chunks = list(enumerate_sequences(spec))
        assert [a.shape[0] for a, _ in chunks] == [
            min(chunk, want.shape[0] - lo) for lo in range(0, want.shape[0], chunk)]
        arms = np.concatenate([a for a, _ in chunks])
        probs = np.concatenate([p for _, p in chunks])
        assert arms.dtype == want.dtype and np.array_equal(arms, want)
        assert np.array_equal(probs, np.full(want.shape[0], 1.0 / want.shape[0]))

    def test_memory_stays_within_a_few_chunks(self):
        # 756,756 rows of 15 patients: the whole set would be 38 chunks.
        spec = RandomizationSpec(procedure="ra", grid=_grid(3), n=15, targets=(5, 5, 5))
        chunk_bytes = randomization.CHUNK * spec.n * np.dtype(np.int64).itemsize
        rows = 0
        tracemalloc.start()
        try:
            for arms, _ in enumerate_sequences(spec):
                rows += arms.shape[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == count_sequences(spec)[0]
        assert peak < 4 * chunk_bytes


class TestMembership:
    def test_ra_membership(self):
        assert is_member(TRIAL_RA, np.repeat([0, 1, 2, 3], [7, 14, 14, 14]))
        assert not is_member(TRIAL_RA, np.repeat([0, 1, 2, 3], [8, 13, 14, 14]))

    def test_pbd_membership_checks_every_block(self):
        good = np.tile(np.array([0, 1, 1, 2, 2, 3, 3]), 7)
        assert is_member(TRIAL_PBD, good)
        bad = good.copy()
        bad[0], bad[8] = bad[8], bad[0]  # swap arms across blocks keeps totals
        assert is_member(TRIAL_RA, bad)
        assert not is_member(TRIAL_PBD, bad)


class TestSubstream:
    def test_distinct_paths_are_independent(self):
        a = substream(11, 0, 1).random(4)
        b = substream(11, 0, 2).random(4)
        assert not np.allclose(a, b)

    def test_same_path_reproduces(self):
        assert np.array_equal(substream(11, 5).random(8), substream(11, 5).random(8))

    def test_invalid_seed_rejected(self):
        with pytest.raises(ValueError):
            substream(-1)


class TestRandomAllocationIsOneBlock:
    def test_composition_and_block_count(self):
        assert TRIAL_RA.composition == (7, 14, 14, 14) and TRIAL_RA.n_blocks == 1
        assert TRIAL_PBD.composition == (1, 2, 2, 2) and TRIAL_PBD.n_blocks == 7
        with pytest.raises(ValueError, match="no blocks"):
            TRIAL_CR.composition

    def test_one_block_pbd_is_random_allocation(self):
        pbd = RandomizationSpec(procedure="pbd", grid=GRID4, n=7, block=(1, 2, 2, 2))
        ra = RandomizationSpec(procedure="ra", grid=GRID4, n=7, targets=(1, 2, 2, 2))
        assert np.array_equal(sample_sequences(pbd, 50, substream(3, 0)),
                              sample_sequences(ra, 50, substream(3, 0)))
        assert count_sequences(pbd) == count_sequences(ra)
        (pbd_arms, pbd_probs), = enumerate_sequences(pbd)
        (ra_arms, ra_probs), = enumerate_sequences(ra)
        assert np.array_equal(pbd_arms, ra_arms) and np.array_equal(pbd_probs, ra_probs)
        assert all(is_member(pbd, row) for row in ra_arms)
