"""Randomization procedures, sequence sampling and reference-set enumeration.

Three restricted randomization procedures are supported: complete
randomization (independent draws per patient), the random allocation
rule (urn without replacement hitting fixed arm totals), and the
permuted block design (independent random allocation within consecutive
fixed-composition blocks).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from .dose_response import DoseGrid

ENUMERATION_CAP = 10_000_000

CR = "cr"
RA = "ra"
PBD = "pbd"
PROCEDURES = (CR, RA, PBD)


class EnumerationTooLargeError(RuntimeError):
    """The reference set exceeds the enumeration cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(
            f"reference set holds exactly {count} sequences, above the cap of {cap}; "
            "use Monte Carlo sampling instead"
        )
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class RandomizationSpec:
    """One randomization procedure with its design parameters.

    ``targets`` are the per-arm totals for the random allocation rule;
    ``block`` is the per-arm composition of one permuted block;
    ``probs`` are the per-arm assignment probabilities for complete
    randomization (defaults to equal).
    """

    procedure: str
    grid: DoseGrid
    n: int
    targets: tuple[int, ...] | None = None
    block: tuple[int, ...] | None = None
    probs: tuple[float, ...] | None = None
    weights: tuple[int, ...] | None = None  # CR: integer allocation ratio

    def __post_init__(self):
        if self.procedure not in PROCEDURES:
            raise ValueError(f"unknown procedure {self.procedure!r}, expected one of {PROCEDURES}")
        if self.n < 1:
            raise ValueError("n must be positive")
        k = self.grid.k
        if self.procedure == RA:
            if self.targets is None:
                raise ValueError("random allocation needs per-arm targets")
            targets = tuple(int(t) for t in self.targets)
            object.__setattr__(self, "targets", targets)
            if len(targets) != k or any(t < 1 for t in targets):
                raise ValueError(f"need {k} per-arm targets, each at least 1")
            if sum(targets) != self.n:
                raise ValueError(f"targets {targets} do not sum to n={self.n}")
        elif self.procedure == PBD:
            if self.block is None:
                raise ValueError("permuted blocks need a per-arm block composition")
            block = tuple(int(m) for m in self.block)
            object.__setattr__(self, "block", block)
            if len(block) != k or any(m < 0 for m in block) or sum(block) < 1:
                raise ValueError(f"block composition must list {k} nonnegative counts")
            if self.n % sum(block) != 0:
                raise ValueError(
                    f"n={self.n} is not a whole number of blocks of length {sum(block)}; "
                    "partial blocks are not supported"
                )
        else:
            if self.weights is not None and self.probs is not None:
                raise ValueError("give complete randomization weights or probs, not both")
            if self.weights is not None:
                weights = tuple(int(w) for w in self.weights)
                object.__setattr__(self, "weights", weights)
                if len(weights) != k or any(w < 1 for w in weights):
                    raise ValueError(f"need {k} positive integer arm weights")
                total = sum(weights)
                object.__setattr__(self, "probs", tuple(w / total for w in weights))
            else:
                probs = self.probs if self.probs is not None else tuple([1.0 / k] * k)
                probs = tuple(float(p) for p in probs)
                object.__setattr__(self, "probs", probs)
                if len(probs) != k or any(p < 0 for p in probs):
                    raise ValueError(f"need {k} nonnegative arm probabilities")
                if abs(sum(probs) - 1.0) > 1e-12:
                    raise ValueError(f"arm probabilities must sum to 1, got {sum(probs)}")

    @property
    def k(self) -> int:
        return self.grid.k

    @property
    def n_blocks(self) -> int:
        if self.procedure != PBD:
            raise ValueError("only permuted block designs have blocks")
        return self.n // sum(self.block)

    def expected_arm_sizes(self) -> np.ndarray:
        """Target (RA/PBD) or expected (CR) patients per arm."""
        if self.procedure == RA:
            return np.asarray(self.targets, dtype=float)
        if self.procedure == PBD:
            return np.asarray(self.block, dtype=float) * self.n_blocks
        return np.asarray(self.probs, dtype=float) * self.n


def sample_sequences(spec: RandomizationSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` independent treatment sequences; shape (size, n).

    Random allocation permutes the target multiset uniformly (keys
    drawn per position and argsorted); permuted blocks do the same
    independently within each block; complete randomization draws each
    assignment independently from the arm probabilities.
    """
    if spec.procedure == CR:
        return rng.choice(spec.k, size=(size, spec.n), p=np.asarray(spec.probs))
    if spec.procedure == RA:
        template = np.repeat(np.arange(spec.k), spec.targets)
        keys = rng.random((size, spec.n)).argsort(axis=1)
        return template[keys]
    template = np.repeat(np.arange(spec.k), spec.block)
    m = template.shape[0]
    keys = rng.random((size, spec.n_blocks, m)).argsort(axis=2)
    return template[keys].reshape(size, spec.n)


def sample_sequence(spec: RandomizationSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one treatment sequence in enrollment order."""
    return sample_sequences(spec, 1, rng)[0]


def count_sequences(spec: RandomizationSpec) -> tuple[int, float]:
    """Exact size of the reference set and its base-10 logarithm.

    Complete randomization with an integer allocation ratio counts die
    outcomes: a 1:2:2:2 ratio is a seven-faced die, so n patients give
    7^n outcomes even though only 4^n distinct arm sequences exist.
    Equal-probability complete randomization counts k^n as usual.
    """
    if spec.procedure == CR:
        faces = sum(spec.weights) if spec.weights is not None else spec.k
        count = faces ** spec.n
    elif spec.procedure == RA:
        count = _multinomial(spec.targets)
    else:
        count = _multinomial(spec.block) ** spec.n_blocks
    return count, math.log10(count)


def _multinomial(counts) -> int:
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


def sequence_probability(spec: RandomizationSpec, seq: np.ndarray) -> float:
    """Probability the procedure assigns to one member of its reference set."""
    if spec.procedure == CR:
        probs = np.asarray(spec.probs)
        return float(np.prod(probs[np.asarray(seq, dtype=int)]))
    count, _ = count_sequences(spec)
    return 1.0 / count


def is_member(spec: RandomizationSpec, seq) -> bool:
    """Whether a sequence lies in the procedure's reference set."""
    seq = np.asarray(seq, dtype=int)
    if seq.shape != (spec.n,) or np.any((seq < 0) | (seq >= spec.k)):
        return False
    if spec.procedure == CR:
        probs = np.asarray(spec.probs)
        return bool(np.all(probs[seq] > 0))
    if spec.procedure == RA:
        return np.bincount(seq, minlength=spec.k).tolist() == list(spec.targets)
    m = sum(spec.block)
    blocks = seq.reshape(spec.n_blocks, m)
    want = list(spec.block)
    return all(np.bincount(b, minlength=spec.k).tolist() == want for b in blocks)


def enumerate_sequences(
    spec: RandomizationSpec, cap: int = ENUMERATION_CAP
) -> Iterator[tuple[np.ndarray, float]]:
    """Iterate over every reference-set sequence exactly once with its probability.

    Raises :class:`EnumerationTooLargeError` at the call, before any
    sequence is produced, when the exact count exceeds ``cap``.  Under
    weighted complete randomization the items are the distinct arm
    sequences (with their probabilities), not the individually counted
    die outcomes.
    """
    count = spec.k ** spec.n if spec.procedure == CR else count_sequences(spec)[0]
    if count > cap:
        raise EnumerationTooLargeError(count, cap)
    return _reference_set(spec, count)


def _reference_set(spec: RandomizationSpec, count: int) -> Iterator[tuple[np.ndarray, float]]:
    if spec.procedure == CR:
        probs = np.asarray(spec.probs)
        for tup in product(range(spec.k), repeat=spec.n):
            seq = np.array(tup, dtype=int)
            yield seq, float(np.prod(probs[seq]))
        return
    p = 1.0 / count
    if spec.procedure == RA:
        for tup in _multiset_permutations(list(spec.targets)):
            yield np.array(tup, dtype=int), p
        return
    block_arrangements = [
        np.array(tup, dtype=int) for tup in _multiset_permutations(list(spec.block))
    ]
    for combo in product(block_arrangements, repeat=spec.n_blocks):
        yield np.concatenate(combo), p


def _multiset_permutations(counts: list[int]) -> Iterator[tuple[int, ...]]:
    """Distinct arrangements of a multiset given per-symbol counts."""
    total = sum(counts)
    prefix: list[int] = []

    def rec():
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for sym, c in enumerate(counts):
            if c:
                counts[sym] -= 1
                prefix.append(sym)
                yield from rec()
                prefix.pop()
                counts[sym] += 1

    yield from rec()
