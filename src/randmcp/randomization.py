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
from typing import Iterator

import numpy as np

from .dose_response import DoseGrid

ENUMERATION_CAP = 10_000_000
# Reference-set sequences per chunk yielded by enumerate_sequences.
CHUNK = 20_000

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

    ``targets`` are the per-arm totals for the random allocation rule,
    which is a permuted block design with one block of these totals;
    ``block`` is the per-arm composition of one permuted block;
    ``weights`` are the positive integer allocation ratio of complete
    randomization (equal when not given), from which its ``probs`` follow.
    ``n`` and every design count must be a Python or numpy integer.
    """

    procedure: str
    grid: DoseGrid
    n: int
    targets: tuple[int, ...] | None = None
    block: tuple[int, ...] | None = None
    weights: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.procedure not in PROCEDURES:
            raise ValueError(f"unknown procedure {self.procedure!r}, expected one of {PROCEDURES}")
        if not _is_integer(self.n):
            raise ValueError(f"n must be an integer, not {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise ValueError("n must be positive")
        for name in ("targets", "block", "weights"):
            counts = getattr(self, name)
            if counts is not None:
                if not all(map(_is_integer, counts)):
                    raise ValueError(f"{name} must list integers, not {counts!r}")
                object.__setattr__(self, name, tuple(int(c) for c in counts))
        k = self.grid.k
        if self.procedure == RA:
            if self.targets is None:
                raise ValueError("random allocation needs per-arm targets")
            if len(self.targets) != k or any(t < 1 for t in self.targets):
                raise ValueError(f"need {k} per-arm targets, each at least 1")
            if sum(self.targets) != self.n:
                raise ValueError(f"targets {self.targets} do not sum to n={self.n}")
        elif self.procedure == PBD:
            if self.block is None:
                raise ValueError("permuted blocks need a per-arm block composition")
            if len(self.block) != k or any(m < 0 for m in self.block) or sum(self.block) < 1:
                raise ValueError(f"block composition must list {k} nonnegative counts")
            if self.n % sum(self.block) != 0:
                raise ValueError(
                    f"n={self.n} is not a whole number of blocks of length {sum(self.block)}; "
                    "partial blocks are not supported"
                )
        elif self.weights is not None:
            if len(self.weights) != k or any(w < 1 for w in self.weights):
                raise ValueError(f"need {k} positive integer arm weights")

    @property
    def k(self) -> int:
        return self.grid.k

    @property
    def probs(self) -> tuple[float, ...]:
        """Per-arm assignment probabilities of complete randomization."""
        weights = self.weights or (1,) * self.k
        return tuple(w / sum(weights) for w in weights)

    @property
    def composition(self) -> tuple[int, ...]:
        """Per-arm patients of one block; random allocation is one block of the targets."""
        if self.procedure == CR:
            raise ValueError("complete randomization has no blocks")
        return self.targets if self.procedure == RA else self.block

    @property
    def n_blocks(self) -> int:
        return self.n // sum(self.composition)

    def expected_arm_sizes(self) -> np.ndarray:
        """Target (RA/PBD) or expected (CR) patients per arm."""
        if self.procedure == CR:
            return np.asarray(self.probs, dtype=float) * self.n
        return np.asarray(self.composition, dtype=float) * self.n_blocks


def _is_integer(value) -> bool:
    """A Python or numpy integer; bools, floats and everything else are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def sample_sequences(spec: RandomizationSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` independent treatment sequences; shape (size, n).

    Each block (the one block of random allocation, or each permuted
    block) permutes its composition uniformly and independently, by keys
    drawn per position and argsorted; complete randomization draws each
    assignment independently from the arm probabilities.
    """
    if spec.procedure == CR:
        return rng.choice(spec.k, size=(size, spec.n), p=np.asarray(spec.probs))
    template = np.repeat(np.arange(spec.k), spec.composition)
    keys = rng.random((size, spec.n_blocks, template.size)).argsort(axis=2)
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
    else:
        count = _multinomial(spec.composition) ** spec.n_blocks
    return count, math.log10(count)


def _multinomial(counts) -> int:
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


def is_member(spec: RandomizationSpec, seq) -> bool:
    """Whether a sequence lies in the procedure's reference set."""
    seq = np.asarray(seq, dtype=int)
    if seq.shape != (spec.n,) or np.any((seq < 0) | (seq >= spec.k)):
        return False
    if spec.procedure == CR:
        return True
    want = list(spec.composition)
    blocks = seq.reshape(spec.n_blocks, -1)
    return all(np.bincount(b, minlength=spec.k).tolist() == want for b in blocks)


def enumerate_sequences(
    spec: RandomizationSpec, cap: int = ENUMERATION_CAP
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Iterate over the reference set in chunks ``(arms (B, n), probs (B,))``.

    Every chunk but the last holds :data:`CHUNK` sequences, and rows
    come in lexicographic order of their arm indices.  Raises
    :class:`EnumerationTooLargeError` at the call, before any chunk is
    produced, when the exact count exceeds ``cap`` or count times n
    reaches 2^63.  Under weighted complete
    randomization the rows are the distinct arm sequences (with their
    probabilities), not the individually counted die outcomes.
    """
    count = spec.k ** spec.n if spec.procedure == CR else count_sequences(spec)[0]
    cap = min(cap, (2 ** 63 - 1) // spec.n)
    if count > cap:
        raise EnumerationTooLargeError(count, cap)
    return _chunks(spec, count)


def _chunks(spec: RandomizationSpec, count: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The reference set CHUNK rows at a time, each row built from its index."""
    if spec.procedure != CR and spec.n_blocks == 1:
        rows = _prefix_suffix_rows(spec.composition)
    else:
        # One patient (CR) or one block (PBD) per base-``base`` digit of the index.
        if spec.procedure == CR:
            table = np.arange(spec.k)[:, None]
        else:
            table = _arrangements(spec.composition)
        base = table.shape[0]
        place = base ** np.arange(spec.n // table.shape[1] - 1, -1, -1, dtype=np.int64)

        def rows(index):
            return table[index[:, None] // place % base].reshape(index.size, spec.n)
    for lo in range(0, count, CHUNK):
        index = np.arange(lo, min(lo + CHUNK, count), dtype=np.int64)
        arms = rows(index)
        if spec.procedure == CR:
            yield arms, np.prod(np.asarray(spec.probs)[arms], axis=1)
        else:
            yield arms, np.full(index.size, 1.0 / count)


def _extend(rows: np.ndarray, left: np.ndarray, levels: int):
    """Extend every row by ``levels`` more symbols in each way ``left`` allows.

    ``rows`` (R, j) are partial arrangements and ``left`` (R, k) the
    symbols each has still to place.  A row's extensions follow one
    another in lexicographic order, so rows in that order stay in it.
    Returns the extended rows, their ``left`` and the row each came from.
    """
    parent = np.arange(rows.shape[0])
    for _ in range(levels):
        row, sym = np.nonzero(left > 0)  # by row, then by symbol
        rows = np.concatenate([rows[row], sym[:, None]], axis=1)
        left = left[row]
        left[np.arange(row.size), sym] -= 1
        parent = parent[row]
    return rows, left, parent


def _arrangements(counts: tuple[int, ...]) -> np.ndarray:
    """Every arrangement of a multiset, in lexicographic order: (N, n) int64."""
    start = np.empty((1, 0), dtype=np.int64)
    return _extend(start, np.asarray([counts], dtype=np.int64), sum(counts))[0]


def _prefix_suffix_rows(counts: tuple[int, ...]):
    """Row builder for the lexicographic list of a multiset's arrangements.

    An arrangement is one of the distinct prefixes of its first m = n // 2
    positions followed by an arrangement of what that prefix leaves.  The
    prefixes, in lexicographic order, own consecutive runs of rows; the
    suffixes of each composition left are one lexicographic table.  Row
    i is the prefix whose run holds i followed by row ``i - run start``
    of its suffix table, so only the two tables are built.  Reversal
    maps the distinct prefixes of a length onto the distinct suffixes of
    that length, so the middle split keeps the larger table as small as
    it can be: 690 rows each for (4, 4, 4), and 2,142 and 6,174 for
    (5, 5, 5), whose arrangements number 756,756.
    """
    n, m = sum(counts), sum(counts) // 2
    start = np.empty((1, 0), dtype=np.int64)
    prefixes, left, _ = _extend(start, np.asarray([counts], dtype=np.int64), m)
    # One suffix table per composition left; tables lie end to end in ``suffixes``.
    lefts, table_of = np.unique(left, axis=0, return_inverse=True)
    table_of = table_of.ravel()  # numpy 2.0.0 returns it as (P, 1)
    suffixes, _, owner = _extend(start.repeat(lefts.shape[0], 0), lefts, n - m)
    sizes = np.bincount(owner, minlength=lefts.shape[0])
    run = sizes[table_of]
    ends = np.cumsum(run)
    # Suffix row of row i is i + shift[prefix].
    shift = (np.cumsum(sizes) - sizes)[table_of] - (ends - run)

    def rows(index):
        prefix = np.searchsorted(ends, index, side="right")
        out = np.empty((index.size, n), dtype=np.int64)
        # Gathered straight into ``out``; every index is in range, and
        # mode="clip" only skips the buffer that mode="raise" copies through.
        np.take(prefixes, prefix, axis=0, out=out[:, :m], mode="clip")
        np.take(suffixes, index + shift[prefix], axis=0, out=out[:, m:], mode="clip")
        return out
    return rows
