"""Seeding and RNG-discipline machinery.

Every stochastic entry point in the library accepts either an integer seed
or a ready :class:`numpy.random.Generator`.  Child streams (one per Monte
Carlo trial, one per policy) are derived with ``Generator.spawn`` so trials
are statistically independent and fully reproducible from a single seed.

Disciplines
-----------
Batched execution supports two *versioned RNG disciplines* selecting how
the batch kernel consumes randomness:

``"v1"`` (serial replay, the default)
    The kernel replays the serial estimators' RNG tree exactly — one
    spawned generator per trial, the engine's per-trial ``spawn(2)`` split,
    per-trial ``Generator.random(k)`` coin flips under ``suu`` semantics.
    Batched, chunked, and scalar runs are **bit-identical**.

``"v2"`` (batch native, a documented break)
    Outcome randomness is drawn in whole-batch blocks from a per-run
    :class:`numpy.random.SeedSequence` spawn tree (:class:`BatchStreams`):
    one ``(n_trials, n_jobs)`` matrix of SUU* thresholds per batch, and
    matrix-valued policy randomness (SUU-C's chain delays).  By the
    paper's Theorem 10 the thresholds serve ``suu`` as well as
    ``suu_star``, so the two semantics are one v2 stream (per-trial
    dispatch excepted, which replays v1's coin flips).  Makespan *streams*
    differ from v1, but every draw has the same distribution, so all
    estimates are statistically equivalent; results remain deterministic
    in the seed and independent of chunking (streams are addressed by
    global trial index, not chunk-local position).

The active discipline is resolved by :func:`resolve_discipline`: an
explicit argument wins, then the ``REPRO_DISCIPLINE`` environment
variable, then ``"v1"``.

The v2 spawn-tree contract
--------------------------
All v2 randomness hangs off one :class:`numpy.random.SeedSequence` per
run (:func:`run_seed_sequence`).  Stream keys extend the root's
``spawn_key`` with a fixed marker word plus a purpose tag, so v2 streams
can never collide with the ``rng.spawn(n_trials)`` children the v1 tree
hands out from the same seed:

* ``(marker, 0)`` — SUU* thresholds, one row per trial.
* ``(marker, 1, t)`` — step ``t``'s SUU completion uniforms, one row per
  trial (:meth:`BatchStreams.step_uniforms`).  No engine path draws
  them — v2 ``suu`` samples thresholds — and the key is kept for
  ``perfbench``'s tracer, which wraps that method.
* ``(marker, 2, *key)`` — policy randomness (e.g. SUU-C chain delays,
  keyed by block for SUU-T).
* ``(marker, 3, i)`` — per-policy substreams (``compare_policies``).

Rows are addressed by *global* trial index: a chunk simulating trials
``[lo, hi)`` of a larger run reads rows ``lo..hi-1`` of each conceptual
matrix (via :meth:`BatchStreams.with_offset`), which is what makes v2
results invariant under backend and chunk layout.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "SpawnedRngs",
    "DISCIPLINES",
    "DISCIPLINE_ENV_VAR",
    "resolve_discipline",
    "run_seed_sequence",
    "BatchStreams",
]

#: The recognized RNG disciplines (see module docstring).
DISCIPLINES: tuple[str, ...] = ("v1", "v2")

#: Environment variable supplying the default discipline when none is
#: passed explicitly (CI runs the tier-1 suite once with this set to v2).
DISCIPLINE_ENV_VAR = "REPRO_DISCIPLINE"

#: Marker word prefixed to every v2 stream's spawn key.  ``rng.spawn``
#: children of the same seed extend the spawn key with small counters, so
#: a large fixed word keeps the two trees disjoint.
_V2_MARKER = 0x52455052  # "REPR"

# Purpose tags under the marker (see module docstring).
_TAG_THRESHOLDS = 0
_TAG_STEP = 1
_TAG_POLICY = 2
_TAG_SUBSTREAM = 3


def ensure_rng(seed_or_rng=None) -> np.random.Generator:
    """Coerce ``seed_or_rng`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh nondeterministically-seeded generator; an int
    (or anything :class:`numpy.random.SeedSequence` accepts) yields a
    deterministic one; an existing generator is passed through unchanged.
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def spawn_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Uses ``Generator.spawn`` (SeedSequence-based), so children are
    independent of each other *and* of the parent's future output.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return list(rng.spawn(count))


class SpawnedRngs(Sequence):
    """The generators ``default_rng(root).spawn(count)`` returns, built lazily.

    Element ``k`` is built on first access and equals (same bit-generator
    state) child ``k`` of that spawn.  ``root`` is only read: its spawn
    counter does not advance, so hand this a sequence nothing else spawns
    from.  A batch that reads one trial's generator (the vectorized path
    under discipline v2) thus never builds the other ``count - 1``.

    Like the list it stands in for, a repeated ``seq[k]`` returns the same
    object, and a contiguous slice shares its parent's built generators.
    Contiguous slices stay lazy; a pickled sequence carries only the
    root's ints and its span, never generator states, and rebuilds
    elements on the other side.
    """

    def __init__(self, root: np.random.SeedSequence, count: int):
        count = operator.index(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._entropy = root.entropy
        self._key = tuple(root.spawn_key)
        self._pool_size = root.pool_size
        # Spawn index of element 0 (a root that already spawned hands out
        # later children, as SeedSequence.spawn would).
        self._first = root.n_children_spawned
        self._count = count
        self._built: dict = {}

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            span = range(self._count)[index]
            if span.step != 1:
                return [self[k] for k in span]
            part = object.__new__(type(self))
            part.__dict__.update(self.__dict__)
            part._first = self._first + span.start
            part._count = len(span)
            return part
        k = operator.index(index)
        if k < 0:
            k += self._count
        if not 0 <= k < self._count:
            raise IndexError(f"index {index} out of range for {self._count} generators")
        i = self._first + k
        gen = self._built.get(i)
        if gen is None:
            # setdefault: concurrent shards that race on one index agree.
            gen = self._built.setdefault(i, self._child(i))
        return gen

    def __iter__(self):
        return (self[k] for k in range(self._count))

    def _child(self, i: int) -> np.random.Generator:
        """Spawn child ``i`` of the root, as ``Generator.spawn`` builds it."""
        seq = np.random.SeedSequence(
            self._entropy, spawn_key=self._key + (i,), pool_size=self._pool_size
        )
        return np.random.Generator(np.random.PCG64(seq))

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_built"] = {}
        return state


def resolve_discipline(discipline: str | None = None) -> str:
    """The active RNG discipline: argument, else env var, else ``"v1"``.

    Delegates to :func:`repro.api.config.resolve_discipline` — the one
    documented explicit → ``SimConfig`` → ``REPRO_DISCIPLINE`` → default
    chain (this module keeps the name for its long-standing callers).
    Raises :class:`ValueError` on anything outside :data:`DISCIPLINES`,
    including a bad environment value, so typos fail loudly rather than
    silently running v1.
    """
    # Deferred: repro.api.config is the single env-reading module and
    # sits above this one (importing it pulls the whole api package).
    from repro.api.config import resolve_discipline as _resolve

    return _resolve(discipline)


def run_seed_sequence(seed_or_rng=None) -> np.random.SeedSequence:
    """The per-run :class:`SeedSequence` root of the v2 spawn tree.

    * A :class:`SeedSequence` passes through unchanged.
    * An int (or ``None``) seeds a fresh sequence, exactly the sequence
      ``default_rng(seed)`` is built on — so a run seeded with an integer
      has *one* root for both the v1 trial tree and the v2 streams.
    * A :class:`Generator` contributes a spawned child's sequence, so
      reusing one generator for several runs yields fresh v2 streams each
      time (mirroring how repeated ``spawn`` calls walk forward).
    """
    if isinstance(seed_or_rng, np.random.SeedSequence):
        return seed_or_rng
    if isinstance(seed_or_rng, np.random.Generator):
        child = seed_or_rng.spawn(1)[0]
        seq = getattr(child.bit_generator, "seed_seq", None)
        if isinstance(seq, np.random.SeedSequence):
            return seq
        # Bit generator without a tracked SeedSequence: fall back to fresh
        # entropy drawn from the generator itself.
        return np.random.SeedSequence(int(seed_or_rng.integers(2**63)))
    return np.random.SeedSequence(seed_or_rng)


@dataclass(frozen=True)
class BatchStreams:
    """Addressable v2 randomness for one batch of lock-stepped trials.

    A thin, picklable handle on the per-run spawn tree (see the module
    docstring for the key layout).  All draws come back as matrices with
    one row per trial; ``offset`` is the global index of this batch's
    first trial, so a worker chunk reads exactly the rows the whole-run
    matrix would have given it.

    The row discipline relies on ``Philox`` being counter-based: each
    float64 consumes one 64-bit word, so row ``k`` of an ``(n, c)`` matrix
    starts at word ``k * c`` and can be reached with ``advance`` without
    generating the skipped words.
    """

    root: np.random.SeedSequence
    offset: int = 0

    def with_offset(self, offset: int) -> "BatchStreams":
        """The same streams re-based at global trial index ``offset``."""
        return BatchStreams(self.root, int(offset))

    def child(self, index: int) -> "BatchStreams":
        """An independent substream family (e.g. one per compared policy)."""
        return BatchStreams(self._sequence(_TAG_SUBSTREAM, index), self.offset)

    # ------------------------------------------------------------------
    def _sequence(self, *key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.root.entropy,
            spawn_key=tuple(self.root.spawn_key) + (_V2_MARKER,) + key,
        )

    def _uniform_rows(self, key: tuple, n_rows: int, n_cols: int) -> np.ndarray:
        """Rows ``[offset, offset + n_rows)`` of stream ``key``'s conceptual
        uniform matrix, shape ``(n_rows, n_cols)``."""
        bit_gen = np.random.Philox(self._sequence(*key))
        skip = self.offset * n_cols
        if skip:
            bit_gen.advance(skip // 4)  # Philox blocks hold 4 words
        gen = np.random.Generator(bit_gen)
        if skip % 4:
            gen.random(skip % 4)
        return gen.random((n_rows, n_cols))

    # ------------------------------------------------------------------
    def thresholds(self, n_trials: int, n_jobs: int) -> np.ndarray:
        """The batch's SUU* thresholds ``theta = -log2 r``, ``r ~ U(0,1)``.

        One ``(n_trials, n_jobs)`` draw replacing v1's per-trial
        ``draw_thresholds`` loop; same marginal distribution
        (exponential with mean ``1/ln 2``).
        """
        u = self._uniform_rows((_TAG_THRESHOLDS,), n_trials, n_jobs)
        # 1 - u lies in (0, 1]: theta is finite with probability 1 and the
        # measure-zero u == 0 edge maps to theta = 0, not infinity.
        return -np.log2(1.0 - u)

    def step_uniforms(self, step: int, n_trials: int, n_jobs: int) -> np.ndarray:
        """Step ``step``'s SUU completion uniforms, ``(n_trials, n_jobs)``.

        No engine path draws these (v2 ``suu`` samples :meth:`thresholds`);
        kept as a tracer target of ``perfbench``."""
        return self._uniform_rows((_TAG_STEP, step), n_trials, n_jobs)

    def policy_integers(
        self, n_trials: int, n_cols: int, high: int, *key: int
    ) -> np.ndarray:
        """Policy randomness: iid uniform integers over ``[0, high)``.

        ``key`` distinguishes independent draws (e.g. SUU-T blocks).  Used
        for SUU-C's chain start delays, one row per trial.
        """
        if high < 1:
            raise ValueError(f"high must be >= 1, got {high}")
        u = self._uniform_rows((_TAG_POLICY,) + key, n_trials, n_cols)
        return np.minimum((u * high).astype(np.int64), high - 1)
