"""Finite labeled sets, probability distributions and Markov transitions.

Everything downstream is built from three immutable value types:

* :class:`LabeledSet` fixes an ordered tuple of distinct string labels.
* :class:`Distribution` is a nonnegative weight vector over a labeled set,
  summing to one.
* :class:`Transition` is a column-stochastic matrix sending distributions
  on its source set to distributions on its target set; column ``j`` is
  the outcome distribution for source label ``j``.

Construction clamps round-off noise (entries in ``[-1e-9, 0)`` become 0,
columns/weights are renormalized) and rejects anything worse, so values
in flight always satisfy their invariants exactly.  All operations are
pure functions; values can be shared freely between threads.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, LabelError, ShapeError

#: Absolute tolerance for stochasticity validation on ingestion.
EPS_TOL = 1e-9

#: Separator used to build labels of product sets.
PRODUCT_SEP = "⊗"  # "⊗"


@dataclass(frozen=True)
class LabeledSet:
    """An ordered, finite set of distinct string labels.

    Order is significant: matrices and weight vectors are always stored
    and compared in label order.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(x) for x in self.labels)
        if not labels:
            raise ArgumentError("a labeled set needs at least one label")
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate labels in {labels!r}")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(f"label {label!r} not in {self.labels!r}") from None


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _integer(value, what: str) -> int:
    """``value`` as an ``int``: a Python or numpy integer, not a bool."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ArgumentError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _clean_weights(weights: np.ndarray, what: str, tol: float = EPS_TOL) -> np.ndarray:
    if not np.all(np.isfinite(weights)):
        raise ArgumentError(f"{what} contains non-finite entries")
    low = weights.min(initial=0.0)
    if low < -tol:
        raise ArgumentError(f"{what} has negative entry {low:.6g}")
    return np.where(weights < 0.0, 0.0, weights)


@dataclass(frozen=True)
class Distribution:
    """A probability distribution over a labeled set.

    Weights are validated to be nonnegative (tiny negatives are clamped)
    and to sum to one within :data:`EPS_TOL`, then renormalized so the
    stored vector sums to one exactly up to float rounding.
    """

    space: LabeledSet
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.shape != (len(self.space),):
            raise ShapeError(
                f"weights shape {w.shape} does not match space of size {len(self.space)}"
            )
        w = _clean_weights(w, "distribution weights")
        total = w.sum()
        if abs(total - 1.0) > EPS_TOL:
            raise ArgumentError(f"distribution weights sum to {total:.12g}, not 1")
        object.__setattr__(self, "weights", _as_readonly(w / total))

    def __getitem__(self, label: str) -> float:
        return float(self.weights[self.space.index(label)])


@dataclass(frozen=True)
class UnnormalizedMeasure:
    """A nonnegative weight vector over a labeled set, with no sum constraint."""

    space: LabeledSet
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.shape != (len(self.space),):
            raise ShapeError(
                f"weights shape {w.shape} does not match space of size {len(self.space)}"
            )
        object.__setattr__(
            self, "weights", _as_readonly(_clean_weights(w, "measure weights"))
        )

    def scaled(self, factor: float) -> "UnnormalizedMeasure":
        if factor < 0:
            raise ArgumentError("scale factor must be nonnegative")
        return UnnormalizedMeasure(self.space, self.weights * factor)


@dataclass(frozen=True)
class Transition:
    """A Markov transition: a column-stochastic matrix between labeled sets.

    ``matrix[i, j]`` is the probability of target label ``i`` given source
    label ``j``.  Columns are validated to sum to one within
    :data:`EPS_TOL` and renormalized; entries in ``[-EPS_TOL, 0)`` are
    clamped to zero, larger violations raise.
    """

    source: LabeledSet
    target: LabeledSet
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape != (len(self.target), len(self.source)):
            raise ShapeError(
                f"matrix shape {m.shape} does not match "
                f"{len(self.target)}x{len(self.source)} (target x source)"
            )
        m = _clean_weights(m, "transition matrix")
        sums = m.sum(axis=0)
        off = np.abs(sums - 1.0) > EPS_TOL
        if off.any():
            j = int(off.argmax())
            raise ArgumentError(f"column '{self.source.labels[j]}' sums to {sums[j]:.6g}")
        object.__setattr__(self, "matrix", _as_readonly(m / sums))

    def column(self, label: str) -> Distribution:
        """The outcome distribution for one source label."""
        j = self.source.index(label)
        return Distribution(self.target, self.matrix[:, j])


# ---------------------------------------------------------------------------
# constructors


def point_mass(space: LabeledSet, label: str) -> Distribution:
    """The distribution with all mass on one label."""
    w = np.zeros(len(space))
    w[space.index(label)] = 1.0
    return Distribution(space, w)


def uniform(space: LabeledSet) -> Distribution:
    return Distribution(space, np.full(len(space), 1.0 / len(space)))


def identity(space: LabeledSet) -> Transition:
    return deterministic(space, space, np.arange(len(space)))


def terminal(space: LabeledSet, point_label: str = "*") -> Transition:
    """The transition onto a one-point set; it discards all information."""
    return Transition(space, LabeledSet((point_label,)), np.ones((1, len(space))))


def binary_symmetric(flip: float, labels: Sequence[str] = ("-1", "1")) -> Transition:
    """Binary symmetric channel flipping the label with probability ``flip``."""
    if not 0.0 <= flip <= 1.0:
        raise ArgumentError(f"flip probability {flip} outside [0, 1]")
    space = LabeledSet(tuple(labels))
    if len(space) != 2:
        raise ArgumentError("binary_symmetric needs exactly two labels")
    return Transition(space, space, [[1.0 - flip, flip], [flip, 1.0 - flip]])


def deterministic(
    source: LabeledSet, target: LabeledSet, index: Sequence[int] | np.ndarray
) -> Transition:
    """Deterministic transition sending source label ``j`` to target ``index[j]``.

    ``index`` must be an integer array of shape ``(|source|,)`` with
    entries in ``[0, |target|)``.  The 0/1 matrix it gives is exactly
    column-stochastic, so it is stored as is, without the validation
    pass of :class:`Transition`.
    """
    g = np.asarray(index)
    if g.shape != (len(source),):
        raise ShapeError(
            f"index shape {g.shape} does not match source of size {len(source)}"
        )
    if not np.issubdtype(g.dtype, np.integer):
        raise ArgumentError(f"index dtype {g.dtype} is not an integer type")
    if g.min() < 0 or g.max() >= len(target):
        raise ArgumentError(f"index entries must lie in [0, {len(target)})")
    m = np.zeros((len(target), len(source)))
    m[g, np.arange(len(source))] = 1.0
    m.setflags(write=False)
    t = object.__new__(Transition)
    object.__setattr__(t, "source", source)
    object.__setattr__(t, "target", target)
    object.__setattr__(t, "matrix", m)
    return t


def from_function(
    source: LabeledSet,
    target: LabeledSet,
    phi: Mapping[str, str] | Callable[[str], str],
) -> Transition:
    """Deterministic transition induced by a label map.

    ``phi`` must be total on the source labels and map into the target
    labels; the result is a 0/1 column-stochastic matrix.
    """
    getter = phi.__getitem__ if isinstance(phi, Mapping) else phi
    index = []
    for lbl in source.labels:
        try:
            out = getter(lbl)
        except KeyError:
            raise LabelError(f"map is not defined on source label {lbl!r}") from None
        index.append(target.index(out))
    return deterministic(source, target, np.array(index, dtype=int))


# ---------------------------------------------------------------------------
# operations


def expect(d: Distribution, f: Sequence[float] | np.ndarray) -> float:
    """Expected value of ``f`` (indexed by ``d.space``) under ``d``."""
    arr = np.asarray(f, dtype=float)
    if arr.shape != (len(d.space),):
        raise ShapeError(f"function of shape {arr.shape} on space of size {len(d.space)}")
    return float(d.weights @ arr)


def push(t: Transition, d: Distribution) -> Distribution:
    """Push a distribution on the source through the transition."""
    if d.space != t.source:
        raise ShapeError("distribution space does not match transition source")
    return Distribution(t.target, t.matrix @ d.weights)


def compose(g: Transition, f: Transition) -> Transition:
    """Serial composition ``g after f`` (matrix product ``g.matrix @ f.matrix``)."""
    if f.target != g.source:
        raise ShapeError("inner target does not match outer source")
    return Transition(f.source, g.target, g.matrix @ f.matrix)


def product_set(spaces: Sequence[LabeledSet]) -> LabeledSet:
    """Cartesian product set; labels joined with ⊗, first factor varying slowest."""
    if not spaces:
        raise ArgumentError("product of zero sets is not defined")
    labels = spaces[0].labels
    for s in spaces[1:]:
        labels = tuple(a + PRODUCT_SEP + b for a in labels for b in s.labels)
    return LabeledSet(labels)


def product(fs: Sequence[Transition]) -> Transition:
    """Parallel (Kronecker) product of transitions.

    The source is the Cartesian product of the sources, the target of the
    targets; matrix entries multiply componentwise, so the label order of
    :func:`product_set` matches ``numpy.kron``.
    """
    if not fs:
        raise ArgumentError("product of zero transitions is not defined")
    m = fs[0].matrix
    for f in fs[1:]:
        m = np.kron(m, f.matrix)
    return Transition(
        product_set([f.source for f in fs]),
        product_set([f.target for f in fs]),
        m,
    )


def replicate(f: Transition, n: int) -> Transition:
    """Run ``f`` independently ``n`` times from a single source draw.

    The source stays ``f.source``; the target is the n-fold product of
    ``f.target``; the column for source label ``x`` is the n-fold
    Kronecker power of the column of ``f`` at ``x``.
    """
    n = _integer(n, "replication count")
    if n < 1:
        raise ArgumentError(f"replication count must be >= 1, got {n}")
    cols = []
    for j in range(len(f.source)):
        col = f.matrix[:, j]
        out = col
        for _ in range(n - 1):
            out = np.kron(out, col)
        cols.append(out)
    return Transition(
        f.source,
        product_set([f.target] * n),
        np.column_stack(cols),
    )
