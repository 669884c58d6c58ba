"""Exact probability, entropy, and mutual-information arithmetic over finite alphabets.

All tables are dense float64 numpy arrays, all logarithms are base 2, and
all information quantities are in bits. 0*log(0) is 0; entries below
``LOG_ZERO_CUTOFF`` are treated as exact zeros in log arithmetic. Entropy
sums nonzero cells in sorted order, so tables that hold the same multiset
of probabilities produce bit-identical entropies regardless of axis layout.

Inputs are validated once, where they enter: `Dist`, `CondDist`, the public
`JointDist` constructor and the builders `compose`, `mixture` and
`push_function` reject NaN, negative entries, mass away from 1, duplicate
axis names and tables over the cell cap. Tables derived from a validated
joint by `marginal`, `reorder` and `split`, and the factor-source marginals
of `sources` (its full joints too), are trusted and skip those checks: a sum
of nonnegative finite cells is nonnegative and finite and keeps the parent's
mass up to rounding, and the cell cap is checked before a factor-source
marginal is built. Renaming an alphabet is trusted too (`Alphabet.renamed`,
which a factor source applies to the axis names its caller gives): a new
name changes no symbol, and no channel is rebuilt to carry one.

Every object here is immutable after construction; all operations are pure
functions and safe to call concurrently. A type holding a table compares
and hashes by identity; an alphabet by value. A joint keeps no memo:
`entropy` and `cond_mutual_info` sum each marginal they read afresh. The
rate evaluators read theirs from a source of `sources`, which memoizes
them, and those over the model's axes alone once per model
(`SourceModel._h`, `MultiModel._h`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-12
LOG_ZERO_CUTOFF = 1e-15
# Caps every dense table built here, and in `regions._ProductForm` each
# marginal read and each per-arm factor stacked over its B systems, the
# largest table a marginal builds on the way (at J = 1 the factor is the
# mixture joint but for the p(q) p(x) weights).
TABLE_CELL_CAP = 2**24


class ProbabilityError(ValueError):
    """Base class for invalid probability objects or queries."""


class InvalidDistribution(ProbabilityError):
    """Negative entries or mass away from 1. Renormalization is refused on purpose:
    silently fixing mass hides modeling bugs."""


class UnknownAxis(ProbabilityError):
    """Axis name not present in this joint distribution."""


class OverlappingAxes(ProbabilityError):
    """Axis sets that must be disjoint share a name."""


class TableTooLarge(ProbabilityError):
    """A dense table would exceed the 2^24 cell cap."""


def _check_cells(axes: Sequence[Alphabet], what: str, rows: int = 1) -> None:
    """Raise TableTooLarge unless `rows` stacked tables over `axes` fit
    TABLE_CELL_CAP; called before the table is allocated."""
    cells = rows * math.prod(a.size for a in axes)
    if cells > TABLE_CELL_CAP:
        raise TableTooLarge(f"{what} over {[a.name for a in axes]} needs {cells} cells, "
                            f"cap is {TABLE_CELL_CAP}")


@dataclass(frozen=True)
class Alphabet:
    """A named finite alphabet with distinct symbol labels."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if len(self.labels) < 1:
            raise ProbabilityError(f"alphabet {self.name!r} must have size >= 1")
        if len(set(self.labels)) != len(self.labels):
            raise ProbabilityError(f"alphabet {self.name!r} has duplicate labels")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise ProbabilityError(f"label {label!r} not in alphabet {self.name!r}") from None

    def renamed(self, name: str) -> "Alphabet":
        """The same symbols under another name; trusted, as they were checked here."""
        out = object.__new__(type(self))
        out.__dict__.update(vars(self), name=name)
        return out


@dataclass(frozen=True)
class ProductAlphabet(Alphabet):
    """An alphabet formed as the cartesian product of component alphabets.

    Labels follow C order: the last component varies fastest, so an axis over
    this alphabet can be split into component axes by a plain reshape.
    """

    parts: tuple[Alphabet, ...] = ()


def product_alphabet(name: str, *parts: Alphabet) -> ProductAlphabet:
    if len(parts) < 2:
        raise ProbabilityError("a product alphabet needs at least two parts")
    labels = tuple("|".join(combo) for combo in itertools.product(*(p.labels for p in parts)))
    return ProductAlphabet(name=name, labels=labels, parts=tuple(parts))


def binary_alphabet(name: str) -> Alphabet:
    return Alphabet(name, ("0", "1"))


def _check_probs(vec: np.ndarray, what: str) -> None:
    # Written so that NaN fails both tests.
    if not np.all(vec >= 0):
        raise InvalidDistribution(f"{what} has negative or NaN entries")
    mass = float(vec.sum())
    if not abs(mass - 1.0) <= MASS_TOL:
        raise InvalidDistribution(f"{what} has mass {mass!r}, not 1 within {MASS_TOL}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Dist:
    """A probability vector over one alphabet."""

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (self.alphabet.size,):
            raise InvalidDistribution(
                f"probs shape {probs.shape} does not match alphabet "
                f"{self.alphabet.name!r} of size {self.alphabet.size}")
        _check_probs(probs, f"distribution over {self.alphabet.name!r}")
        object.__setattr__(self, "probs", _freeze(probs))

    def __getitem__(self, label: str) -> float:
        return float(self.probs[self.alphabet.index(label)])


@dataclass(frozen=True, eq=False)
class CondDist:
    """A stochastic matrix: one output distribution per input symbol."""

    input: Alphabet
    output: Alphabet
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.shape != (self.input.size, self.output.size):
            raise InvalidDistribution(
                f"rows shape {rows.shape} does not match "
                f"{self.input.size}x{self.output.size} for "
                f"{self.output.name!r} given {self.input.name!r}")
        for i in range(rows.shape[0]):
            _check_probs(rows[i], f"row {self.input.labels[i]!r} of "
                                  f"P({self.output.name}|{self.input.name})")
        object.__setattr__(self, "rows", _freeze(rows))


AxisSpec = "str | Iterable[str]"


@dataclass(frozen=True, eq=False)
class JointDist:
    """A dense joint pmf over an ordered tuple of named alphabets.

    Public construction validates the table. `marginal`, `reorder` and `split`
    return trusted joints built by `_derived`, which skips validation because
    their tables are reductions, permutations or reshapes of this validated
    one. Each joint keeps its axis-name index, which lives and dies with it.
    """

    axes: tuple[Alphabet, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        axes = tuple(self.axes)
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ProbabilityError(f"duplicate axis names in joint: {names}")
        shape = tuple(a.size for a in axes)
        _check_cells(axes, "joint")
        table = np.asarray(self.table, dtype=np.float64)
        if table.shape != shape:
            raise InvalidDistribution(
                f"table shape {table.shape} does not match axes {shape}")
        if not np.all(table >= 0):
            raise InvalidDistribution("joint table has negative or NaN entries")
        mass = float(table.sum())
        if not abs(mass - 1.0) <= MASS_TOL:
            raise InvalidDistribution(f"joint table mass {mass!r} is not 1 within {MASS_TOL}")
        self._set(axes, _freeze(table))

    @classmethod
    def _derived(cls, axes: tuple[Alphabet, ...], table: np.ndarray) -> "JointDist":
        """A joint on a table derived from a validated one; no checks run.

        `table` is frozen in place, not copied: it is a fresh reduction or a
        view of a frozen table, laid out as a copy of it would be.
        """
        out = object.__new__(cls)
        table.setflags(write=False)
        out._set(axes, table)
        return out

    def _set(self, axes: tuple[Alphabet, ...], table: np.ndarray) -> None:
        names = tuple(a.name for a in axes)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def axis(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAxis(f"axis {name!r} not in joint over {self._names}") from None

    def marginal(self, axes: AxisSpec) -> "JointDist":
        """Marginal joint on the named axes, kept in this joint's axis order.

        Dropped axes are reduced one at a time in descending position. Two
        marginals whose kept sets differ by one low-position axis then share
        every intermediate reduction bit-for-bit, so entropy differences of
        structurally equal marginals cancel exactly.
        """
        keep = set(_axis_tuple(self, axes))
        if not keep:
            raise ProbabilityError("marginal needs a nonempty axis set")
        drop = tuple(i for i, a in enumerate(self.axes) if a.name not in keep)
        if not drop:
            return self  # a joint is immutable, so it is its own full marginal
        kept_axes = tuple(a for a in self.axes if a.name in keep)
        table = self.table
        for i in sorted(drop, reverse=True):
            table = table.sum(axis=i)
        return JointDist._derived(kept_axes, table)

    def reorder(self, names: Sequence[str]) -> "JointDist":
        names = tuple(names)
        if sorted(names) != sorted(self._names):
            raise ProbabilityError(f"reorder needs a permutation of {self._names}, got {names}")
        perm = tuple(self._index[n] for n in names)
        return JointDist._derived(tuple(self.axes[i] for i in perm),
                                  np.transpose(self.table, perm))

    def split(self, name: str) -> "JointDist":
        """Replace a product-alphabet axis with its component axes (pure reshape)."""
        i = self.axis(name)
        axis = self.axes[i]
        if not isinstance(axis, ProductAlphabet):
            raise ProbabilityError(f"axis {name!r} is not a product alphabet")
        new_axes = self.axes[:i] + axis.parts + self.axes[i + 1:]
        # the parts' names are new to this joint, so they may collide
        names = [a.name for a in new_axes]
        if len(set(names)) != len(names):
            raise ProbabilityError(f"duplicate axis names in joint: {names}")
        new_shape = tuple(a.size for a in new_axes)
        return JointDist._derived(new_axes, self.table.reshape(new_shape))


def _axis_tuple(joint: JointDist, axes: AxisSpec) -> tuple[str, ...]:
    """Normalize an axis-set argument to joint order; rejects unknown names."""
    if isinstance(axes, str):
        axes = (axes,)
    index = joint._index
    positions = set()
    for name in axes:
        i = index.get(name)
        if i is None:
            raise UnknownAxis(f"axis {name!r} not in joint over {joint.names}")
        positions.add(i)
    names = joint.names
    return tuple(names[i] for i in sorted(positions))


def _entropy_rows(table: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a stacked (B, ...) table of pmfs.

    Each row is summed in sorted order, cells below LOG_ZERO_CUTOFF adding an
    exact 0, so rows holding the same multiset of probabilities give
    bit-identical entropies whatever their axis layout.
    """
    p = table.reshape(len(table), -1).copy()
    p.sort(axis=1)
    p[~(p >= LOG_ZERO_CUTOFF)] = 1.0  # 1 log 1 = 0, as for a NaN cell
    return -np.add.reduce(p * np.log2(p), axis=1)


def entropy(joint: JointDist, axes: AxisSpec) -> float:
    """Shannon entropy H(axes) in bits of the marginal on the named axes."""
    keep = _axis_tuple(joint, axes)
    if not keep:
        raise ProbabilityError("entropy needs a nonempty axis set")
    return float(_entropy_rows(joint.marginal(keep).table[None])[0])


def cond_mutual_info(joint: JointDist, a: AxisSpec, b: AxisSpec, c: AxisSpec = ()) -> float:
    """I(A;B|C) in bits; C may be empty for plain mutual information.

    Computed as H(A,C) + H(B,C) - H(A,B,C) - H(C). The result is >= -1e-12
    up to rounding; no clamping is applied here.
    """
    ta = _axis_tuple(joint, a)
    tb = _axis_tuple(joint, b)
    tc = _axis_tuple(joint, c)
    if len({*ta, *tb, *tc}) < len(ta) + len(tb) + len(tc):
        raise OverlappingAxes(f"axis sets must be pairwise disjoint, got {ta}, {tb}, {tc}")
    if not ta or not tb:
        raise ProbabilityError("mutual information needs nonempty axis sets on both sides")
    h_c = entropy(joint, tc) if tc else 0.0
    return entropy(joint, ta + tc) + entropy(joint, tb + tc) - entropy(joint, ta + tb + tc) - h_c


def binary_entropy(x: float) -> float:
    """H_b(x) in bits; H_b(0) = H_b(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ProbabilityError(f"binary_entropy needs x in [0,1], got {x!r}")
    if x < LOG_ZERO_CUTOFF or 1.0 - x < LOG_ZERO_CUTOFF:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def bsc_convolve(a: float, b: float) -> float:
    """Crossover of two cascaded binary symmetric channels: a + b - 2ab."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ProbabilityError("bsc_convolve needs arguments in [0,1]")
    return a + b - 2.0 * a * b


def uniform(alphabet: Alphabet) -> Dist:
    return Dist(alphabet, np.full(alphabet.size, 1.0 / alphabet.size))


def bsc(p: float, input: Alphabet, output: Alphabet) -> CondDist:
    """Binary symmetric channel with crossover p between two binary alphabets."""
    if not 0.0 <= p <= 1.0:
        raise ProbabilityError(f"bsc crossover must be in [0,1], got {p!r}")
    if input.size != 2 or output.size != 2:
        raise ProbabilityError("bsc needs binary alphabets on both sides")
    return CondDist(input, output, np.array([[1.0 - p, p], [p, 1.0 - p]]))


def constant_channel(input: Alphabet, output: Alphabet) -> CondDist:
    """Channel whose output is the first output symbol regardless of input."""
    rows = np.zeros((input.size, output.size))
    rows[:, 0] = 1.0
    return CondDist(input, output, rows)


def identity_channel(input: Alphabet, output_name: str) -> CondDist:
    """Noiseless copy of the input under a new axis name."""
    out = input.renamed(output_name)
    return CondDist(input, out, np.eye(input.size))


def compose(root: Dist, *steps: tuple[CondDist, str]) -> JointDist:
    """Joint pmf factorized along a declared chain of channels.

    Starts from the root distribution; each step attaches a channel fed by an
    axis already present (named by the second element). Output axes appear in
    declaration order: root first, then one new axis per step.
    """
    axes: list[Alphabet] = [root.alphabet]
    table = np.asarray(root.probs)
    for chan, feed in steps:
        names = [a.name for a in axes]
        if feed not in names:
            raise UnknownAxis(f"chain step feeds from {feed!r}, not among {names}")
        i = names.index(feed)
        if axes[i] != chan.input:
            raise ProbabilityError(
                f"channel input alphabet {chan.input.name!r} does not match axis {feed!r}")
        if chan.output.name in names:
            raise ProbabilityError(f"axis name {chan.output.name!r} already present")
        axes.append(chan.output)
        _check_cells(axes, "composition")
        shape = [1] * table.ndim + [chan.output.size]
        shape[i] = chan.input.size
        table = table[..., np.newaxis] * chan.rows.reshape(shape)
    return JointDist(tuple(axes), table)


def mixture(weights: Dist, components: Sequence[JointDist]) -> JointDist:
    """Stack component joints under a new leading axis with the given weights."""
    if len(components) != weights.alphabet.size:
        raise ProbabilityError("one component joint per weight symbol required")
    first = components[0]
    for c in components[1:]:
        if c.axes != first.axes:
            raise ProbabilityError("mixture components must share identical axes")
    if weights.alphabet.name in first.names:
        raise ProbabilityError(f"axis name {weights.alphabet.name!r} already present")
    stacked = np.stack([c.table for c in components], axis=0)
    stacked = stacked * weights.probs.reshape((-1,) + (1,) * (stacked.ndim - 1))
    return JointDist((weights.alphabet,) + first.axes, stacked)


def push_function(joint: JointDist, arg_axes: Sequence[str], table: np.ndarray,
                  output: Alphabet) -> JointDist:
    """Append a deterministic axis computed from the named argument axes.

    `table` holds output symbol indices, indexed by the argument axes in the
    order given.
    """
    args = tuple(arg_axes)
    idx = tuple(joint.axis(n) for n in args)
    table = np.asarray(table, dtype=np.int64)
    expect = tuple(joint.axes[i].size for i in idx)
    if table.shape != expect:
        raise ProbabilityError(f"function table shape {table.shape}, expected {expect}")
    if table.min() < 0 or table.max() >= output.size:
        raise ProbabilityError(f"function table values outside alphabet {output.name!r}")
    onehot = np.eye(output.size)[table]  # args shape + (out,)
    shape = [1] * (joint.table.ndim + 1)
    for k, i in enumerate(idx):
        shape[i] = expect[k]
    shape[-1] = output.size
    # onehot axes follow arg order; align them with their joint positions
    order = np.argsort(idx)
    aligned = np.transpose(onehot, tuple(order) + (len(args),))
    new_table = joint.table[..., np.newaxis] * aligned.reshape(shape)
    return JointDist(joint.axes + (output,), new_table)
