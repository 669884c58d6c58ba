"""Single-function rate-region evaluation, membership search, boundary tracing.

A rate corner for a given auxiliary system mixes a time-sharing weight with
per-weight auxiliary channel pairs. The four rate coordinates are conditional
mutual informations on the mixed joint plus a nonpositive offset
min(I(U;Z|V,Q) - I(U;Y|V,Q), 0); the offset conditions on (V,Q) while the
leading terms are evaluated on the mixture itself.

A single function is the one-arm case of the multi-function bounds. Every
evaluator reads one source, `sources._ProductForm`: the mixture joints of B
systems on one model, kept as per-arm factors. One system is B = 1; a search
scores B candidates in one call. How a marginal is contracted is planned once
per source structure and axis set, and a search re-stacks every batch it
scores from one template source of its structure. A CMI is read from the
source's entropies, each computed once per source, or once per model on the
model's axes alone at p(q) = (1.0,) (`sources`); admissibility is H(F|U,Q,Y).
The model keeps the canonical corners and, per (mode, f, d), their exact
(rates, residual) (`models._memoized`), as both depend on its frozen tables
alone; budget candidates, search rows and the public evaluators are
evaluated afresh on every call. A dense joint supplied to the outer bound
is read as a `sources._Dense`.

Every reader here takes each arm's axis names, and those of q and x, from the
source it reads. `_corner_rates` is the one exact corner reader, for one arm
and for J arms: residuals in lossless mode, rates, and in lossy mode each
arm's distortion, once its reconstruction and distortion fit the arm.

`membership` answers `found` with a witness, `outside` with a certificate, or
`unknown`. A certificate is a model-only lower bound the target sits under: every
coordinate is >= 0, and a lossless corner has r_w >= H(F|Y) and
r_dec >= I(F;X|Y) because (U, Q, Y) determine F. It is checked before any
system is evaluated, so a provably outside target costs no corner and no
search.

Searches are seeded multi-start coordinate descent with step halving and
simplex projection; restart r of grid point g uses child_seed(seed, g, r).
Descents run in lockstep: a round builds the remaining moves of every live
descent's sweep, and those of the next sweeps its scan meets if it accepts
nothing first (SWEEPS_AHEAD of them at most), as one stack and scores it in
chunks that fit TABLE_CELL_CAP, so a descent takes a round per accept rather
than per sweep, and keeps the trajectory of scoring one move at a time. A scored
row holds only the coordinates its objective reads, the rest NaN. `membership`
scores every row's residual and storage rate, and the rest of a row only when
those still leave it under its descent's bar; the starts are scored in full.
Time sharing makes the region convex, so `trace_boundary` reads each grid
point off the lower convex hull of all its |Q| = 1 descents scanned, scoring
every row it scans in full on its objective's coordinates, and scores the
other coordinates of that pool's systems afterwards.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .models import (
    ADMISSIBILITY_TOL,
    DistortionSpec,
    FunctionSpec,
    SourceModel,
    _check_fit,
    _function_residual,
    _g_tables,
    _lossless_bounds,
    _mean_distortion,
    _memoized,
    _project_simplex,
    _renorm,
    _symbol_table,
)
from .probability import (
    TABLE_CELL_CAP,
    Alphabet,
    CondDist,
    Dist,
    _check_cells,
    constant_channel,
    identity_channel,
    uniform,
)
from .seeding import child_seed, uniforms
from .sources import _ProductForm, _Source

RATE_NEG_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
# A descent accepts a move that lowers its objective by more than this: well
# above the rounding of values whose penalties weigh residuals by 1e3.
ACCEPT_MARGIN = 1e-12
# The sweeps a descent's round scores past its current one. On the trace-lossy
# benchmark (seeds 1-10 and 23), 0, 1, 2, 3, 4 and 6 take 45.3, 28.6, 21.8,
# 19.1, 18.2 and 17.6 rounds a pass for 863, 1,081, 1,197, 1,343, 1,579 and
# 2,066 rows; 3 gave the fastest pass on a 2-core x86-64 VM (12.8 ms against
# 19.4 ms for 0, and 17.5 ms for every remaining sweep: 17.4 rounds, 4,280 rows).
SWEEPS_AHEAD = 3
INIT_STEP, MIN_STEP = 0.25, 1e-6  # a descent's first step; it stops under the second


class RegionError(ValueError):
    """Invalid auxiliary system, budget, or evaluation request."""


class CardinalityError(RegionError):
    """Auxiliary alphabet larger than the mode's search bound."""


class InadmissibleAuxiliary(RegionError):
    """Auxiliary channel fails the determine-the-function requirement."""


@dataclass(frozen=True, eq=False)
class AuxPair:
    """One auxiliary channel pair: encoder observation -> U -> V."""

    p_u_given_xt: CondDist
    p_v_given_u: CondDist

    def __post_init__(self) -> None:
        if self.p_v_given_u.input != self.p_u_given_xt.output:
            raise RegionError("inner auxiliary channel must be fed by the outer one")

    @property
    def u_alphabet(self) -> Alphabet:
        return self.p_u_given_xt.output

    @property
    def v_alphabet(self) -> Alphabet:
        return self.p_v_given_u.output


@dataclass(frozen=True, eq=False)
class AuxSystem:
    """Time-sharing weight plus one auxiliary channel pair per weight symbol."""

    p_q: Dist
    per_q: tuple[AuxPair, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_q", tuple(self.per_q))
        if len(self.per_q) != self.p_q.alphabet.size:
            raise RegionError("need exactly one channel pair per time-sharing symbol")
        first = self.per_q[0]
        for pair in self.per_q[1:]:
            if pair.u_alphabet != first.u_alphabet or pair.v_alphabet != first.v_alphabet:
                raise RegionError("per-weight channel pairs must share alphabets")
            if pair.p_u_given_xt.input != first.p_u_given_xt.input:
                raise RegionError("per-weight channel pairs must share the input alphabet")

    @property
    def u_alphabet(self) -> Alphabet:
        return self.per_q[0].u_alphabet

    @property
    def v_alphabet(self) -> Alphabet:
        return self.per_q[0].v_alphabet

    def validate_cardinalities(self, xt_size: int, mode: str) -> None:
        _check_sizes(mode, xt_size, self.p_q.alphabet.size,
                     self.u_alphabet.size, self.v_alphabet.size)


def _check_mode(mode: str) -> None:
    if mode not in ("lossless", "lossy"):
        raise RegionError(f"mode must be 'lossless' or 'lossy', got {mode!r}")


def _check_sizes(mode: str, xt_size: int, q_size: int, u_size: int, v_size: int,
                 arms: int = 1, where: str = "") -> None:
    """The cardinality policy: |Q| <= 2, |V| <= |X~| + s, |U| <= (|X~| + s)^2,
    s = 4 + [lossy] + [J >= 2]; the extra 1 for J >= 2 is the sum-storage rate."""
    _check_mode(mode)
    cap = xt_size + 4 + (mode == "lossy") + (arms >= 2)
    if q_size > 2:
        raise CardinalityError(f"{where}time-sharing alphabet is limited to 2 symbols")
    if v_size > cap:
        raise CardinalityError(f"{where}|V| = {v_size} exceeds bound {cap}")
    if u_size > cap ** 2:
        raise CardinalityError(f"{where}|U| = {u_size} exceeds bound {cap ** 2}")


@dataclass(frozen=True)
class RateTuple:
    """Secrecy, storage, decoder-privacy, eavesdropper-privacy rates in bits/symbol."""

    r_s: float
    r_w: float
    r_dec: float
    r_eve: float
    d: float | None = None

    def coords(self) -> dict[str, float]:
        out = {"r_s": self.r_s, "r_w": self.r_w, "r_dec": self.r_dec, "r_eve": self.r_eve}
        if self.d is not None:
            out["d"] = self.d
        return out

    def dominates(self, target: "RateTuple") -> bool:
        """True when every coordinate is <= the target's within MEMBERSHIP_TOL;
        a d the tuple lacks reads as 0."""
        mine, theirs = self.coords(), target.coords()
        return all(mine.get(k, 0.0) <= v + MEMBERSHIP_TOL for k, v in theirs.items())


@dataclass(frozen=True)
class MultiRateTuple:
    """Joint secrecy/eavesdropper coordinates plus per-arm storage and decoder privacy."""

    r_s: float
    r_w: tuple[float, ...]
    sum_w: float
    r_dec: tuple[float, ...]
    r_eve: float
    d: tuple[float, ...] | None = None


def single_arm_tuple(rates: MultiRateTuple) -> RateTuple:
    """View a one-arm multi tuple as a single-function rate tuple."""
    if len(rates.r_w) != 1:
        raise RegionError("single_arm_tuple needs a one-arm tuple")
    return RateTuple(rates.r_s, rates.r_w[0], rates.r_dec[0], rates.r_eve,
                     d=None if rates.d is None else rates.d[0])


@dataclass(frozen=True, eq=False)
class ReconstructionFn:
    """Deterministic reconstruction table on (auxiliary symbol, decoder observation)."""

    u_alphabet: Alphabet
    y_alphabet: Alphabet
    output: Alphabet
    table: np.ndarray  # symbol indices, shape (|u|, |y|)

    def __post_init__(self) -> None:
        table = _symbol_table(self.table, RegionError, "reconstruction table")
        if table.shape != (self.u_alphabet.size, self.y_alphabet.size):
            raise RegionError(f"reconstruction table shape {table.shape} does not cover the domain")
        if table.min() < 0 or table.max() >= self.output.size:
            raise RegionError("reconstruction table symbol out of range")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def singleton_alphabet(name: str) -> Alphabet:
    return Alphabet(name, ("0",))


def identity_aux(m: SourceModel) -> AuxSystem:
    """U copies the encoder observation, V is constant, no time sharing."""
    p_u = identity_channel(m.xt_alphabet, "u")
    p_v = constant_channel(p_u.output, singleton_alphabet("v"))
    return AuxSystem(uniform(singleton_alphabet("q")), (AuxPair(p_u, p_v),))


def constant_aux(m: SourceModel) -> AuxSystem:
    """U and V carry no information."""
    p_u = constant_channel(m.xt_alphabet, singleton_alphabet("u"))
    p_v = constant_channel(p_u.output, singleton_alphabet("v"))
    return AuxSystem(uniform(singleton_alphabet("q")), (AuxPair(p_u, p_v),))


def v_equals_u_aux(p_u_given_xt: CondDist) -> AuxSystem:
    """Wrap a single auxiliary channel with V a noiseless copy of U."""
    p_v = identity_channel(p_u_given_xt.output, "v")
    return AuxSystem(uniform(singleton_alphabet("q")), (AuxPair(p_u_given_xt, p_v),))


def _canonical_corners(m: SourceModel, f: FunctionSpec, mode: str, d: DistortionSpec | None):
    """The systems both searches evaluate first, in this order, each with the
    (rates, residual) `_eval_candidate(m, aux, f, mode, d)` gives it. Each is
    built only when the one before it has been tried, once per model, and
    evaluated once per model and (mode, f, d) (`_memoized`)."""
    for i, build in enumerate((identity_aux, constant_aux,
                               lambda m: v_equals_u_aux(identity_channel(m.xt_alphabet, "u")))):
        aux = _memoized(m, ("corner", i), lambda: build(m))
        yield aux, _memoized(m, ("corner", i, mode, f, d),
                             lambda: _eval_candidate(m, aux, f, mode, d))


def _arm_names(m: SourceModel, u: Alphabet, v: Alphabet) -> tuple[tuple[str, ...]]:
    """The one arm's axis names: the model's (xt, y, z) and the system's (u, v)."""
    return ((m.xt_alphabet.name, u.name, v.name, m.y_alphabet.name, m.z_alphabet.name),)


def _source(m: SourceModel, aux: AuxSystem) -> "_ProductForm":
    """The source the single-function evaluators read: the one-arm factor form,
    restacked from the model's structure for the system's alphabets."""
    return _ProductForm.of(m, aux.p_q, ((m.p_xt_given_x, aux.per_q, m.p_yz_given_x),),
                           _arm_names(m, aux.u_alphabet, aux.v_alphabet))


def _multi_rates(src: _Source, cols: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rates and offsets of the J-arm systems a source holds, on the source's
    axis names. Rates are rows of (r_s, r_w per arm, sum_w, r_dec per arm,
    r_eve), as `_multi_tuple` reads them; only `cols` (all when None) are
    scored, the rest NaN like the offset when neither r_s nor r_eve is wanted,
    all in one `cmis` read. The negative-rate guard covers only the columns scored.

    Each auxiliary absorbs the time-sharing label, so the leading terms use
    (U, Q) while the offset conditions on (V, Q); with heterogeneous branches
    only this reading keeps every coordinate >= 0.
    """
    (xt, u, v, y, z), q, x = zip(*src.arm_names), src.q, src.x
    uq, vq = u + (q,), v + (q,)
    # (A, B, C) of each column's I(A; B | C); one arm's sum_w reads its r_w's entropies
    terms = [(uq, xt, z), *(((uk, q), xk, yk) for uk, xk, yk in zip(u, xt, y)), (uq, xt, y),
             *(((uk, q), x, yk) for uk, yk in zip(u, y)), (uq, x, z)]
    want = range(len(terms)) if cols is None else cols
    off = bool({0, len(terms) - 1} & set(want))
    # a tuple of a list: one of a generator, made at size 10 and shrunk, grows
    # CPython's tuple free list of its size on every call
    got = src.cmis(tuple([terms[c] for c in want] + ([(u, z, vq), (u, y, vq)] if off else [])))
    offset = np.minimum(got[-2] - got[-1], 0.0) if off else np.full(src.batch, np.nan)
    rates = np.full((src.batch, len(terms)), np.nan)
    for c, value in zip(want, got):
        rates[:, c] = value
    rates[:, [0, -1]] += offset[:, None]
    if np.any(rates < -RATE_NEG_TOL):
        raise RegionError(f"rate {float(np.nanmin(rates))!r} is negative beyond tolerance")
    return np.maximum(rates, 0.0), offset


def _multi_tuple(row: np.ndarray, j: int, d: tuple[float, ...] | None = None) -> MultiRateTuple:
    """One row of `_multi_rates` as a J-arm rate tuple."""
    v = row.tolist()
    return MultiRateTuple(v[0], tuple(v[1:j + 1]), v[j + 1], tuple(v[j + 2:2 * j + 2]),
                          v[2 * j + 2], d)


# Single-function coordinates: one arm's `_multi_rates` columns _ONE_ARM, then d.
_COORDS = ("r_s", "r_w", "r_dec", "r_eve", "d")
_ONE_ARM = [0, 1, 3, 4]  # column 2, sum_w, repeats r_w


def _residual(src: _Source, f: FunctionSpec, k: int) -> np.ndarray:
    """H(F | U, Q, Y) of arm k of each system, F = f(xt, y); its (q, u, xt, y)
    table's entropy stays for r_w."""
    xt, u, _, y, _ = src.arm_names[k]
    src.entropy((src.q, u, xt, y), p := src.rows((src.q, u, xt, y)))
    return _function_residual(p, f)


def _require_admissible(src: _Source, fs: Sequence[FunctionSpec]) -> None:
    """Raise unless the residual H(F | U, Q, Y) of each arm k, F = fs[k], is zero."""
    for k, f in enumerate(fs):
        gap = float(_residual(src, f, k)[0])
        if gap > ADMISSIBILITY_TOL:
            _, u, _, y, _ = src.arm_names[k]
            raise InadmissibleAuxiliary(
                f"({u}, {src.q}, {y}) leave {gap:.3g} bits of the function undetermined")


def _distortion(src: _Source, k: int, f: FunctionSpec, d: DistortionSpec,
                g: ReconstructionFn) -> float:
    """E d(f(xt, y), g(u, y)) of arm k of a source's one system; raises
    unless g is over the arm's (U, Y) and g and d reach f's output symbols."""
    p = src.uxy(k)
    sizes = (g.table.shape, g.output.size, d.alphabet.size)
    if sizes != (p.shape[1::2], f.output.size, f.output.size):  # p is (1, u, xt, y)
        raise RegionError(f"reconstruction table shape, output size and distortion size "
                          f"{sizes} do not fit arm {k + 1}'s (|U|, |Y|) and function output")
    return float(_mean_distortion(p, f, g.table[None], d)[0])


def _corner_rates(src: _Source, fs: Sequence[FunctionSpec], mode: str,
                  ds: Sequence[DistortionSpec] = (),
                  gs: Sequence[ReconstructionFn] | None = None) -> MultiRateTuple:
    """The exact corner of the one system a source holds, arm k computing
    fs[k]: each arm's residual must be zero in lossless mode, and lossy mode
    adds each arm's expected distortion under ds[k] and gs[k]."""
    if mode == "lossless":
        _require_admissible(src, fs)
    rates, _ = _multi_rates(src)
    if mode != "lossy":
        return _multi_tuple(rates[0], len(fs))
    if gs is None or len(gs) != len(fs):
        raise RegionError("lossy mode needs one reconstruction function per arm")
    return _multi_tuple(rates[0], len(fs), tuple([
        _distortion(src, k, *arm) for k, arm in enumerate(zip(fs, ds, gs, strict=True))]))


def eval_lossless_corner(m: SourceModel, aux: AuxSystem, f: FunctionSpec) -> RateTuple:
    """Componentwise-minimal achievable tuple for an admissible auxiliary system."""
    aux.validate_cardinalities(m.xt_alphabet.size, "lossless")
    return single_arm_tuple(_corner_rates(_source(m, aux), (f,), "lossless"))


def optimal_g(m: SourceModel, aux: AuxSystem, f: FunctionSpec,
              d: DistortionSpec) -> ReconstructionFn:
    """Reconstruction minimizing conditional expected distortion cell by cell.

    Under Hamming distortion this is the most-likely-function-value rule.
    Cells with zero probability get the globally most likely function symbol;
    ties break toward the lowest symbol index.
    """
    _check_fit(f, d, RegionError)
    table = _g_tables(_source(m, aux).uxy(), f, d)[0]
    return ReconstructionFn(aux.u_alphabet, m.y_alphabet, f.output, table)


def eval_lossy_corner(m: SourceModel, aux: AuxSystem, f: FunctionSpec,
                      g: ReconstructionFn, d: DistortionSpec) -> RateTuple:
    """Rate corner plus expected distortion; no admissibility requirement."""
    aux.validate_cardinalities(m.xt_alphabet.size, "lossy")
    return single_arm_tuple(_corner_rates(_source(m, aux), (f,), "lossy", (d,), (g,)))


# ---------------------------------------------------------------------------
# Search: seeded multi-start coordinate descent over channel entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchBudget:
    """Search parameters; defaults follow the documented evaluation recipe.
    Every descent starts at step INIT_STEP and stops under MIN_STEP."""

    restarts: int = 64
    iters: int = 500
    seed: int = 0
    u_size: int | None = None  # defaults to the encoder-observation alphabet size
    v_size: int = 1
    q_size: int = 1
    candidates: tuple[AuxSystem, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.restarts < 0 or self.iters < 1:
            raise RegionError("invalid budget: restarts must be >= 0 and iters >= 1")
        if self.v_size < 1 or self.q_size < 1 or (self.u_size is not None and self.u_size < 1):
            raise RegionError("invalid budget: alphabet sizes must be >= 1")

    def resolved_sizes(self, m: SourceModel, mode: str) -> tuple[int, int, int]:
        xt = m.xt_alphabet.size
        u = self.u_size if self.u_size is not None else xt
        _check_sizes(mode, xt, self.q_size, u, self.v_size, where="invalid budget: ")
        return u, self.v_size, self.q_size


def _alphabet_of_size(name: str, n: int) -> Alphabet:
    return Alphabet(name, tuple(str(i) for i in range(n)))


def _search_axes(m: SourceModel, u_size: int, v_size: int, q_size: int) -> tuple[Alphabet, ...]:
    """The axes (q, x, xt, u, v, y, z) of one system's arm factor in a search
    of these sizes; TableTooLarge when that factor exceeds TABLE_CELL_CAP."""
    axes = (_alphabet_of_size("q", q_size), m.x_alphabet, m.xt_alphabet,
            _alphabet_of_size("u", u_size), _alphabet_of_size("v", v_size),
            m.y_alphabet, m.z_alphabet)
    _check_cells(axes, "arm factor")
    return axes


class _AuxParam:
    """Flat simplex-block parameterization of auxiliary systems of fixed sizes.

    A point is one vector of simplex blocks: p(q) when |Q| > 1, then per
    weight symbol one p(u | xt) block per xt and, when |V| > 1, one
    p(v | u) block per u. Move 2c of a sweep steps coordinate c up, move
    2c + 1 steps it down. `batch` systems fill TABLE_CELL_CAP with their arm
    factors, so a stack of candidates is scored in chunks of that many; sizes
    whose one system's factor exceeds the cap raise TableTooLarge here.
    """

    def __init__(self, m: SourceModel, u_size: int, v_size: int, q_size: int):
        self.m = m
        axes = _search_axes(m, u_size, v_size, q_size)
        self.q_alpha, _, _, self.u_alpha, self.v_alpha, _, _ = axes
        xt = m.xt_alphabet.size
        sizes = [q_size] if q_size > 1 else []
        sizes += ([u_size] * xt + ([v_size] * u_size if v_size > 1 else [])) * q_size
        self.spans = list(zip(np.cumsum([0] + sizes[:-1]).tolist(), sizes))  # (start, size)
        self.size = sum(sizes)
        # per move: the start and width of its coordinate's block, and its sign
        self._at, self._width = np.repeat(self.spans, [2 * n for n in sizes], axis=0).T
        self._widths, self._sign = sorted(set(sizes)), np.tile([1.0, -1.0], self.size)
        self.batch = TABLE_CELL_CAP // math.prod(a.size for a in axes)
        # the template source, of no system, that `source` re-stacks
        self._template = _ProductForm.structure(
            m, self.q_alpha, ((m.p_xt_given_x, self.u_alpha, self.v_alpha, m.p_yz_given_x),),
            _arm_names(m, self.u_alpha, self.v_alpha))

    def random(self, seed: int) -> np.ndarray:
        raw = -np.log(np.maximum(uniforms(seed, 0, self.size), 1e-300))
        return np.concatenate([raw[at:at + n] / raw[at:at + n].sum() for at, n in self.spans])

    def unpack(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """p(q) (B, |q|), p(u|xt,q) (B, |q|, |xt|, |u|) and p(v|u,q) (B, |q|, |u|, |v|)
        of a stack of points."""
        n, xt = len(points), self.m.xt_alphabet.size
        nq, nu, nv = self.q_alpha.size, self.u_alpha.size, self.v_alpha.size
        p_q = _renorm(points[:, :nq]) if nq > 1 else np.ones((n, 1))
        per_q = points[:, nq if nq > 1 else 0:].reshape(n, nq, -1)
        p_u = _renorm(per_q[:, :, :xt * nu].reshape(n, nq, xt, nu))
        p_v = (_renorm(per_q[:, :, xt * nu:].reshape(n, nq, nu, nv)) if nv > 1
               else np.ones((n, nq, nu, 1)))
        return p_q, p_u, p_v

    def source(self, points: np.ndarray) -> _ProductForm:
        """The one-arm source of a stack of points, re-stacked from the
        template; no per-system object is built."""
        p_q, p_u, p_v = self.unpack(points)
        return self._template.restacked(p_q, ((p_u, p_v),))

    def to_aux(self, point: np.ndarray) -> AuxSystem:
        p_q, p_u, p_v = self.unpack(point[None])
        pairs = tuple(AuxPair(CondDist(self.m.xt_alphabet, self.u_alpha, p_u[0, qi]),
                              CondDist(self.u_alpha, self.v_alpha, p_v[0, qi]))
                      for qi in range(self.q_alpha.size))
        return AuxSystem(Dist(self.q_alpha, p_q[0]), pairs)

    def neighbours(self, points: np.ndarray, starts: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """The candidates of moves starts[k], starts[k] + 1, ... to the end of a
        sweep from each of the (R, n) `points` under steps[k], stacked point by
        point in scan order; one projection per width."""
        counts = 2 * self.size - starts
        owner = np.repeat(np.arange(len(points)), counts)
        move = np.arange(counts.sum()) + np.repeat(starts + counts - np.cumsum(counts), counts)
        cand = points[owner]
        cand[np.arange(len(move)), move // 2] += self._sign[move] * steps[owner]
        for width in self._widths:
            rows = np.flatnonzero(self._width[move] == width)
            cols = (rows[:, None], self._at[move[rows]][:, None] + np.arange(width))
            cand[cols] = _project_simplex(cand[cols])
        return cand


def _coordinate_descent(param: _AuxParam, starts: np.ndarray, score, scanned, iters: int,
                        init_step: float, min_step: float) -> tuple[np.ndarray, np.ndarray]:
    """First-improvement coordinate descents over `param`'s moves from each of
    the (R, n) `starts`, in lockstep; returns the (R, n) points and (R,) values.

    A round builds, in one `param.neighbours` call, each live descent's
    remaining moves of its sweep, then those of the next SWEEPS_AHEAD sweeps
    from the same point: the ones its scan meets if it accepts nothing first,
    each at the step the scan would have (halved after a sweep without an
    accept), none past `iters` sweeps or under `min_step`. The stack, in
    descent order, is scored in chunks of `param.batch` rows as
    `score(points, owner, bar)`, `owner[i]` the descent of row i, which reads
    only the coordinates its objective needs. A row's bar is its descent's best
    value less ACCEPT_MARGIN (1e-12, so a change of the order of rounding is
    never a move), +inf for the starts: `score` must give a row valued under
    its bar its exact value, and may give any other row any value at or over
    its bar. A chunk skips the rows of the descents an earlier one has hit.
    Each descent walks its slice as a one-at-a-time scan does: it takes its
    first row under its bar and drops the rows after it, each sweep it passes
    without one halves its step, and its next round starts at the coordinate
    after its accept. It stops after `iters` sweeps or below `min_step`. So a
    descent takes a round per accept, not per sweep, and its trajectory is
    that of scoring one candidate at a time, whatever R, the chunking or
    SWEEPS_AHEAD. `scanned(mask)` is told after each round which of the rows
    it scored, in scoring order, a one-at-a-time scan would have scored.
    """
    points = np.array(starts, dtype=float)

    def scored(stack: np.ndarray, owner: np.ndarray, best: np.ndarray):
        """Values of the stack's rows and which rows were scored; a chunk
        skips the rows of the descents an earlier chunk has hit."""
        vals, done = np.full(len(stack), np.inf), np.zeros(len(stack), dtype=bool)
        todo, stopped = np.arange(len(stack)), np.zeros(len(best), dtype=bool)
        while todo.size:
            rows, todo = todo[:param.batch], todo[param.batch:]
            bar = best[owner[rows]] - ACCEPT_MARGIN
            vals[rows], done[rows] = score(stack[rows], owner[rows], bar), True
            stopped[owner[rows][vals[rows] < bar]] = True
            todo = todo[~stopped[owner[todo]]]
        return vals, done

    # each start is its own descent's only row, so an infinite bar stops nothing
    best, _ = scored(points, np.arange(len(points)), np.full(len(points), np.inf))
    scanned(np.ones(len(points), dtype=bool))
    step, start, sweeps, improved = (np.full(len(points), v) for v in (float(init_step), 0, 0, 0))
    live, ahead, moves = np.arange(len(points)), np.arange(SWEEPS_AHEAD + 2), 2 * param.size
    # the step j sweeps ahead, over the current one, if the scan accepts nothing
    # first: row `improved`, as the current sweep has no accept (0) or has one (1)
    ladder = np.ldexp(1.0, -np.maximum(ahead - np.array([[0], [1]]), 0))
    while live.size:
        steps = step[live, None] * ladder[improved[live]]
        ok = (sweeps[live, None] + ahead < iters) & (steps >= min_step)
        ok[:, 0], ok[:, -1] = True, False  # the last column is only a step
        k, j = np.nonzero(ok)  # the segments: descent by descent, sweep by sweep
        first = start[live]
        cands = param.neighbours(points[live[k]], first[k] * (j == 0), steps[k, j])
        # a descent's rows are its moves from `first` on, sweep after sweep
        rows = ok.sum(axis=1) * moves - first
        base, at = np.cumsum(rows) - rows, np.repeat(np.arange(len(live)), rows)
        vals, done = scored(cands, live[at], best)
        # each descent scans to its first row under its bar, else to its last row
        last = base + rows - 1
        hit = np.flatnonzero(vals < best[live][at] - ACCEPT_MARGIN)
        np.minimum.at(last, at[hit], hit)
        scanned((np.arange(len(vals)) <= last[at])[done])
        found = vals[last] < best[live] - ACCEPT_MARGIN
        points[live[found]], best[live[found]] = cands[last[found]], vals[last[found]]
        # past the last move scanned and, after an accept, its coordinate's other
        # sign; a sweep passed without an accept halves the step
        pos = first + last - base
        nxt = pos % moves // 2 * 2 + 2
        step[live] = steps[np.arange(len(live)), pos // moves + ~found]
        sweeps[live] += pos // moves + (nxt == moves)
        start[live], improved[live] = nxt % moves, found & (nxt < moves)
        live = live[(sweeps[live] < iters) & (step[live] >= min_step)]
    return points, best


@dataclass(frozen=True)
class MembershipResult:
    """`membership`'s answer. `witness` and `achieved` (and `g` for a distortion
    target) are set when found; `certificate` is (coordinate, bound) when a
    model-only lower bound proves the target outside the region."""

    found: bool
    witness: AuxSystem | None
    achieved: RateTuple | None
    g: ReconstructionFn | None = None
    certificate: tuple[str, float] | None = None

    @property
    def verdict(self) -> str:
        """'found', 'outside' (a proof) or 'unknown' (the search found nothing)."""
        return "found" if self.found else "unknown" if self.certificate is None else "outside"


def _eval_rows(src: _ProductForm, f: FunctionSpec, mode: str, d: DistortionSpec | None,
               cols: Sequence[int] = range(5)) -> tuple[np.ndarray, np.ndarray]:
    """`_coords` and admissibility residuals (B,) of the systems of a one-arm
    source; the residual is 0 in lossy mode."""
    # the residual first: its table's entropy is the storage rate's H(U, Q, X~, Y)
    gap = _residual(src, f, 0) if mode == "lossless" else np.zeros(src.batch)
    return _coords(src, f, mode, d, cols), gap


def _coords(src: _ProductForm, f: FunctionSpec, mode: str, d: DistortionSpec | None,
            cols: Sequence[int]) -> np.ndarray:
    """Coordinates (B, 5) in `_COORDS` order, NaN and unread outside `cols`, of
    the systems of a one-arm source. d is filled in lossy mode when `d` is given
    and is 0 otherwise, the value `RateTuple.dominates` reads for a missing d."""
    coords = np.full((src.batch, 5), np.nan)
    coords[:, :4] = _multi_rates(src, [_ONE_ARM[c] for c in cols if c < 4])[0][:, _ONE_ARM]
    if 4 in cols:  # one (u, xt, y) marginal serves the reconstruction and the distortion
        p = src.uxy() if mode == "lossy" and d is not None else None
        coords[:, 4] = 0.0 if p is None else _mean_distortion(p, f, _g_tables(p, f, d), d)
    return coords


def _eval_candidate(m, aux, f, mode, d):
    """(rates, admissibility residual) of one system, d filled in lossy mode when given."""
    aux.validate_cardinalities(m.xt_alphabet.size, mode)
    coords, gap = _eval_rows(_source(m, aux), f, mode, d)
    row = coords[0].tolist()
    return RateTuple(*row[:4], d=row[4] if mode == "lossy" and d is not None else None), \
        float(gap[0])


def _membership_score(param: _AuxParam, f: FunctionSpec, mode: str, d: DistortionSpec | None,
                      target: RateTuple):
    """`membership`'s objective, the largest excess of a target coordinate plus
    1e3 times the residual's excess over ADMISSIBILITY_TOL, as the staged
    `score(points, owner, bar)` `_coordinate_descent` takes, a row's bar being
    its descent's best value less ACCEPT_MARGIN (1e-12). Stage 1 scores the
    residual and r_w, whose excess plus the penalty bounds the objective from
    below; stage 2 scores the other coordinates of the rows whose bound is
    under their bar, on a `take` of the same source."""
    tcoords = target.coords()
    cols = [_COORDS.index(k) for k in tcoords]
    tvals = np.array(list(tcoords.values()))

    def score(points: np.ndarray, owner: np.ndarray, bar: np.ndarray) -> np.ndarray:
        src = param.source(points)
        coords, gap = _eval_rows(src, f, mode, d, (1,))
        penalty = 1e3 * np.maximum(gap - ADMISSIBILITY_TOL, 0.0)
        val = (coords[:, 1] - target.r_w) + penalty
        go = np.flatnonzero(val < bar)
        if go.size:  # r_w again, from the entropies `take` keeps
            coords = _coords(src.take(go), f, mode, d, cols)
            val[go] = np.max(coords[:, cols] - tvals, axis=1) + penalty[go]
        return val

    return score


def membership(m: SourceModel, f: FunctionSpec, target: RateTuple, mode: str,
               budget: SearchBudget | None = None,
               d: DistortionSpec | None = None) -> MembershipResult:
    """Search for an auxiliary system whose corner sits under the target.

    The result's `verdict` is `found` with a witness, `outside` with a
    certificate, which is a proof of non-membership, or `unknown`, which is
    not. Deterministic given the budget seed. In order, after the budget's
    sizes: the certificate, where a target coordinate under a model-only lower
    bound by more than ADMISSIBILITY_TOL + MEMBERSHIP_TOL answers `outside`
    (once the search's arm factor fits TABLE_CELL_CAP); the budget's candidate
    systems (witness reuse); the canonical corners, each built and evaluated
    once per model, when first tried (`_canonical_corners`); and
    seeded random restarts refined by coordinate descent. Every coordinate is
    >= 0, and a lossless corner is within its residual, at most
    ADMISSIBILITY_TOL, of `models._lossless_bounds`; a corner is accepted up
    to MEMBERSHIP_TOL over the target, so no accepted system is ever certified
    away.
    """
    budget = budget or SearchBudget()
    sizes = budget.resolved_sizes(m, mode)  # checks the mode too
    if not all(np.isfinite(v) for v in target.coords().values()):
        raise RegionError("membership target must have finite coordinates")
    if mode == "lossy" and target.d is not None and d is None:
        raise RegionError("a distortion target needs a distortion spec")
    _check_fit(f, d, RegionError)
    d_used = d if target.d is not None else None
    floors = _lossless_bounds(m, f) if mode == "lossless" else {}
    for k, v in target.coords().items():
        bound = max(floors.get(k, 0.0), 0.0)
        if v < bound - (ADMISSIBILITY_TOL + MEMBERSHIP_TOL):
            _search_axes(m, *sizes)  # an oversized search raises, even on an outside target
            return MembershipResult(False, None, None, certificate=(k, bound))

    def verdict(aux: AuxSystem, rates) -> MembershipResult | None:
        """Found when aux's (rates, residual) meet the target."""
        if rates[1] > ADMISSIBILITY_TOL or not rates[0].dominates(target):
            return None
        g = optimal_g(m, aux, f, d) if d_used is not None else None
        return MembershipResult(True, aux, rates[0], g)

    tried = ((aux, _eval_candidate(m, aux, f, mode, d_used)) for aux in budget.candidates)
    for aux, rates in itertools.chain(tried, _canonical_corners(m, f, mode, d_used)):
        hit = verdict(aux, rates)
        if hit:
            return hit

    param = _AuxParam(m, *sizes)
    score = _membership_score(param, f, mode, d_used, target)
    # one descent per call, so the restarts after a hit are never run
    for r in range(budget.restarts):
        (point,), (val,) = _coordinate_descent(
            param, param.random(child_seed(budget.seed, 0, r))[None], score,
            lambda mask: None, budget.iters, INIT_STEP, MIN_STEP)
        if val <= MEMBERSHIP_TOL:
            aux = param.to_aux(point)
            hit = verdict(aux, _eval_candidate(m, aux, f, mode, d_used))
            if hit:
                return hit
    return MembershipResult(False, None, None)


@dataclass(frozen=True)
class BoundarySweep:
    """Trace the best `minimize` coordinate subject to `coordinate` <= each grid value."""

    coordinate: str
    grid: tuple[float, ...]
    minimize: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        if not self.grid:
            raise RegionError("boundary sweep needs a nonempty grid")
        if not all(math.isfinite(g) for g in self.grid):
            raise RegionError("boundary sweep grid values must be finite")
        if self.coordinate not in _COORDS or self.minimize not in _COORDS:
            raise RegionError(f"sweep coordinates must be among {_COORDS}")


@dataclass(frozen=True)
class BoundaryPoint(RateTuple):
    """A traced point: time sharing of evaluated |Q| = 1 `witnesses`, witness i
    on a `weights[i]` share of the symbols with its own code and `optimal_g`.
    Every coordinate is the weighted mean of the witnesses' corners, so the
    point is achievable. `feasible` is False when no evaluated system met the
    grid bound; the point is then the pool system with the least coordinate."""

    witnesses: tuple[AuxSystem, ...] = field(default=(), compare=False)
    weights: tuple[float, ...] = ()
    feasible: bool = True


def _lower_hull(points: list[tuple]) -> list[tuple]:
    """Lower convex hull of (x, y, ...) points sorted by x (monotone chain)."""
    hull: list[tuple] = []
    for p in points:
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  <= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])):
            hull.pop()
        hull.append(p)
    return hull


def _pareto_front(x: np.ndarray, y: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Indices, in x order, of the admissible offers no other admissible offer
    weakly dominates in (x, y), the first of exact ties kept: the entries of a
    pool offered them one at a time that admits an offer no entry weakly
    dominates and evicts the entries it weakly dominates."""
    ok = np.flatnonzero(gap <= ADMISSIBILITY_TOL)
    ok = ok[np.lexsort((ok, y[ok], x[ok]))]
    # in this order every earlier offer has x <= this one's; keep y below them all
    return ok[y[ok] < np.minimum.accumulate(np.concatenate(([np.inf], y[ok])))[:-1]]


def trace_boundary(m: SourceModel, f: FunctionSpec, sweep: BoundarySweep, mode: str,
                   budget: SearchBudget | None = None,
                   d: DistortionSpec | None = None) -> list[BoundaryPoint]:
    """Least `minimize` coordinate subject to `coordinate` <= each grid value.

    One lockstep call runs the |Q| = 1 descents, g * restarts + r from
    child_seed(seed, g, r) under grid value g, scoring only `coordinate`,
    `minimize` and the residual. The pool, built once after them
    (`_pareto_front`), keeps the admissible systems none dominates in
    (coordinate, minimize) among the canonical corners, then each descent's
    scanned candidates, whose other coordinates are then scored in one batch.
    With `budget.q_size` = 1 a point is the best pool system within its bound;
    with 2 it lies on the pool's lower convex hull. A hull pair is not
    re-evaluated as one |Q| = 2 system, whose shared U alphabet lets `optimal_g`
    pool the two reconstructions on (u, y) and lift d above the chord. The
    corners are scored alone by `_eval_candidate`, so each is its own verified
    witness; every other distinct witness is re-evaluated alone by it, once,
    and must reproduce its pool coordinates within MEMBERSHIP_TOL.
    """
    budget = budget or SearchBudget()
    u_size, v_size, _ = budget.resolved_sizes(m, mode)
    use_d = "d" in (sweep.coordinate, sweep.minimize)
    if use_d and (mode != "lossy" or d is None):
        raise RegionError("sweeping distortion needs lossy mode and a distortion spec")
    _check_fit(f, d, RegionError)
    d_used = d if use_d else None
    keys = _COORDS if use_d else _COORDS[:4]
    ix, iy = _COORDS.index(sweep.coordinate), _COORDS.index(sweep.minimize)
    param = _AuxParam(m, u_size, v_size, 1)
    corners = list(_canonical_corners(m, f, mode, d_used))
    # by pool row, verified
    witnesses: dict[int, AuxSystem] = {i: aux for i, (aux, _) in enumerate(corners)}
    # owner, point, coordinates (d NaN when unread) and residual of each row
    # scored, and which rows were scanned; the corners come first, owner -1
    found = [(np.full(len(corners), -1), np.zeros((len(corners), param.size)),
              np.array([[getattr(r, k) for k in _COORDS] for _, (r, _) in corners], dtype=float),
              np.array([gap for _, (_, gap) in corners]))]
    masks = [np.ones(len(corners), dtype=bool)]
    bounds = np.repeat(sweep.grid, budget.restarts)

    def score(points: np.ndarray, owner: np.ndarray, bar: np.ndarray) -> np.ndarray:
        # every row is scored whole, whatever its bar: the pool reads them all
        coords, gap = _eval_rows(param.source(points), f, mode, d_used, (ix, iy))
        found.append((owner, points, coords, gap))
        return coords[:, iy] + 1e3 * (np.maximum(coords[:, ix] - bounds[owner], 0.0)
                                      + np.maximum(gap - ADMISSIBILITY_TOL, 0.0))

    starts = [param.random(child_seed(budget.seed, gi, r))
              for gi in range(len(sweep.grid)) for r in range(budget.restarts)]
    _coordinate_descent(param, np.reshape(starts, (-1, param.size)), score, masks.append,
                        budget.iters, INIT_STEP, MIN_STEP)
    keep = np.concatenate(masks)
    owner, points, coords, gap = (np.concatenate(col)[keep] for col in zip(*found))
    order = np.argsort(owner, kind="stable")  # offers: the corners, then descent by descent
    kept = order[_pareto_front(coords[order, ix], coords[order, iy], gap[order])]
    if not kept.size:
        raise RegionError("no evaluated auxiliary system is admissible")
    fill = kept[owner[kept] >= 0]  # kept descent rows, scored whole; corners already are
    for at in range(0, len(fill), param.batch):
        rows = fill[at:at + param.batch]
        coords[rows] = _eval_rows(param.source(points[rows]), f, mode, d_used)[0]
    pool = [(row[ix], row[iy], row, i) for i, row in zip(kept.tolist(), coords[kept].tolist())]

    def verified(entry) -> AuxSystem:
        at = entry[3]
        if at not in witnesses:  # each is verified once
            aux = param.to_aux(points[at])
            rates, gap = _eval_candidate(m, aux, f, mode, d_used)
            again = rates.coords()
            if gap > ADMISSIBILITY_TOL or any(abs(again[k] - entry[2][i]) > MEMBERSHIP_TOL
                                              for i, k in enumerate(keys)):
                raise RegionError("a boundary witness does not reproduce its pool coordinates")
            witnesses[at] = aux
        return witnesses[at]

    vertices = _lower_hull(pool) if budget.q_size > 1 else pool
    results = []
    for bound in sweep.grid:
        i = sum(e[0] <= bound + MEMBERSHIP_TOL for e in vertices) - 1  # -1: none meets it
        a = vertices[max(i, 0)]
        parts = [(1.0, a)]
        if budget.q_size > 1 and 0 <= i < len(vertices) - 1 and a[0] < bound:
            b = vertices[i + 1]
            w = (b[0] - bound) / (b[0] - a[0])
            parts = [(w, a), (1.0 - w, b)]
        mean = {k: sum(w * e[2][j] for w, e in parts) for j, k in enumerate(keys)}
        results.append(BoundaryPoint(**mean, witnesses=tuple(verified(e) for _, e in parts),
                                     weights=tuple(w for w, _ in parts), feasible=i >= 0))
    return results
