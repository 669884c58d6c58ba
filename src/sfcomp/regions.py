"""Single-function rate-region evaluation, membership search, boundary tracing.

A rate corner for a given auxiliary system mixes a time-sharing weight with
per-weight auxiliary channel pairs. The four rate coordinates are conditional
mutual informations on the mixed joint plus a nonpositive offset
min(I(U;Z|V,Q) - I(U;Y|V,Q), 0); the offset conditions on (V,Q) while the
leading terms are evaluated on the mixture itself. A per-weight diagnostic
report is available for the averaged view.

A single function is the one-arm case of the multi-function bounds. Every
evaluator reads one source, `_ProductForm`: the mixture joint kept as
per-arm factors, whose marginals are contractions of validated `Dist` and
`CondDist` tables and so are trusted like `JointDist.marginal`'s. A CMI is
read on the marginal over its axes (`_cmi`), admissibility as H(F|U,Q,Y) on
the (u, q, xt, y) marginal (`models._function_residual`). TABLE_CELL_CAP
bounds each per-arm factor and each marginal before it is allocated. Dense
joints remain as the tests' `compose`-built references (`_dense_joint`,
`aux_mixture_joint`) and as joints supplied to the outer bound, which `_cmi`
reads the same way.

Searches are seeded multi-start coordinate descent with step halving and
simplex projection; restart r of grid point g uses child_seed(seed, g, r).
Time sharing makes the region convex, so `trace_boundary` searches |Q| = 1
systems and reads each grid point off the lower convex hull of all it evaluated.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .models import (
    ADMISSIBILITY_TOL,
    DistortionSpec,
    FunctionSpec,
    SourceModel,
    _function_residual,
    _project_simplex,
)
from .probability import (
    Alphabet,
    CondDist,
    Dist,
    JointDist,
    ProbabilityError,
    UnknownAxis,
    _check_cells,
    compose,
    cond_mutual_info,
    constant_channel,
    identity_channel,
    min_zero,
    mixture,
    uniform,
)
from .seeding import child_seed, uniforms

RATE_NEG_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9


class RegionError(ValueError):
    """Invalid auxiliary system, budget, or evaluation request."""


class CardinalityError(RegionError):
    """Auxiliary alphabet larger than the mode's search bound."""


class InadmissibleAuxiliary(RegionError):
    """Auxiliary channel fails the determine-the-function requirement."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

    def dominates(self, target: "RateTuple", tol: float = MEMBERSHIP_TOL) -> bool:
        """True when every coordinate is <= the target's within tol."""
        mine, theirs = self.coords(), target.coords()
        return all(mine.get(k, 0.0) <= v + tol for k, v in theirs.items())


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


@dataclass(frozen=True)
class ReconstructionFn:
    """Deterministic reconstruction table on (auxiliary symbol, decoder observation)."""

    u_alphabet: Alphabet
    y_alphabet: Alphabet
    output: Alphabet
    table: np.ndarray  # symbol indices, shape (|u|, |y|)

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.int64)
        if table.shape != (self.u_alphabet.size, self.y_alphabet.size):
            raise RegionError(f"reconstruction table shape {table.shape} does not cover the domain")
        if table.min() < 0 or table.max() >= self.output.size:
            raise RegionError("reconstruction table symbol out of range")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)


def singleton_alphabet(name: str) -> Alphabet:
    return Alphabet(name, ("0",))


def identity_aux(m: SourceModel, u_name: str = "u", v_name: str = "v",
                 q_name: str = "q") -> AuxSystem:
    """U copies the encoder observation, V is constant, no time sharing."""
    p_u = identity_channel(m.xt_alphabet, u_name)
    p_v = constant_channel(p_u.output, singleton_alphabet(v_name))
    return AuxSystem(uniform(singleton_alphabet(q_name)), (AuxPair(p_u, p_v),))


def constant_aux(m: SourceModel, u_name: str = "u", v_name: str = "v",
                 q_name: str = "q") -> AuxSystem:
    """U and V carry no information."""
    p_u = constant_channel(m.xt_alphabet, singleton_alphabet(u_name))
    p_v = constant_channel(p_u.output, singleton_alphabet(v_name))
    return AuxSystem(uniform(singleton_alphabet(q_name)), (AuxPair(p_u, p_v),))


def v_equals_u_aux(p_u_given_xt: CondDist, v_name: str = "v", q_name: str = "q") -> AuxSystem:
    """Wrap a single auxiliary channel with V a noiseless copy of U."""
    p_v = identity_channel(p_u_given_xt.output, v_name)
    return AuxSystem(uniform(singleton_alphabet(q_name)), (AuxPair(p_u_given_xt, p_v),))


def _canonical_corners(m: SourceModel) -> tuple[AuxSystem, ...]:
    """The systems both searches evaluate first, in this order."""
    return (identity_aux(m), constant_aux(m),
            v_equals_u_aux(identity_channel(m.xt_alphabet, "u")))


def _dense_joint(p_x: Dist, p_q: Dist,
                 arms: Sequence[tuple[CondDist, Sequence[AuxPair], CondDist]]) -> JointDist:
    """Dense joint over (q, v_*, u_*, xt_*, x, y_*, z_*) of arms named apart,
    each (p(xt|x), one `AuxPair` per weight symbol, p(yz|x)). Built by
    `compose`; the tests compare `_ProductForm` against it."""
    xn = p_x.alphabet.name
    pairs = [per_q[0] for _, per_q, _ in arms]  # every weight symbol shares these alphabets
    yz = [p_yz.output for _, _, p_yz in arms]
    order = ([p.v_alphabet.name for p in pairs] + [p.u_alphabet.name for p in pairs]
             + [p_xt.output.name for p_xt, _, _ in arms] + [xn]
             + [out.parts[0].name for out in yz] + [out.parts[1].name for out in yz])
    components = []
    for qi in range(p_q.alphabet.size):
        steps = []
        for p_xt, per_q, _ in arms:
            pair = per_q[qi]
            steps += [(p_xt, xn), (pair.p_u_given_xt, p_xt.output.name),
                      (pair.p_v_given_u, pair.u_alphabet.name)]
        steps += [(p_yz, xn) for _, _, p_yz in arms]
        joint = compose(p_x, *steps)
        for out in yz:
            joint = joint.split(out.name)
        components.append(joint.reorder(order))
    return mixture(p_q, components)


def aux_mixture_joint(m: SourceModel, aux: AuxSystem) -> JointDist:
    """Dense joint over (q, v, u, xt, x, y, z) induced by the model and the auxiliary system."""
    return _dense_joint(m.p_x, aux.p_q, ((m.p_xt_given_x, aux.per_q, m.p_yz_given_x),))


def _source(m: SourceModel, aux: AuxSystem) -> "_ProductForm":
    """The source the single-function evaluators read: the one-arm factor form."""
    return _ProductForm(m.p_x, aux.p_q, ((m.p_xt_given_x, aux.per_q, m.p_yz_given_x),))


class _ProductForm:
    """The mixture joint of the arm triples `_dense_joint` takes, as per-arm factors.

    p(q, x, ...) = p(q) p(x) prod_j f_j[q, x, xt_j, u_j, v_j, y_j, z_j] with
    f_j = p(xt_j | x) p(u_j | xt_j, q) p(v_j | u_j, q) p(y_j, z_j | x).
    `marginal` has the signature of `JointDist.marginal` and builds only the
    table asked for. TABLE_CELL_CAP bounds each arm's factor and each marginal
    read; at J = 1 the factor is the whole joint but for p(q) p(x).
    """

    def __init__(self, p_x: Dist, p_q: Dist,
                 arms: Sequence[tuple[CondDist, Sequence[AuxPair], CondDist]]) -> None:
        self._p_q, self._p_x = p_q.probs, p_x.probs
        self._q, self._x = p_q.alphabet.name, p_x.alphabet.name
        self._arms = []  # (local axes (xt, u, v, y, z), factor)
        for p_xt, per_q, p_yz in arms:
            first = per_q[0]  # every weight symbol shares its alphabets
            if first.p_u_given_xt.input != p_xt.output:
                raise ProbabilityError(f"auxiliary channel is not fed by the observation "
                                       f"{p_xt.output.name!r}")
            y, z = p_yz.output.parts
            local = (p_xt.output, first.u_alphabet, first.v_alphabet, y, z)
            _check_cells((p_q.alphabet, p_x.alphabet) + local, "arm factor")
            factor = np.einsum("xa,qau,quv,xyz->qxauvyz", p_xt.rows,
                               np.stack([p.p_u_given_xt.rows for p in per_q]),
                               np.stack([p.p_v_given_u.rows for p in per_q]),
                               p_yz.rows.reshape(p_x.alphabet.size, y.size, z.size))
            self._arms.append((local, factor))
        per_arm = [tuple(local[i] for local, _ in self._arms) for i in range(5)]
        self.axes = ((p_q.alphabet,) + per_arm[2] + per_arm[1] + per_arm[0]
                     + (p_x.alphabet,) + per_arm[3] + per_arm[4])
        if len({alph.name for alph in self.axes}) != len(self.axes):
            raise ProbabilityError(f"duplicate axis names in joint: "
                                   f"{[alph.name for alph in self.axes]}")

    def marginal(self, axes) -> JointDist:
        """Marginal joint on the named axes, in the canonical axis order; trusted,
        as a contraction of validated `Dist` and `CondDist` tables."""
        want = {axes} if isinstance(axes, str) else set(axes)
        if not want:
            raise ProbabilityError("marginal needs a nonempty axis set")
        kept = tuple(alph for alph in self.axes if alph.name in want)
        if len(kept) != len(want):
            names = tuple(alph.name for alph in self.axes)
            raise UnknownAxis(f"axes {sorted(want - set(names))} not in joint over {names}")
        _check_cells(kept, "marginal")
        # einsum labels: output axes first, then q and x when they are summed out
        label = {alph.name: i for i, alph in enumerate(kept)}
        q, x = label.get(self._q, len(kept)), label.get(self._x, len(kept) + 1)
        operands = [self._p_q, [q], self._p_x, [x]]
        for local, factor in self._arms:
            mine = [i for i, alph in enumerate(local) if alph.name in want]
            drop = tuple(2 + i for i in range(len(local)) if i not in mine)
            operands += [factor.sum(axis=drop), [q, x] + [label[local[i].name] for i in mine]]
        return JointDist._derived(kept, np.einsum(*operands, list(range(len(kept)))))


def _clamp_rate(value: float) -> float:
    if value < -RATE_NEG_TOL:
        raise RegionError(f"rate coordinate {value!r} is negative beyond tolerance")
    return 0.0 if value < 0.0 else value


def _cmi(src, a, b, c=()) -> float:
    """I(A;B|C) on the marginal on A, B and C of a source: a `_ProductForm`
    or a dense `JointDist`."""
    sets = [(s,) if isinstance(s, str) else tuple(s) for s in (a, b, c)]
    return cond_mutual_info(src.marginal(sets[0] + sets[1] + sets[2]), a, b, c)


def _multi_rates(src, u: tuple[str, ...], v: tuple[str, ...], xt: tuple[str, ...],
                 y: tuple[str, ...], z: tuple[str, ...], q: str, x: str,
                 ) -> tuple[MultiRateTuple, float]:
    """Rate tuple and offset of a J-arm system; `u` ... `z` name one axis per arm.

    Each auxiliary absorbs the time-sharing label, so the leading terms use
    (U, Q) while the offset conditions on (V, Q); with heterogeneous branches
    only this reading keeps every coordinate >= 0.
    """
    uq, vq = u + (q,), v + (q,)
    offset = min_zero(_cmi(src, u, z, vq) - _cmi(src, u, y, vq))
    r_s = _clamp_rate(_cmi(src, uq, xt, z) + offset)
    r_w = tuple([_clamp_rate(_cmi(src, (uk, q), xk, yk)) for uk, xk, yk in zip(u, xt, y)])
    r_dec = tuple([_clamp_rate(_cmi(src, (uk, q), x, yk)) for uk, yk in zip(u, y)])
    # one arm's sum-storage term is its storage term, read from the same entropies
    sum_w = r_w[0] if len(u) == 1 else _clamp_rate(_cmi(src, uq, xt, y))
    r_eve = _clamp_rate(_cmi(src, uq, x, z) + offset)
    return MultiRateTuple(r_s, r_w, sum_w, r_dec, r_eve), offset


def _corner_rates(m: SourceModel, aux: AuxSystem, src: _ProductForm | None = None,
                  ) -> tuple[RateTuple, float, _ProductForm]:
    """Rate corner, offset and the source it was read from (built when not given)."""
    if src is None:
        src = _source(m, aux)
    rates, offset = _multi_rates(
        src, (aux.u_alphabet.name,), (aux.v_alphabet.name,), (m.xt_alphabet.name,),
        (m.y_alphabet.name,), (m.z_alphabet.name,), aux.p_q.alphabet.name, m.x_alphabet.name)
    return single_arm_tuple(rates), offset, src


def _require_admissible(src, arms: Sequence[tuple[FunctionSpec, str, str, str]],
                        q: str) -> None:
    """Raise unless each arm's residual H(F | U, Q, Y), read on the source's
    (u, q, xt, y) marginal, is zero; `arms` holds (f, u, xt, y) per arm."""
    for f, u, xt, y in arms:
        gap = _function_residual(src.marginal((u, q, xt, y)), f, xt, y)
        if gap > ADMISSIBILITY_TOL:
            raise InadmissibleAuxiliary(
                f"({u}, {q}, {y}) leave {gap:.3g} bits of the function undetermined")


def _single_names(m: SourceModel, aux: AuxSystem) -> tuple[str, str, str]:
    return aux.u_alphabet.name, m.xt_alphabet.name, m.y_alphabet.name


def eval_lossless_corner(m: SourceModel, aux: AuxSystem, f: FunctionSpec) -> RateTuple:
    """Componentwise-minimal achievable tuple for an admissible auxiliary system."""
    aux.validate_cardinalities(m.xt_alphabet.size, "lossless")
    src = _source(m, aux)
    _require_admissible(src, ((f, *_single_names(m, aux)),), aux.p_q.alphabet.name)
    return _corner_rates(m, aux, src)[0]


def optimal_g(m: SourceModel, aux: AuxSystem, f: FunctionSpec,
              d: DistortionSpec, joint: "JointDist | _ProductForm | None" = None,
              ) -> ReconstructionFn:
    """Reconstruction minimizing conditional expected distortion cell by cell.

    Under Hamming distortion this is the most-likely-function-value rule.
    Cells with zero probability get the globally most likely function symbol;
    ties break toward the lowest symbol index. `joint`, when given, is the
    system's source or any marginal of it that keeps (u, xt, y).
    """
    if joint is None:
        joint = _source(m, aux)
    p_uxty = joint.marginal(_single_names(m, aux)).table
    nf = f.output.size
    p = (p_uxty[..., None] * np.eye(nf)[f.table][None]).sum(axis=1)  # (u, y, f)
    # risk[u, y, fhat] = sum_f p(u,y,f) d(f, fhat)
    risk = np.einsum("uyf,fg->uyg", p, d.table)
    table = np.argmin(risk, axis=2)
    cell_mass = p.sum(axis=2)
    global_best = int(np.argmax(p.sum(axis=(0, 1))))
    table = np.where(cell_mass > 0.0, table, global_best)
    return ReconstructionFn(aux.u_alphabet, m.y_alphabet, f.output, table)


def _mean_distortion(p_uxty: np.ndarray, f: FunctionSpec, g: ReconstructionFn,
                     d: DistortionSpec) -> float:
    """E d(f(xt, y), g(u, y)) from the marginal table p(u, xt, y)."""
    val = d.table[f.table[None, :, :], g.table[:, None, :]]
    return float(np.sum(p_uxty * val))


def expected_distortion(m: SourceModel, aux: AuxSystem, f: FunctionSpec,
                        g: ReconstructionFn, d: DistortionSpec) -> float:
    """E d(f(xt, y), g(u, y)) under the model and the auxiliary system."""
    return _mean_distortion(_source(m, aux).marginal(_single_names(m, aux)).table, f, g, d)


def eval_lossy_corner(m: SourceModel, aux: AuxSystem, f: FunctionSpec,
                      g: ReconstructionFn, d: DistortionSpec) -> RateTuple:
    """Rate corner plus expected distortion; no admissibility requirement."""
    aux.validate_cardinalities(m.xt_alphabet.size, "lossy")
    rates, _, src = _corner_rates(m, aux)
    return replace(rates, d=_mean_distortion(src.marginal(_single_names(m, aux)).table,
                                             f, g, d))


@dataclass(frozen=True)
class PerQEntry:
    label: str
    weight: float
    rates: RateTuple
    offset: float


def per_q_report(m: SourceModel, aux: AuxSystem) -> tuple[PerQEntry, ...]:
    """Evaluate each time-sharing branch as its own singleton system."""
    out = []
    for qi, pair in enumerate(aux.per_q):
        single = AuxSystem(uniform(singleton_alphabet(aux.p_q.alphabet.name)), (pair,))
        rates, offset, _ = _corner_rates(m, single)
        out.append(PerQEntry(aux.p_q.alphabet.labels[qi], float(aux.p_q.probs[qi]),
                             rates, offset))
    return tuple(out)


# ---------------------------------------------------------------------------
# Search: seeded multi-start coordinate descent over channel entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchBudget:
    """Search parameters; defaults follow the documented evaluation recipe."""

    restarts: int = 64
    iters: int = 500
    seed: int = 0
    u_size: int | None = None  # defaults to the encoder-observation alphabet size
    v_size: int = 1
    q_size: int = 1
    init_step: float = 0.25
    min_step: float = 1e-6
    candidates: tuple[AuxSystem, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.restarts < 0 or self.iters < 1:
            raise RegionError("invalid budget: restarts must be >= 0 and iters >= 1")
        if self.v_size < 1 or self.q_size < 1 or (self.u_size is not None and self.u_size < 1):
            raise RegionError("invalid budget: alphabet sizes must be >= 1")
        if not (0 < self.min_step <= self.init_step):
            raise RegionError("invalid budget: need 0 < min_step <= init_step")

    def resolved_sizes(self, m: SourceModel, mode: str) -> tuple[int, int, int]:
        xt = m.xt_alphabet.size
        u = self.u_size if self.u_size is not None else xt
        _check_sizes(mode, xt, self.q_size, u, self.v_size, where="invalid budget: ")
        return u, self.v_size, self.q_size


def _alphabet_of_size(name: str, n: int) -> Alphabet:
    return Alphabet(name, tuple(str(i) for i in range(n)))


class _AuxParam:
    """Flat simplex-block parameterization of an auxiliary system."""

    def __init__(self, m: SourceModel, u_size: int, v_size: int, q_size: int):
        self.m = m
        self.q_alpha = _alphabet_of_size("q", q_size)
        self.u_alpha = _alphabet_of_size("u", u_size)
        self.v_alpha = _alphabet_of_size("v", v_size)
        xt = m.xt_alphabet.size
        self.blocks: list[int] = []
        if q_size > 1:
            self.blocks.append(q_size)
        for _ in range(q_size):
            self.blocks.extend([u_size] * xt)
            if v_size > 1:
                self.blocks.extend([v_size] * u_size)

    def random(self, seed: int) -> list[np.ndarray]:
        total = sum(self.blocks)
        raw = -np.log(np.maximum(uniforms(seed, 0, total), 1e-300))
        out, at = [], 0
        for size in self.blocks:
            chunk = raw[at:at + size]
            out.append(chunk / chunk.sum())
            at += size
        return out

    def to_aux(self, blocks: list[np.ndarray]) -> AuxSystem:
        xt = self.m.xt_alphabet.size
        at = 0
        if self.q_alpha.size > 1:
            p_q = Dist(self.q_alpha, _renorm(blocks[at]))
            at += 1
        else:
            p_q = uniform(self.q_alpha)
        pairs = []
        for _ in range(self.q_alpha.size):
            u_rows = np.stack([_renorm(blocks[at + i]) for i in range(xt)])
            at += xt
            if self.v_alpha.size > 1:
                v_rows = np.stack([_renorm(blocks[at + i]) for i in range(self.u_alpha.size)])
                at += self.u_alpha.size
            else:
                v_rows = np.ones((self.u_alpha.size, 1))
            pairs.append(AuxPair(CondDist(self.m.xt_alphabet, self.u_alpha, u_rows),
                                 CondDist(self.u_alpha, self.v_alpha, v_rows)))
        return AuxSystem(p_q, tuple(pairs))


def _renorm(v: np.ndarray) -> np.ndarray:
    w = np.maximum(v, 0.0)
    s = w.sum()
    return w / s if s > 0 else np.full_like(w, 1.0 / len(w))


def _coordinate_descent(objective, param: _AuxParam, blocks, iters, init_step, min_step):
    best = objective(blocks)
    step = init_step
    for _ in range(iters):
        improved = False
        for bi in range(len(blocks)):
            for ci in range(len(blocks[bi])):
                for sign in (1.0, -1.0):
                    cand = [b.copy() for b in blocks]
                    cand[bi][ci] += sign * step
                    cand[bi] = _project_simplex(cand[bi])
                    val = objective(cand)
                    if val < best - 1e-15:
                        blocks, best = cand, val
                        improved = True
                        break
        if not improved:
            step *= 0.5
            if step < min_step:
                break
    return blocks, best


@dataclass(frozen=True)
class MembershipResult:
    found: bool
    witness: AuxSystem | None
    achieved: RateTuple | None
    g: ReconstructionFn | None = None


def _eval_candidate(m, aux, f, mode, d):
    """(rates, admissibility residual) from one source; d filled in lossy mode when given."""
    aux.validate_cardinalities(m.xt_alphabet.size, mode)
    rates, _, src = _corner_rates(m, aux)
    u, xt, y = _single_names(m, aux)
    if mode == "lossless":
        return rates, _function_residual(src.marginal((u, aux.p_q.alphabet.name, xt, y)),
                                         f, xt, y)
    if d is None:
        return rates, 0.0
    # one (u, xt, y) marginal serves the reconstruction and the distortion
    uxty = src.marginal((u, xt, y))
    g = optimal_g(m, aux, f, d, uxty)
    return replace(rates, d=_mean_distortion(uxty.table, f, g, d)), 0.0


def membership(m: SourceModel, f: FunctionSpec, target: RateTuple, mode: str,
               budget: SearchBudget | None = None,
               d: DistortionSpec | None = None) -> MembershipResult:
    """Search for an auxiliary system whose corner sits under the target.

    Returns a witness when one is found; a not-found answer is *not* a proof
    of non-membership. Deterministic given the budget seed. Candidate systems
    supplied in the budget are verified first (witness reuse), then canonical
    corners, then seeded random restarts refined by coordinate descent.
    """
    budget = budget or SearchBudget()
    _check_mode(mode)
    if not all(np.isfinite(v) for v in target.coords().values()):
        raise RegionError("membership target must have finite coordinates")
    if mode == "lossy" and target.d is not None and d is None:
        raise RegionError("a distortion target needs a distortion spec")
    want_d = target.d is not None

    def verdict(aux: AuxSystem) -> MembershipResult | None:
        rates, gap = _eval_candidate(m, aux, f, mode, d if want_d else None)
        if gap <= ADMISSIBILITY_TOL and rates.dominates(target):
            g = optimal_g(m, aux, f, d) if (want_d and d is not None) else None
            return MembershipResult(True, aux, rates, g)
        return None

    for aux in (*budget.candidates, *_canonical_corners(m)):
        hit = verdict(aux)
        if hit:
            return hit

    u_size, v_size, q_size = budget.resolved_sizes(m, mode)
    param = _AuxParam(m, u_size, v_size, q_size)
    tcoords = target.coords()

    def objective(blocks) -> float:
        aux = param.to_aux(blocks)
        rates, gap = _eval_candidate(m, aux, f, mode, d if want_d else None)
        excess = max(rates.coords().get(k, 0.0) - v for k, v in tcoords.items())
        return excess + 1e3 * max(gap - ADMISSIBILITY_TOL, 0.0)

    for r in range(budget.restarts):
        blocks = param.random(child_seed(budget.seed, 0, r))
        blocks, val = _coordinate_descent(objective, param, blocks, budget.iters,
                                          budget.init_step, budget.min_step)
        if val <= MEMBERSHIP_TOL:
            hit = verdict(param.to_aux(blocks))
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
        names = ("r_s", "r_w", "r_dec", "r_eve", "d")
        if self.coordinate not in names or self.minimize not in names:
            raise RegionError(f"sweep coordinates must be among {names}")


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


def trace_boundary(m: SourceModel, f: FunctionSpec, sweep: BoundarySweep, mode: str,
                   budget: SearchBudget | None = None,
                   d: DistortionSpec | None = None) -> list[BoundaryPoint]:
    """Least `minimize` coordinate subject to `coordinate` <= each grid value.

    A pool keeps the evaluated admissible systems none dominates in (coordinate,
    minimize): the canonical corners, then seeded |Q| = 1 descents per grid point.
    With `budget.q_size` = 1 a point is the best pool system within its bound;
    with 2 it lies on the pool's lower convex hull. A hull pair is not
    re-evaluated as one |Q| = 2 system, whose shared U alphabet lets `optimal_g`
    pool the two reconstructions on (u, y) and lift d above the chord.
    """
    budget = budget or SearchBudget()
    u_size, v_size, _ = budget.resolved_sizes(m, mode)
    use_d = "d" in (sweep.coordinate, sweep.minimize)
    if use_d and (mode != "lossy" or d is None):
        raise RegionError("sweeping distortion needs lossy mode and a distortion spec")
    pool: list[tuple[float, float, RateTuple, AuxSystem]] = []  # (x, y, rates, witness)

    def evaluate(aux: AuxSystem, bound: float = 0.0) -> float:
        """Penalized objective for `bound`; an admissible system joins the pool."""
        rates, gap = _eval_candidate(m, aux, f, mode, d if use_d else None)
        x, y = rates.coords()[sweep.coordinate], rates.coords()[sweep.minimize]
        if gap <= ADMISSIBILITY_TOL and not any(a <= x and b <= y for a, b, _, _ in pool):
            pool[:] = [e for e in pool if not (x <= e[0] and y <= e[1])] + [(x, y, rates, aux)]
        return y + 1e3 * (max(x - bound, 0.0) + max(gap - ADMISSIBILITY_TOL, 0.0))

    for aux in _canonical_corners(m):
        evaluate(aux)
    param = _AuxParam(m, u_size, v_size, 1)
    for gi, bound in enumerate(sweep.grid):
        for r in range(budget.restarts):
            _coordinate_descent(lambda blocks: evaluate(param.to_aux(blocks), bound), param,
                                param.random(child_seed(budget.seed, gi, r)),
                                budget.iters, budget.init_step, budget.min_step)
    if not pool:
        raise RegionError("no evaluated auxiliary system is admissible")
    pool.sort(key=lambda e: e[0])  # x ascending, so y descending
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
        mean = {k: sum(w * e[2].coords()[k] for w, e in parts) for k in a[2].coords()}
        results.append(BoundaryPoint(**mean, witnesses=tuple(e[3] for _, e in parts),
                                     weights=tuple(w for w, _ in parts), feasible=i >= 0))
    return results
