"""Multi-function rate bounds for several encoder-decoder pairs on one source.

The inner bound evaluates rate tuples on the product-form joint in which,
given the source letter and the time-sharing label, arms are independent and
each arm factors source -> observation -> U -> V. The outer bound evaluates
the same expressions on any supplied joint whose arms each satisfy the
per-arm Markov chain; couplings across arms beyond the product form are
allowed there, and that relaxation is the only difference between the two.

A single function is the one-arm case: the rate formulas, the size policy
and the one reader of rates, distortions and admissibility residuals,
`_rows`, whose one-system read `_corner_rates` is each bound's corner, live
in `regions`, and the one joint builder, the factor source `_ProductForm`,
in `sources`; they serve both, and `sources` says why the source's marginals
are trusted. `_source` hands `_ProductForm` a system's validated tables with
each arm's axis names (`_axis_names`); the source renames alphabets, never
channels. `eval_inner_mf`, and `eval_outer_mf` given a `MultiAuxSystem`, read
its marginals without forming the joint (its cell count is exponential in
J); `build_multi_joint` is its full read. A dense `JointDist` supplied to
`eval_outer_mf` or `multi_chain_report` is read the same way, as a `_Dense`
source named by `_dense`. Every reader takes the axis names from the source
it reads. The model keeps the structure a system's source is restacked from
and each arm's `build_joint` table, which `multi_chain_report` compares
against (`models._memoized`). A bound evaluates one system, the B = 1 case
of the batched code the search runs.

Axis naming convention for a J-arm joint (`_axis_names`):
(q, v1..vJ, u1..uJ, xtilde1..xtildeJ, x, y1..yJ, z1..zJ).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import MultiModel, _memoized, build_joint
from .probability import Dist, JointDist, UnknownAxis
from .regions import (
    AuxPair,
    AuxSystem,
    MultiRateTuple,
    ReconstructionFn,
    RegionError,
    _check_mode,
    _check_sizes,
    _corner_rates,
    _multi_rates,  # re-exported, as the multi-function rate evaluator
    single_arm_tuple,  # re-exported: part of this module's public names
)
from .sources import _Dense, _ProductForm, _Source

CHAIN_TOL = 1e-9
MODEL_MATCH_TOL = 1e-9


class ChainViolation(RegionError):
    """A required per-arm Markov condition fails on the supplied joint."""


@dataclass(frozen=True, eq=False)
class MultiAuxSystem:
    """Per-arm, per-branch auxiliary channel pairs under one time-sharing weight."""

    p_q: Dist
    arms: tuple[tuple[AuxPair, ...], ...]  # arms[j][q]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arms", tuple(tuple(a) for a in self.arms))
        if not self.arms:
            raise RegionError("a multi-function auxiliary system needs at least one arm")
        for pairs in self.arms:
            AuxSystem(self.p_q, pairs)  # one pair per weight symbol, shared alphabets

    @property
    def j(self) -> int:
        return len(self.arms)

    def validate_cardinalities(self, m: MultiModel, mode: str) -> None:
        if self.j != m.j:
            raise RegionError(f"auxiliary system has {self.j} arms, model has {m.j}")
        for j, (arm, pairs) in enumerate(zip(m.arms, self.arms)):
            _check_sizes(mode, arm.p_xt_given_x.output.size, self.p_q.alphabet.size,
                         pairs[0].u_alphabet.size, pairs[0].v_alphabet.size,
                         arms=self.j, where=f"arm {j}: ")


def _axis_names(j: int) -> list[tuple[str, ...]]:
    """Each arm's (xt, u, v, y, z) in a J-arm joint."""
    return [(f"xtilde{k}", f"u{k}", f"v{k}", f"y{k}", f"z{k}") for k in range(1, j + 1)]


def _source(m: MultiModel, a: MultiAuxSystem) -> _ProductForm:
    """The product form of a system on a model, its arms named by `_axis_names`,
    restacked from the model's structure for the system's alphabets."""
    return _ProductForm.of(m, (a.p_q,), [(arm.p_xt_given_x, (pairs,), arm.p_yz_given_x)
                                         for arm, pairs in zip(m.arms, a.arms, strict=True)],
                           _axis_names(m.j))


def _dense(m: MultiModel, joint: JointDist) -> _Dense:
    """A supplied dense joint as a source: arms named by `_axis_names`, the
    source axis after the model's source alphabet, and the weight axis the
    joint's one other axis. Raises UnknownAxis on a joint not of that form."""
    x, names = m.p_x.alphabet.name, _axis_names(m.j)
    rest = set(joint.names) - {x, *(n for arm in names for n in arm)}
    if len(rest) != 1 or len(joint.names) != 5 * m.j + 2:  # a joint's names are distinct
        raise UnknownAxis(f"a joint over {joint.names} is not {x!r}, {names} and one weight axis")
    return _Dense(joint, names, rest.pop(), x)


def build_multi_joint(m: MultiModel, a: MultiAuxSystem) -> JointDist:
    """Product-form joint over (q, v_*, u_*, xtilde_*, x, y_*, z_*), dense:
    the full read of the source the bound evaluators read marginals of."""
    return _source(m, a).dense()


def eval_inner_mf(m: MultiModel, a: MultiAuxSystem, mode: str,
                  g_list: tuple[ReconstructionFn, ...] | None = None) -> MultiRateTuple:
    """Inner-bound corner on the product-form joint.

    Lossless mode requires every arm's auxiliary to be admissible for that
    arm's function, H(F_j | U_j, Q, Y_j) = 0; lossy mode instead takes
    per-arm reconstructions and reports expected distortions.
    """
    a.validate_cardinalities(m, mode)
    return _corner_rates(_source(m, a), [arm.f for arm in m.arms], mode,
                         [arm.d for arm in m.arms], g_list)


@dataclass(frozen=True)
class ChainCheck:
    name: str
    value: float
    ok: bool


def multi_chain_report(m: MultiModel, joint: JointDist) -> tuple[ChainCheck, ...]:
    """Verify each arm's Markov chain and its model marginal on a supplied joint.

    The auxiliaries of the rate terms absorb the time-sharing label, so arm j
    must satisfy (V_j,Q) -- (U_j,Q) -- X~_j -- X -- (Y_j,Z_j): its first link
    is I(V_j; X~_j | U_j, Q) = 0. A link holds when its CMI is at most CHAIN_TOL;
    the 3J CMIs are one `cmis` read.
    Reads only marginals, so `joint` may also be a source, which names its own
    axes; a dense joint is named as `_dense` names it: arms by `_axis_names`,
    the source axis after the model's source alphabet and the time-sharing
    axis the one axis left.
    """
    src = joint if isinstance(joint, _Source) else _dense(m, joint)
    q, x = src.q, src.x
    triples = [triple for xt, u, v, y, z in src.arm_names for triple in (
        (v, xt, (u, q)), ((q, v, u), x, xt), ((q, v, u, xt), (y, z), x))]
    values = iter(src.cmis(tuple(triples)))  # of a list, as in `regions._multi_rates`
    checks: list[ChainCheck] = []
    for k, (xt, u, v, y, z) in enumerate(src.arm_names):
        for name in (f"arm{k + 1}: ({v},{q}) -- ({u},{q}) -- {xt}",
                     f"arm{k + 1}: ({q},{v},{u}) -- {xt} -- {x}",
                     f"arm{k + 1}: ({q},{v},{u},{xt}) -- {x} -- ({y},{z})"):
            value = float(next(values)[0])
            checks.append(ChainCheck(name, value, value <= CHAIN_TOL))
        got = src.rows((xt, x, y, z))[0]
        ref = _memoized(m, ("arm", k), lambda: build_joint(m.arm_model(k)).table)
        err = float(np.max(np.abs(got - ref)))
        checks.append(ChainCheck(f"arm{k + 1}: model marginal reproduced", err,
                                 err <= MODEL_MATCH_TOL))
    return tuple(checks)


def eval_outer_mf(m: MultiModel, system: "MultiAuxSystem | JointDist", mode: str,
                  g_list: tuple[ReconstructionFn, ...] | None = None,
                  ) -> tuple[MultiRateTuple, tuple[ChainCheck, ...]]:
    """Outer-bound corner on a supplied joint, verifying only per-arm chains.

    Accepts either a product-form auxiliary system, whose marginals are read
    from its per-arm factors without building the joint, or a raw dense joint
    using the documented axis naming, whose marginals are taken first the
    same way; couplings across arms beyond the product form pass as long as
    each arm's chain holds. Every chain and model-marginal check runs on
    either. The time-sharing axis is named after the system's weight
    alphabet, or is a supplied joint's one axis left (`_dense`). Lossless
    mode additionally requires H(F_j | U_j, Q, Y_j) = 0 per arm, as the inner
    bound does. Raises ChainViolation naming the first failing condition.
    """
    _check_mode(mode)
    if isinstance(system, MultiAuxSystem):
        system.validate_cardinalities(m, mode)
        src = _source(m, system)
    else:
        src = _dense(m, system)
    report = multi_chain_report(m, src)
    for check in report:
        if not check.ok:
            raise ChainViolation(f"{check.name} fails with value {check.value:.3g}")
    fs, ds = [arm.f for arm in m.arms], [arm.d for arm in m.arms]
    return _corner_rates(src, fs, mode, ds, g_list), report
