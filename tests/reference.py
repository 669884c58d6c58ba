"""Dense reference joints, built apart from the package's one joint builder,
and the dense checks only the tests call.

`sources._ProductForm` builds every auxiliary joint the package reads. The
tests check it against these joints, which compose each weight symbol's
channels one at a time (`compose`), split the (y, z) output and mix the
components under the weight (`mixture`). A J-arm reference renames each
arm's channels with the public, validating constructors, under the axis
names of the J-arm convention (q, v1..vJ, u1..uJ, xtilde1..xtildeJ, x,
y1..yJ, z1..zJ).
"""

from __future__ import annotations

from collections.abc import Sequence

from sfcomp.models import MultiModel, SourceModel
from sfcomp.multifunction import CHAIN_TOL, MultiAuxSystem, _dense
from sfcomp.probability import (
    Alphabet,
    CondDist,
    Dist,
    JointDist,
    compose,
    mixture,
    product_alphabet,
)
from sfcomp.regions import AuxPair, AuxSystem


def dense_joint(p_x: Dist, p_q: Dist,
                arms: Sequence[tuple[CondDist, Sequence[AuxPair], CondDist]]) -> JointDist:
    """Dense joint over (q, v_*, u_*, xt_*, x, y_*, z_*) of arms named apart,
    each (p(xt|x), one `AuxPair` per weight symbol, p(yz|x))."""
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
    """The reference of the one-arm source's full read,
    `regions._source(m, aux).dense()`, over (q, v, u, xt, x, y, z)."""
    return dense_joint(m.p_x, aux.p_q, ((m.p_xt_given_x, aux.per_q, m.p_yz_given_x),))


def multi_joint(m: MultiModel, a: MultiAuxSystem) -> JointDist:
    """`multifunction.build_multi_joint`'s reference. Each U channel is taken
    to read its arm's observation, as every system the tests build does."""
    arms = []
    for k, (arm, pairs) in enumerate(zip(m.arms, a.arms, strict=True), start=1):
        p_xt, p_yz = arm.p_xt_given_x, arm.p_yz_given_x
        xt, u, v = (Alphabet(f"{name}{k}", alph.labels) for name, alph in
                    (("xtilde", p_xt.output), ("u", pairs[0].u_alphabet),
                     ("v", pairs[0].v_alphabet)))
        y, z = (Alphabet(f"{name}{k}", part.labels)
                for name, part in zip("yz", p_yz.output.parts))
        arms.append((CondDist(p_xt.input, xt, p_xt.rows),
                     tuple(AuxPair(CondDist(xt, u, p.p_u_given_xt.rows),
                                   CondDist(u, v, p.p_v_given_u.rows)) for p in pairs),
                     CondDist(p_yz.input, product_alphabet(f"yz{k}", y, z), p_yz.rows)))
    return dense_joint(m.p_x, a.p_q, arms)


def factorizes_per_arm(m: MultiModel, joint: JointDist) -> bool:
    """True when each arm's I(arm; other arms | q, x) is at most CHAIN_TOL, as the
    product-form inner bound requires; the joint is named as in `multifunction._dense`."""
    src = _dense(m, joint)
    for k, mine in enumerate(src.arm_names):
        others = tuple(n for i, arm in enumerate(src.arm_names) if i != k for n in arm)
        if src.cmis(((mine, others, (src.q, src.x)),))[0][0] > CHAIN_TOL:
            return False
    return True
