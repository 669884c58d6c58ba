import contextlib
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from conftest import (
    F,
    HAMMING_D,
    X,
    XT,
    XOR_F,
    Y,
    YPROJ_F,
    binary_cascade_model,
    bsc_rows,
    random_binary_model,
)
import reference
from sfcomp.models import DistortionSpec, FunctionSpec, ModelError, MultiArm, MultiModel
from sfcomp.multifunction import (
    ChainViolation,
    MultiAuxSystem,
    _axis_names,
    _multi_rates,
    _source,
    build_multi_joint,
    eval_inner_mf,
    eval_outer_mf,
    multi_chain_report,
    single_arm_tuple,
)
from sfcomp.probability import (
    Alphabet,
    CondDist,
    Dist,
    JointDist,
    ProbabilityError,
    TableTooLarge,
    UnknownAxis,
    constant_channel,
    identity_channel,
    uniform,
)
from sfcomp import regions, sources
from sfcomp.regions import (
    AuxPair,
    AuxSystem,
    CardinalityError,
    InadmissibleAuxiliary,
    ReconstructionFn,
    RegionError,
    _alphabet_of_size,
    constant_aux,
    eval_lossless_corner,
    eval_lossy_corner,
    identity_aux,
    optimal_g,
    singleton_alphabet,
    v_equals_u_aux,
)


# Hypothesis's phases but shrinking, for the properties checked against dense
# reference joints: each shrink step rebuilds J = 3 of them, and a failing
# example took minutes to report. The examples generated stay the defaults'.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def single_arm_model(m, f=XOR_F, d=HAMMING_D):
    return MultiModel(m.p_x, (MultiArm(m.p_xt_given_x, m.p_yz_given_x, f, d),))


def two_arm_model(m1, m2, f1=XOR_F, f2=XOR_F):
    return MultiModel(m1.p_x, (
        MultiArm(m1.p_xt_given_x, m1.p_yz_given_x, f1, HAMMING_D),
        MultiArm(m2.p_xt_given_x, m2.p_yz_given_x, f2, HAMMING_D),
    ))


def multi_from_aux(aux_list, p_q=None):
    p_q = p_q or uniform(singleton_alphabet("q"))
    return MultiAuxSystem(p_q, tuple(tuple(a.per_q) for a in aux_list))


def random_aux_pair(rng, u_size=2, v_size=2):
    u_alpha = _alphabet_of_size("u", u_size)
    v_alpha = _alphabet_of_size("v", v_size)
    u_rows = np.stack([rng.dirichlet((1.5,) * u_size) for _ in range(2)])
    v_rows = np.stack([rng.dirichlet((1.5,) * v_size) for _ in range(u_size)])
    return AuxPair(CondDist(XT, u_alpha, u_rows), CondDist(u_alpha, v_alpha, v_rows))


class TestBuildMultiJoint:
    def test_single_arm_matches_single_function_joint(self, cascade_model):
        aux = identity_aux(cascade_model)
        mm, a = single_arm_model(cascade_model), multi_from_aux([aux])
        single = reference.aux_mixture_joint(cascade_model, aux)
        multi = reference.multi_joint(mm, a)
        assert multi.names == ("q", "v1", "u1", "xtilde1", "x", "y1", "z1")
        assert np.array_equal(multi.table, single.table)
        assert build_multi_joint(mm, a).names == multi.names

    @settings(max_examples=15, deadline=None, phases=NO_SHRINK)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 2),
           st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=3, max_size=3))
    def test_builders_equal_the_reference(self, seed, j, q_size, sizes):
        mm, a, _ = random_multi_system(np.random.default_rng(seed), sizes[:j], q_size=q_size)
        pairs = [(build_multi_joint(mm, a), reference.multi_joint(mm, a))]
        if j == 1:
            sm, aux = mm.arm_model(0), AuxSystem(a.p_q, a.arms[0])
            pairs.append((regions._source(sm, aux).dense(), reference.aux_mixture_joint(sm, aux)))
        for got, want in pairs:
            assert got.axes == want.axes
            assert np.max(np.abs(got.table - want.table)) <= 1e-12

    def test_identical_arms_swap_symmetric(self, cascade_model):
        mm = two_arm_model(cascade_model, cascade_model)
        aux = multi_from_aux([identity_aux(cascade_model)] * 2)
        j = build_multi_joint(mm, aux)
        swapped = j.reorder(("q", "v2", "v1", "u2", "u1", "xtilde2", "xtilde1",
                             "x", "y2", "y1", "z2", "z1"))
        assert np.allclose(j.table, swapped.table, atol=1e-15)

    def test_two_arm_observation_agreement(self, cascade_model):
        # oracle: hand enumeration over the shared source letter
        mm = two_arm_model(cascade_model, cascade_model)
        aux = multi_from_aux([identity_aux(cascade_model)] * 2)
        j = build_multi_joint(mm, aux).marginal(("xtilde1", "xtilde2"))
        agree = float(j.table[0, 0] + j.table[1, 1])
        assert agree == pytest.approx(0.94**2 + 0.06**2, abs=1e-12)


class TestInnerBound:
    def test_j1_reduces_to_single_function_lossless(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            m = random_binary_model(rng)
            aux = v_equals_u_aux(identity_channel(XT, "u"))
            single = eval_lossless_corner(m, aux, XOR_F)
            multi = eval_inner_mf(single_arm_model(m), multi_from_aux([aux]), "lossless")
            got = single_arm_tuple(multi)
            for a, b in zip(single.coords().values(), got.coords().values()):
                assert a == pytest.approx(b, abs=1e-12)

    def test_j1_reduces_to_single_function_lossy(self):
        rng = np.random.default_rng(22)
        systems = []
        for _ in range(6):
            m = random_binary_model(rng)
            pair = random_aux_pair(rng)
            systems.append((m, AuxSystem(uniform(singleton_alphabet("q")), (pair,))))
        # time sharing: a different channel pair under each of two weight symbols
        rng = np.random.default_rng(23)
        q2 = _alphabet_of_size("q", 2)
        for _ in range(4):
            m = random_binary_model(rng)
            pairs = (random_aux_pair(rng), random_aux_pair(rng))
            systems.append((m, AuxSystem(Dist(q2, rng.dirichlet((2.0, 2.0))), pairs)))
        for m, aux in systems:
            g = optimal_g(m, aux, XOR_F, HAMMING_D)
            single = eval_lossy_corner(m, aux, XOR_F, g, HAMMING_D)
            mm, a = single_arm_model(m), multi_from_aux([aux], aux.p_q)
            inner = eval_inner_mf(mm, a, "lossy", (g,))
            outer, _ = eval_outer_mf(mm, a, "lossy", (g,))
            for got in (single_arm_tuple(inner), single_arm_tuple(outer)):
                for want, have in zip(single.coords().values(), got.coords().values()):
                    assert want == pytest.approx(have, abs=1e-12)

    @pytest.mark.parametrize("mode, cap", [("lossless", 6), ("lossy", 7)])
    def test_j1_size_bounds_match_single_function(self, cascade_model, mode, cap):
        # binary X~: |V| <= 2 + s and |U| <= (2 + s)^2, s = 4 lossless, 5 lossy
        mm = single_arm_model(cascade_model)
        for u_size, v_size in ((2, cap), (2, cap + 1), (cap ** 2, 1), (cap ** 2 + 1, 1)):
            u, v = _alphabet_of_size("u", u_size), _alphabet_of_size("v", v_size)
            u_rows = np.zeros((2, u_size))
            u_rows[0, 0] = u_rows[1, 1] = 1.0  # U copies X~: admissible for XOR
            pair = AuxPair(CondDist(XT, u, u_rows),
                           CondDist(u, v, np.full((u_size, v_size), 1.0 / v_size)))
            aux = AuxSystem(uniform(singleton_alphabet("q")), (pair,))
            a = multi_from_aux([aux])
            if mode == "lossless":
                evals = (lambda: eval_lossless_corner(cascade_model, aux, XOR_F),
                         lambda: eval_inner_mf(mm, a, mode))
            else:
                g = ReconstructionFn(u, Y, F, np.zeros((u_size, 2), dtype=int))
                evals = (lambda: eval_lossy_corner(cascade_model, aux, XOR_F, g, HAMMING_D),
                         lambda: eval_inner_mf(mm, a, mode, (g,)))
            for evaluate in evals:
                if u_size <= cap ** 2 and v_size <= cap:
                    evaluate()
                else:
                    with pytest.raises(CardinalityError):
                        evaluate()

    def test_arm_count_mismatch_rejected(self, cascade_model):
        # the size check used to index the model's arms by the system's: IndexError
        aux = identity_aux(cascade_model)
        with pytest.raises(RegionError, match="2 arms, model has 1"):
            eval_inner_mf(single_arm_model(cascade_model), multi_from_aux([aux, aux]),
                          "lossless")

    def test_reconstruction_and_distortion_must_fit_each_arm(self, cascade_model):
        # on the J = 1 model: a |U| = 1 table on a |U| = 2 arm; a 3-symbol
        # distortion on a binary function is refused by the arm itself
        aux, f3 = identity_aux(cascade_model), _alphabet_of_size("f", 3)
        a, mm = multi_from_aux([aux]), single_arm_model(cascade_model)
        narrow = optimal_g(cascade_model, constant_aux(cascade_model), XOR_F, HAMMING_D)
        for evaluate in (lambda: eval_inner_mf(mm, a, "lossy", (narrow,)),
                         lambda: eval_outer_mf(mm, a, "lossy", (narrow,)),
                         lambda: eval_outer_mf(mm, build_multi_joint(mm, a), "lossy", (narrow,))):
            with pytest.raises(RegionError, match="reconstruction"):
                evaluate()
        with pytest.raises(ModelError, match="3 symbols does not fit"):
            single_arm_model(cascade_model, d=DistortionSpec.hamming(f3))

    def test_function_must_fit_the_arm(self, cascade_model):
        # unchecked, a function over a 3-letter xtilde on the binary cascade
        # built a model that `eval_inner_mf` fed to numpy: "operands could not
        # be broadcast together"
        f3 = FunctionSpec(_alphabet_of_size("xtilde", 3), Y, F, np.zeros((3, 2), dtype=int))
        fy = FunctionSpec(XT, _alphabet_of_size("y", 3), F, np.zeros((2, 3), dtype=int))
        for f in (f3, fy):
            with pytest.raises(ModelError, match="does not fit the observations"):
                single_arm_model(cascade_model, f=f)

    def test_auxiliary_channel_must_be_fed_by_the_observation(self, cascade_model):
        # a U channel on a ternary input, against the binary observation of the arm
        t, u = _alphabet_of_size("t", 3), _alphabet_of_size("u", 2)
        pair = AuxPair(CondDist(t, u, np.full((3, 2), 0.5)),
                       constant_channel(u, singleton_alphabet("v")))
        mm, a = single_arm_model(cascade_model), multi_from_aux([AuxSystem(
            uniform(singleton_alphabet("q")), (pair,))])
        g = ReconstructionFn(u, Y, F, np.zeros((2, 2), dtype=int))
        for evaluate in (lambda: eval_inner_mf(mm, a, "lossless"),
                         lambda: eval_inner_mf(mm, a, "lossy", (g,)),
                         lambda: eval_outer_mf(mm, a, "lossy", (g,))):
            with pytest.raises(ProbabilityError, match="not fed by the observation 'xtilde1'"):
                evaluate()

    @pytest.mark.parametrize("name", ["t", "xtilde1"])
    def test_one_feed_rule_for_one_arm_and_j_arms(self, cascade_model, name):
        # the observation's symbols under another name, or under the name the
        # J-arm path gives the observation: neither is the observation's alphabet
        t, u = Alphabet(name, ("0", "1")), _alphabet_of_size("u", 2)
        pair = AuxPair(CondDist(t, u, bsc_rows(0.1)), constant_channel(u, singleton_alphabet("v")))
        aux = AuxSystem(uniform(singleton_alphabet("q")), (pair,))
        mm, a = single_arm_model(cascade_model), multi_from_aux([aux])
        g = ReconstructionFn(u, Y, F, np.zeros((2, 2), dtype=int))
        for evaluate in (lambda: eval_lossless_corner(cascade_model, aux, XOR_F),
                         lambda: eval_inner_mf(mm, a, "lossy", (g,)),
                         lambda: eval_outer_mf(mm, a, "lossy", (g,))):
            with pytest.raises(ProbabilityError, match="not fed by the observation"):
                evaluate()
        # the same channel on the observation's own alphabet is accepted by all three
        pair = AuxPair(CondDist(XT, u, bsc_rows(0.1)), pair.p_v_given_u)
        aux = AuxSystem(aux.p_q, (pair,))
        a = multi_from_aux([aux])
        lossy = eval_lossy_corner(cascade_model, aux, XOR_F, g, HAMMING_D)
        assert single_arm_tuple(eval_inner_mf(mm, a, "lossy", (g,))) == lossy
        assert single_arm_tuple(eval_outer_mf(mm, a, "lossy", (g,))[0]) == lossy

    def test_constant_arms_zero_for_y_functions(self, cascade_model):
        mm = two_arm_model(cascade_model, cascade_model, YPROJ_F, YPROJ_F)
        aux = multi_from_aux([constant_aux(cascade_model)] * 2)
        rates = eval_inner_mf(mm, aux, "lossless")
        assert rates.r_s == pytest.approx(0.0, abs=1e-12)
        assert rates.r_eve == pytest.approx(0.0, abs=1e-12)
        assert rates.sum_w == pytest.approx(0.0, abs=1e-12)
        for v in rates.r_w + rates.r_dec:
            assert v == pytest.approx(0.0, abs=1e-12)

    def test_sum_storage_constraint_on_identical_arms(self, cascade_model):
        # arms correlate through the shared source, so the joint storage floor
        # sits between the largest per-arm floor and the per-arm sum
        mm = two_arm_model(cascade_model, cascade_model)
        aux = multi_from_aux([identity_aux(cascade_model)] * 2)
        rates = eval_inner_mf(mm, aux, "lossless")
        assert rates.sum_w <= sum(rates.r_w) + 1e-9
        assert rates.sum_w >= max(rates.r_w) - 1e-9

    def test_sum_storage_tight_for_independent_arms(self, cascade_model):
        # a deterministic source decouples the arms: the sum constraint is tight
        det = Dist(X, np.array([1.0, 0.0]))
        m = binary_cascade_model()
        mm = MultiModel(det, (
            MultiArm(m.p_xt_given_x, m.p_yz_given_x, XOR_F, HAMMING_D),
            MultiArm(m.p_xt_given_x, m.p_yz_given_x, XOR_F, HAMMING_D),
        ))
        aux = multi_from_aux([identity_aux(m)] * 2)
        rates = eval_inner_mf(mm, aux, "lossless")
        assert rates.sum_w == pytest.approx(sum(rates.r_w), abs=1e-12)

    def test_arm_permutation_equivariance(self, cascade_model):
        other = binary_cascade_model(p=0.12, q_dec=0.2, q_eve=0.3)
        mm12 = two_arm_model(cascade_model, other)
        mm21 = two_arm_model(other, cascade_model)
        a1, a2 = identity_aux(cascade_model), identity_aux(other)
        r12 = eval_inner_mf(mm12, multi_from_aux([a1, a2]), "lossless")
        r21 = eval_inner_mf(mm21, multi_from_aux([a2, a1]), "lossless")
        assert r12.r_s == pytest.approx(r21.r_s, abs=1e-12)
        assert r12.r_eve == pytest.approx(r21.r_eve, abs=1e-12)
        assert r12.sum_w == pytest.approx(r21.sum_w, abs=1e-12)
        assert r12.r_w == pytest.approx(tuple(reversed(r21.r_w)), abs=1e-12)
        assert r12.r_dec == pytest.approx(tuple(reversed(r21.r_dec)), abs=1e-12)


def shared_flip_joint(m1, m2):
    """Non-product coupling: each arm's auxiliary is its observation xored
    with one shared fair coin; V constant, no time sharing. Every per-arm
    chain holds, but arms are coupled beyond the product form."""
    mm = two_arm_model(m1, m2, YPROJ_F, YPROJ_F)
    q = singleton_alphabet("q")
    v1, v2 = singleton_alphabet("v1"), singleton_alphabet("v2")
    u1, u2 = XT.renamed("u1"), XT.renamed("u2")
    xt1, xt2 = XT.renamed("xtilde1"), XT.renamed("xtilde2")
    y1, y2 = XT.renamed("y1"), XT.renamed("y2")
    z1, z2 = XT.renamed("z1"), XT.renamed("z2")
    axes = (q, v1, v2, u1, u2, xt1, xt2, X, y1, y2, z1, z2)
    table = np.zeros(tuple(a.size for a in axes))
    p1 = m1.p_yz_given_x.rows.reshape(2, 2, 2)
    p2 = m2.p_yz_given_x.rows.reshape(2, 2, 2)
    for x in range(2):
        px = float(m1.p_x.probs[x])
        for a1 in range(2):
            for a2 in range(2):
                pxt = (float(m1.p_xt_given_x.rows[x, a1])
                       * float(m2.p_xt_given_x.rows[x, a2]))
                for s in range(2):
                    pu = 0.5
                    b1, b2 = a1 ^ s, a2 ^ s
                    for yy1 in range(2):
                        for zz1 in range(2):
                            for yy2 in range(2):
                                for zz2 in range(2):
                                    table[0, 0, 0, b1, b2, a1, a2, x,
                                          yy1, yy2, zz1, zz2] += (
                                        px * pxt * pu
                                        * p1[x, yy1, zz1] * p2[x, yy2, zz2])
    return mm, JointDist(axes, table)


class TestOuterBound:
    def test_product_system_passes_and_matches_inner(self, cascade_model):
        mm = two_arm_model(cascade_model, cascade_model)
        aux = multi_from_aux([identity_aux(cascade_model)] * 2)
        inner = eval_inner_mf(mm, aux, "lossless")
        outer, report = eval_outer_mf(mm, aux, "lossless")
        assert all(c.ok for c in report)
        assert outer.r_s == pytest.approx(inner.r_s, abs=1e-12)
        assert outer.sum_w == pytest.approx(inner.sum_w, abs=1e-12)
        assert outer.r_w == pytest.approx(inner.r_w, abs=1e-12)

    def test_j1_outer_equals_inner(self, cascade_model):
        mm = single_arm_model(cascade_model)
        aux = multi_from_aux([identity_aux(cascade_model)])
        inner = eval_inner_mf(mm, aux, "lossless")
        outer, _ = eval_outer_mf(mm, aux, "lossless")
        assert outer == inner

    def test_coupled_joint_accepted_by_outer_rejected_by_inner(self, cascade_model):
        other = binary_cascade_model(p=0.1, q_dec=0.2, q_eve=0.3)
        mm, joint = shared_flip_joint(cascade_model, other)
        report = multi_chain_report(mm, joint)
        assert all(c.ok for c in report)
        assert not reference.factorizes_per_arm(mm, joint)
        outer, _ = eval_outer_mf(mm, joint, "lossless")
        # the coupled auxiliaries reveal the xor of the two observations
        assert outer.r_s > 0.1
        # per-arm marginals are pure noise, so the product-form corner is free
        assert outer.r_w == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_zero_weight_branch_needs_no_admissibility(self, cascade_model):
        # branch 1's constant U leaves XOR undetermined, but with p_q = (1, 0) it
        # never runs: H(F | U, Q, Y) = 0, so every evaluator accepts the system
        u, v = XT.renamed("u"), singleton_alphabet("v")
        ident = AuxPair(identity_channel(XT, "u"), constant_channel(u, v))
        const = AuxPair(constant_channel(XT, u), constant_channel(u, v))
        q2 = _alphabet_of_size("q", 2)
        mm = single_arm_model(cascade_model)
        ref = eval_lossless_corner(cascade_model, identity_aux(cascade_model), XOR_F)
        for weights, admissible in (((1.0, 0.0), True), ((0.5, 0.5), False)):
            aux = AuxSystem(Dist(q2, np.array(weights)), (ident, const))
            a = multi_from_aux([aux], aux.p_q)
            evals = (lambda: eval_lossless_corner(cascade_model, aux, XOR_F),
                     lambda: single_arm_tuple(eval_inner_mf(mm, a, "lossless")),
                     lambda: single_arm_tuple(eval_outer_mf(mm, a, "lossless")[0]))
            for evaluate in evals:
                if admissible:
                    assert evaluate().coords() == pytest.approx(ref.coords(), abs=1e-12)
                else:
                    with pytest.raises(InadmissibleAuxiliary):
                        evaluate()

    @pytest.mark.parametrize("dense", [False, True])
    def test_unknown_mode_rejected(self, cascade_model, dense):
        # a dense joint used to skip mode validation and the lossless check
        mm = two_arm_model(cascade_model, cascade_model)
        aux = multi_from_aux([identity_aux(cascade_model)] * 2)
        with pytest.raises(RegionError, match="mode"):
            eval_outer_mf(mm, build_multi_joint(mm, aux) if dense else aux, "lossles")

    def test_product_joints_factorize(self, cascade_model):
        mm = two_arm_model(cascade_model, cascade_model)
        aux = multi_from_aux([identity_aux(cascade_model)] * 2)
        assert reference.factorizes_per_arm(mm, build_multi_joint(mm, aux))

    def test_weight_axis_named_by_caller(self, cascade_model):
        # a two-arm |Q| = 2 joint whose weight alphabet is "t" used to raise UnknownAxis
        mm, a, _ = random_multi_system(np.random.default_rng(43), [(2, 2), (2, 2)], q_size=2)
        a_t = MultiAuxSystem(Dist(a.p_q.alphabet.renamed("t"), a.p_q.probs), a.arms)
        assert reference.factorizes_per_arm(mm, build_multi_joint(mm, a_t))
        other = binary_cascade_model(p=0.1, q_dec=0.2, q_eve=0.3)
        mm, joint = shared_flip_joint(cascade_model, other)
        t = joint.axes[joint.axis("q")].renamed("t")
        coupled = JointDist(tuple(t if ax.name == "q" else ax for ax in joint.axes), joint.table)
        assert not reference.factorizes_per_arm(mm, coupled)

    def test_dense_joint_reads_its_one_other_axis_as_the_weight(self):
        # a two-arm |Q| = 2 joint whose weight axis is "t" used to raise TypeError
        mm, a, g_list = random_multi_system(np.random.default_rng(44), [(2, 2), (2, 2)], q_size=2)
        a_t = MultiAuxSystem(Dist(a.p_q.alphabet.renamed("t"), a.p_q.probs), a.arms)
        joint = reference.multi_joint(mm, a_t)
        dense, report = eval_outer_mf(mm, joint, "lossy", g_list)
        want, want_report = eval_outer_mf(mm, a_t, "lossy", g_list)
        assert all(c.ok for c in report)
        assert [c.name for c in report] == [c.name for c in want_report]
        assert _fields(dense) == pytest.approx(_fields(want), abs=1e-12)
        assert [c.name for c in multi_chain_report(mm, joint)] == [c.name for c in report]

    def test_dense_joint_off_the_naming_convention_is_refused(self):
        # a joint missing "v2" used to raise TypeError from the entropy memo's sort
        mm, a, g_list = random_multi_system(np.random.default_rng(45), [(2, 2), (2, 2)], q_size=2)
        joint = reference.multi_joint(mm, a)
        missing = joint.marginal([n for n in joint.names if n != "v2"])
        two_left = JointDist(joint.axes + (singleton_alphabet("s"),), joint.table[..., None])
        for bad in (missing, two_left):
            for evaluate in (lambda: eval_outer_mf(mm, bad, "lossy", g_list),
                             lambda: multi_chain_report(mm, bad),
                             lambda: reference.factorizes_per_arm(mm, bad)):
                with pytest.raises(UnknownAxis):
                    evaluate()

    def test_chain_violation_is_named(self, cascade_model):
        # u1 copying the source itself breaks (q,v1,u1) -- xtilde1 -- x
        mm, joint = shared_flip_joint(cascade_model, cascade_model)
        names = joint.names
        table = joint.table.copy()
        # rebuild with u1 := x (deterministically), keeping the axis shapes
        new = np.zeros_like(table)
        for idx in np.ndindex(table.shape):
            jdx = list(idx)
            jdx[names.index("u1")] = idx[names.index("x")]
            new[tuple(jdx)] += table[idx]
        bad = JointDist(joint.axes, new)
        with pytest.raises(ChainViolation, match="xtilde1 -- x"):
            eval_outer_mf(mm, bad, "lossless")

    def test_v_copying_observation_breaks_first_link(self, cascade_model):
        # v1 := xtilde1 while u1 = xtilde1 xor a fair coin: I(V1; X~1 | U1, Q)
        # is H(X~1) = 1 bit, so the outer bound must refuse the joint
        mm, joint = shared_flip_joint(cascade_model, cascade_model)
        v1 = XT.renamed("v1")
        axes = tuple(v1 if a.name == "v1" else a for a in joint.axes)
        i_v, i_xt = joint.names.index("v1"), joint.names.index("xtilde1")
        new = np.zeros(tuple(a.size for a in axes))
        for idx in np.ndindex(joint.table.shape):
            jdx = list(idx)
            jdx[i_v] = idx[i_xt]
            new[tuple(jdx)] += joint.table[idx]
        bad = JointDist(axes, new)
        assert multi_chain_report(mm, bad)[0].value == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ChainViolation, match=r"\(v1,q\) -- \(u1,q\) -- xtilde1"):
            eval_outer_mf(mm, bad, "lossless")

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 2),
           st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=2))
    def test_time_sharing_systems_pass_and_match_inner(self, seed, j, sizes):
        # U channels that differ between weight symbols make I(Q; X~ | U) > 0;
        # the chain conditions on Q, so such systems must pass
        mm, a, g_list = random_multi_system(np.random.default_rng(seed), sizes[:j], q_size=2)
        inner = eval_inner_mf(mm, a, "lossy", g_list)
        outer, report = eval_outer_mf(mm, a, "lossy", g_list)
        assert all(c.ok for c in report)
        assert _fields(outer) == pytest.approx(_fields(inner), abs=1e-12)

    def test_axis_names_follow_weight_and_source_alphabets(self):
        # weight alphabet "t" and source alphabet "s" instead of "q" and "x"
        rng = np.random.default_rng(41)
        mm, a, g_list = random_multi_system(rng, [(2, 2)], q_size=2)
        s_alpha = X.renamed("s")
        arms = tuple(MultiArm(CondDist(s_alpha, arm.p_xt_given_x.output, arm.p_xt_given_x.rows),
                              CondDist(s_alpha, arm.p_yz_given_x.output, arm.p_yz_given_x.rows),
                              arm.f, arm.d) for arm in mm.arms)
        mm_s = MultiModel(Dist(s_alpha, mm.p_x.probs), arms)
        a_t = MultiAuxSystem(Dist(a.p_q.alphabet.renamed("t"), a.p_q.probs), a.arms)
        inner = eval_inner_mf(mm_s, a_t, "lossy", g_list)
        outer, report = eval_outer_mf(mm_s, a_t, "lossy", g_list)
        assert all(c.ok for c in report)
        assert outer == inner
        assert _fields(inner) == pytest.approx(
            _fields(eval_inner_mf(mm, a, "lossy", g_list)), abs=1e-12)


def random_multi_system(rng, sizes, q_size=1):
    """Random binary arms on one source with XOR functions, one random
    (|U|, |V|) channel pair per arm and weight symbol, and random
    reconstructions; p(q) = (1.0,) exactly at q_size = 1, where a one-symbol
    Dirichlet draw may be 1 - 2**-53, a weight whose marginals round
    differently. The draw is made at every size, so later draws stay put."""
    p_x = random_binary_model(rng).p_x
    arms, pairs, g_list = [], [], []
    for u_size, v_size in sizes:
        m = random_binary_model(rng)
        arms.append(MultiArm(m.p_xt_given_x, m.p_yz_given_x, XOR_F, HAMMING_D))
        pairs.append(tuple(random_aux_pair(rng, u_size, v_size) for _ in range(q_size)))
        g_list.append(ReconstructionFn(_alphabet_of_size("u", u_size), Y, F,
                                       rng.integers(0, 2, size=(u_size, 2))))
    weights = rng.dirichlet((1.0,) * q_size)
    p_q = Dist(_alphabet_of_size("q", q_size), weights if q_size > 1 else np.ones(1))
    return MultiModel(p_x, tuple(arms)), MultiAuxSystem(p_q, tuple(pairs)), tuple(g_list)


@contextlib.contextmanager
def _recording():
    """Every `_ProductForm` marginal read while open, as (source, its batch,
    its p(q), axis names), the class's `rows` patched so that a restack reads
    through it too."""
    reads, rows = [], sources._ProductForm.rows

    def logged(self, names):
        reads.append((self, self.batch, self._p_q, tuple(names)))
        return rows(self, names)

    with mock.patch.object(sources._ProductForm, "rows", logged):
        yield reads


def _fields(r):
    return (r.r_s, *r.r_w, r.sum_w, *r.r_dec, r.r_eve, *(r.d or ()))


class TestProductForm:
    @settings(max_examples=15, deadline=None, phases=NO_SHRINK)
    @given(st.integers(0, 10_000), st.integers(1, 3),
           st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=3, max_size=3))
    def test_marginals_match_dense_joint(self, seed, j, sizes):
        mm, a, g_list = random_multi_system(np.random.default_rng(seed), sizes[:j], q_size=2)
        dense = reference.multi_joint(mm, a)
        fs, ds = [arm.f for arm in mm.arms], [arm.d for arm in mm.arms]
        with _recording() as reads:
            rec = _source(mm, a)
            inner = regions._corner_rates(rec, fs, "lossy", ds, g_list)
            multi_chain_report(mm, rec)
            regions._rows(rec, fs, "lossless")  # the admissibility residual's reads
            pairs = [(rec, dense)]
            if j == 1:  # the single-function evaluators' reads, under the model's names
                sm, aux = mm.arm_model(0), AuxSystem(a.p_q, a.arms[0])
                single = regions._source(sm, aux)
                regions._corner_rates(single, (XOR_F,), "lossy", (HAMMING_D,), g_list)
                regions._rows(single, (XOR_F,), "lossless")
                regions._g_tables(single.rows(("u", "xtilde", "y")), XOR_F, HAMMING_D)
                pairs.append((single, reference.aux_mixture_joint(sm, aux)))
        for src, ref in pairs:
            # its own reads and those of its model's unit-weight restacks
            for axes in {names for who, _, _, names in reads if who._model_h is src._model_h}:
                got, want = src.rows(axes)[0], ref.marginal(axes).reorder(axes)
                assert got.shape == want.table.shape
                assert np.max(np.abs(got - want.table)) <= 1e-12
                # trusted, yet it passes the validation it skipped
                assert np.array_equal(JointDist(want.axes, got).table, got)
        assert inner == eval_inner_mf(mm, a, "lossy", g_list)
        dense_src = sources._Dense(dense, _axis_names(j), "q", "x")
        ref, _ = _multi_rates(dense_src)
        ref_d = regions._corner_rates(dense_src, fs, "lossy", ds, g_list).d
        assert _fields(inner) == pytest.approx(_fields(regions._multi_tuple(ref[0], j)) + ref_d,
                                               abs=1e-12)

    def test_j6_arm_permutation_invariance(self):
        # J=6 is past the dense joint's cell cap (2^31 cells for these arms)
        mm, a, g_list = random_multi_system(np.random.default_rng(6), [(2, 2)] * 6)
        perm = (3, 0, 5, 1, 4, 2)
        mm_p = MultiModel(mm.p_x, tuple(mm.arms[i] for i in perm))
        a_p = MultiAuxSystem(a.p_q, tuple(a.arms[i] for i in perm))
        g_p = tuple(g_list[i] for i in perm)
        r = eval_inner_mf(mm, a, "lossy", g_list)
        r_p = eval_inner_mf(mm_p, a_p, "lossy", g_p)
        assert r_p.r_s == pytest.approx(r.r_s, abs=1e-12)
        assert r_p.sum_w == pytest.approx(r.sum_w, abs=1e-12)
        assert r_p.r_eve == pytest.approx(r.r_eve, abs=1e-12)
        for per_arm, per_arm_p in ((r.r_w, r_p.r_w), (r.r_dec, r_p.r_dec), (r.d, r_p.d)):
            assert per_arm_p == pytest.approx(tuple(per_arm[i] for i in perm), abs=1e-12)
        outer, report = eval_outer_mf(mm_p, a_p, "lossy", g_p)
        assert all(c.ok for c in report)
        assert outer == r_p

    def test_oversized_j_raises_before_allocating(self):
        # at J=9 the first rate term reads 2^27 cells; the cap must fire before
        # that table is allocated
        mm, a, g_list = random_multi_system(np.random.default_rng(9), [(2, 2)] * 9)
        start = time.perf_counter()
        with pytest.raises(TableTooLarge):
            eval_inner_mf(mm, a, "lossy", g_list)
        assert time.perf_counter() - start < 5.0
