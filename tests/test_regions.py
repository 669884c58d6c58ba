import dataclasses
import itertools
import math
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    F,
    HAMMING_D,
    X,
    XT,
    XTPROJ_F,
    XOR_F,
    Y,
    YPROJ_F,
    YZ,
    binary_cascade_model,
    bsc_rows,
    random_binary_model,
)
import reference
from sfcomp.models import (
    ADMISSIBILITY_TOL,
    DistortionSpec,
    FunctionSpec,
    MultiArm,
    MultiModel,
    SourceModel,
    _lossless_bounds,
    _project_simplex,
    build_joint,
    parse_model_text,
)
from sfcomp.probability import (
    CondDist,
    Dist,
    JointDist,
    ProbabilityError,
    TableTooLarge,
    bsc,
    cond_mutual_info,
    constant_channel,
    entropy,
    product_alphabet,
    push_function,
    uniform,
)
from sfcomp import multifunction, regions, sources
from sfcomp.multifunction import MultiAuxSystem
from sfcomp.regions import (
    AuxPair,
    AuxSystem,
    BoundaryPoint,
    BoundarySweep,
    CardinalityError,
    InadmissibleAuxiliary,
    RateTuple,
    ReconstructionFn,
    RegionError,
    SearchBudget,
    _alphabet_of_size,
    constant_aux,
    eval_lossless_corner,
    eval_lossy_corner,
    identity_aux,
    membership,
    optimal_g,
    singleton_alphabet,
    trace_boundary,
    v_equals_u_aux,
)

U2 = XT.renamed("u")
DSBS_P = 0.06 + 0.15 - 2 * 0.06 * 0.15  # (xtilde, y) crossover of the conftest cascade


def h2(p):
    return 0.0 if p <= 0.0 or p >= 1.0 else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def wyner_ziv_dsbs(p):
    """R(D) of a DSBS(p) under Hamming distortion (Wyner & Ziv 1976):
    H_b(p * D) - H_b(D) up to the tangent point d_c, then the chord to (p, 0)."""
    def g(t):
        return h2(p + t - 2 * p * t) - h2(t)

    def slope(t):
        a = p + t - 2 * p * t
        return (1 - 2 * p) * math.log2((1 - a) / a) - math.log2((1 - t) / t)

    lo, hi = 1e-12, p  # g + g' (p - t) changes sign once, at d_c
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) + slope(mid) * (p - mid) < 0 else (lo, mid)
    d_c = 0.5 * (lo + hi)
    return lambda d: g(d) if d <= d_c else g(d_c) * max(p - d, 0.0) / (p - d_c)


def trace_lossy(m, grid, budget):
    return trace_boundary(m, XTPROJ_F, BoundarySweep("d", tuple(grid), "r_w"), "lossy",
                          budget, d=HAMMING_D)


def lossy_corner(m, aux):
    return eval_lossy_corner(m, aux, XTPROJ_F, optimal_g(m, aux, XTPROJ_F, HAMMING_D), HAMMING_D)


def bsc_aux(alpha, v_copy=False):
    """Binary symmetric auxiliary channel, V constant or a copy of U."""
    p_u = CondDist(XT, U2, bsc_rows(alpha))
    if v_copy:
        return v_equals_u_aux(p_u)
    p_v = constant_channel(U2, singleton_alphabet("v"))
    return AuxSystem(uniform(singleton_alphabet("q")), (AuxPair(p_u, p_v),))


def random_aux(rng, u_size=2, v_size=2, q_size=1):
    u = XT.renamed("u") if u_size == 2 else None
    from sfcomp.regions import _alphabet_of_size
    u_alpha = _alphabet_of_size("u", u_size)
    v_alpha = _alphabet_of_size("v", v_size)
    q_alpha = _alphabet_of_size("q", q_size)
    pairs = []
    for _ in range(q_size):
        u_rows = np.stack([rng.dirichlet((1.5,) * u_size) for _ in range(XT.size)])
        v_rows = np.stack([rng.dirichlet((1.5,) * v_size) for _ in range(u_size)])
        pairs.append(AuxPair(CondDist(XT, u_alpha, u_rows),
                             CondDist(u_alpha, v_alpha, v_rows)))
    p_q = Dist(q_alpha, rng.dirichlet((2.0,) * q_size)) if q_size > 1 else uniform(q_alpha)
    return AuxSystem(p_q, tuple(pairs))


class TestLosslessCorner:
    def test_constant_u_all_zero_for_y_function(self, cascade_model):
        rates = eval_lossless_corner(cascade_model, constant_aux(cascade_model), YPROJ_F)
        for v in (rates.r_s, rates.r_w, rates.r_dec, rates.r_eve):
            assert v == pytest.approx(0.0, abs=1e-12)

    def test_constant_u_rejected_when_inadmissible(self, cascade_model):
        with pytest.raises(InadmissibleAuxiliary):
            eval_lossless_corner(cascade_model, constant_aux(cascade_model), XTPROJ_F)

    def test_identity_u_storage_is_conditional_entropy(self, cascade_model):
        # oracle: direct entropy of the composed joint
        rates = eval_lossless_corner(cascade_model, identity_aux(cascade_model), XOR_F)
        from sfcomp.models import build_joint
        j = build_joint(cascade_model)
        h_xt_given_y = entropy(j, ("xtilde", "y")) - entropy(j, "y")
        assert rates.r_w == pytest.approx(h_xt_given_y, abs=1e-12)

    def test_markov_eve_with_constant_v_matches_difference_form(self, cascade_model):
        # with a degraded eavesdropper and V constant the secrecy coordinate
        # collapses to I(U;XT) - I(U;Y)
        aux = bsc_aux(0.3)
        rates, _, _ = _rates_with_joint(cascade_model, aux)
        j = reference.aux_mixture_joint(cascade_model, aux)
        expected = cond_mutual_info(j, "u", "xtilde") - cond_mutual_info(j, "u", "y")
        assert rates.r_s == pytest.approx(expected, abs=1e-11)

    def test_v_equals_u_gives_offset_exactly_zero(self, cascade_model):
        aux = bsc_aux(0.3, v_copy=True)
        rates, offset, _ = _rates_with_joint(cascade_model, aux)
        assert offset == 0.0
        expected = cond_mutual_info(reference.aux_mixture_joint(cascade_model, aux),
                                    "u", "xtilde", "z")
        assert rates.r_s == pytest.approx(expected, abs=1e-15)

    def test_cardinality_bounds_enforced(self, cascade_model):
        from sfcomp.regions import _alphabet_of_size
        big_u = _alphabet_of_size("u", 40)  # (2+4)^2 = 36 is the lossless cap
        rows = np.full((2, 40), 1.0 / 40)
        p_u = CondDist(XT, big_u, rows)
        p_v = constant_channel(big_u, singleton_alphabet("v"))
        aux = AuxSystem(uniform(singleton_alphabet("q")), (AuxPair(p_u, p_v),))
        with pytest.raises(CardinalityError):
            eval_lossless_corner(cascade_model, aux, XOR_F)
        # the same system is fine in lossy mode ((2+5)^2 = 49)
        g = optimal_g(cascade_model, aux, XOR_F, HAMMING_D)
        eval_lossy_corner(cascade_model, aux, XOR_F, g, HAMMING_D)

    def test_oversized_factor_raises_before_allocating(self):
        # within the lossless size policy, every marginal read stays under
        # 3e5 cells, but the one-arm factor would hold ~1.05e9 (8.4 GB)
        x, xt, y, z, f = (_alphabet_of_size(n, 16) for n in ("x", "xtilde", "y", "z", "f"))
        m = SourceModel(uniform(x), CondDist(x, xt, np.full((16, 16), 1 / 16)),
                        CondDist(x, product_alphabet("yz", y, z), np.full((16, 256), 1 / 256)))
        u, v = _alphabet_of_size("u", 400), _alphabet_of_size("v", 20)
        pair = AuxPair(CondDist(xt, u, np.full((16, 400), 1 / 400)),
                       CondDist(u, v, np.full((400, 20), 1 / 20)))
        aux = AuxSystem(uniform(_alphabet_of_size("q", 2)), (pair, pair))
        fn = FunctionSpec(xt, y, f, np.add.outer(np.arange(16), np.arange(16)) % 16)
        start = time.perf_counter()
        # the search's candidates are this size too; none fits, so none is built
        search = SearchBudget(restarts=1, iters=1, u_size=400, v_size=20, q_size=2)
        for call in (lambda: eval_lossless_corner(m, aux, fn),
                     lambda: optimal_g(m, aux, fn, DistortionSpec.hamming(f)),
                     lambda: membership(m, fn, RateTuple(0.0, 0.0, 0.0, 0.0), "lossless",
                                        search)):
            with pytest.raises(TableTooLarge):
                call()
        assert time.perf_counter() - start < 5.0


def _rates_with_joint(m, aux):
    """The single-function rate corner, its offset and the source they were read from."""
    src = regions._source(m, aux)
    rates, offset = regions._multi_rates(src)
    return RateTuple(*rates[0, regions._ONE_ARM].tolist()), float(offset[0]), src


class TestLossyCorner:
    def test_identity_u_optimal_g_zero_distortion(self, cascade_model):
        aux = identity_aux(cascade_model)
        g = optimal_g(cascade_model, aux, XOR_F, HAMMING_D)
        rates = eval_lossy_corner(cascade_model, aux, XOR_F, g, HAMMING_D)
        assert rates.d == pytest.approx(0.0, abs=1e-12)

    def test_constant_u_matches_best_rule_oracle(self, cascade_model):
        # oracle: exhaustive search over all |F|^|Y| reconstruction rules
        aux = constant_aux(cascade_model)
        g = optimal_g(cascade_model, aux, XOR_F, HAMMING_D)
        best = min(
            eval_lossy_corner(
                cascade_model, aux, XOR_F,
                ReconstructionFn(aux.u_alphabet, Y, F, np.array([rule])), HAMMING_D).d
            for rule in itertools.product(range(2), repeat=2))
        achieved = eval_lossy_corner(cascade_model, aux, XOR_F, g, HAMMING_D).d
        assert achieved == best

    def test_reconstruction_and_distortion_must_fit_the_arm(self, cascade_model):
        # unchecked, a |U| = 1 table on a |U| = 2 system broadcasts and gives d = 0.192
        aux, f3 = identity_aux(cascade_model), _alphabet_of_size("f", 3)
        g = optimal_g(cascade_model, aux, XOR_F, HAMMING_D)
        narrow = optimal_g(cascade_model, constant_aux(cascade_model), XOR_F, HAMMING_D)
        wide = ReconstructionFn(aux.u_alphabet, Y, f3, g.table)
        for g_bad, d in ((narrow, HAMMING_D), (g, DistortionSpec.hamming(f3)), (wide, HAMMING_D),
                         (wide, DistortionSpec.hamming(f3))):
            with pytest.raises(RegionError, match="reconstruction"):
                eval_lossy_corner(cascade_model, aux, XOR_F, g_bad, d)
        assert eval_lossy_corner(cascade_model, aux, XOR_F, g, HAMMING_D).d == 0.0

    def test_distortion_spec_must_fit_the_function(self, cascade_model, monkeypatch):
        # unchecked, a 3-symbol spec on binary XOR failed inside numpy's matmul
        d3, calls = DistortionSpec.hamming(_alphabet_of_size("f", 3)), count_descents(monkeypatch)
        budget = SearchBudget(restarts=1, iters=2, u_size=2, v_size=1)
        target = RateTuple(0.0, 0.0, 0.0, 0.0, d=0.0)  # no candidate or corner meets it
        for evaluate in (
                lambda: optimal_g(cascade_model, identity_aux(cascade_model), XOR_F, d3),
                lambda: membership(cascade_model, XOR_F, target, "lossy", budget, d=d3),
                lambda: trace_boundary(cascade_model, XOR_F, BoundarySweep("d", (0.1,), "r_w"),
                                       "lossy", budget, d=d3)):
            with pytest.raises(RegionError, match="3 symbols does not fit"):
                evaluate()
        assert calls == []

    def test_auxiliary_channel_must_be_fed_by_the_observation(self, cascade_model):
        # a U channel on a ternary input, against the binary observation
        t, u = _alphabet_of_size("t", 3), _alphabet_of_size("u", 2)
        pair = AuxPair(CondDist(t, u, np.full((3, 2), 0.5)),
                       constant_channel(u, singleton_alphabet("v")))
        aux = AuxSystem(uniform(singleton_alphabet("q")), (pair,))
        g = ReconstructionFn(u, Y, F, np.zeros((2, 2), dtype=int))
        budget = SearchBudget(restarts=0, candidates=(aux,))
        for evaluate in (lambda: eval_lossless_corner(cascade_model, aux, XOR_F),
                         lambda: eval_lossy_corner(cascade_model, aux, XOR_F, g, HAMMING_D),
                         lambda: membership(cascade_model, XOR_F, RateTuple(1.0, 1.0, 1.0, 1.0),
                                            "lossless", budget)):
            with pytest.raises(ProbabilityError, match="not fed by the observation"):
                evaluate()


class TestOptimalG:
    def test_deterministic_function_recovered(self, cascade_model):
        aux = identity_aux(cascade_model)
        g = optimal_g(cascade_model, aux, XOR_F, HAMMING_D)
        # with U = XT the function value is determined: g must equal the table
        assert np.array_equal(g.table, XOR_F.table)

    def test_majority_rule(self):
        # uninformative Y makes P(F|U,Y) = (0.7, 0.3): pick the first symbol
        m = SourceModel(Dist(X, np.array([0.7, 0.3])), bsc(0.0, X, XT),
                        binary_cascade_model(q_dec=0.5, q_eve=0.5).p_yz_given_x)
        g = optimal_g(m, constant_aux(m), XTPROJ_F, HAMMING_D)
        assert np.all(g.table == 0)

    def test_asymmetric_distortion_argmin(self):
        # P(F=0)=0.4, P(F=1)=0.6 with d(0,1)=10, d(1,0)=1: expected risk of
        # fhat=0 is 0.6, of fhat=1 is 4.0, so the rule picks 0 everywhere
        m = SourceModel(Dist(X, np.array([0.4, 0.6])), bsc(0.0, X, XT),
                        binary_cascade_model().p_yz_given_x)
        d = DistortionSpec(F, np.array([[0.0, 10.0], [1.0, 0.0]]))
        g = optimal_g(m, constant_aux(m), XTPROJ_F, d)
        assert np.all(g.table == 0)


class TestReconstructionFn:
    @pytest.mark.parametrize("bad", [[[0.7, 1.2], [0.0, 1.0]], [[np.nan, 1.0], [0.0, 1.0]],
                                     [[0.0, -np.inf], [1.0, 0.0]]])
    def test_table_entries_must_be_integral(self, bad):
        # the int64 cast used to accept [[0.7, 1.2], [0, 1]] as [[0, 1], [0, 1]],
        # and NaN warned in the cast before an "out of range" error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RegionError, match="integral"):
                ReconstructionFn(U2, Y, F, np.array(bad))

    def test_integral_float_table_accepted(self):
        g = ReconstructionFn(U2, Y, F, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert g.table.dtype == np.int64 and g.table.tolist() == [[1, 0], [0, 1]]


class TestInvariants:
    def test_rates_nonnegative_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_binary_model(rng)
            aux = random_aux(rng, q_size=int(rng.integers(1, 3)))
            rates, _, _ = _rates_with_joint(m, aux)
            for v in rates.coords().values():
                assert v >= 0.0

    def test_two_identical_branches_match_single(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = random_binary_model(rng)
            single = random_aux(rng, q_size=1)
            pair = single.per_q[0]
            from sfcomp.regions import _alphabet_of_size
            q2 = _alphabet_of_size("q", 2)
            doubled = AuxSystem(Dist(q2, np.array([0.35, 0.65])), (pair, pair))
            r1, _, _ = _rates_with_joint(m, single)
            r2, _, _ = _rates_with_joint(m, doubled)
            for a, b in zip(r1.coords().values(), r2.coords().values()):
                assert a == pytest.approx(b, abs=1e-12)

    def test_degenerate_z_consistency(self):
        # z independent of everything: r_s = I(U;XT) + min(-I(U;Y|V,Q), 0)
        rows = np.zeros((2, 4))
        py = bsc_rows(0.15)
        for x in range(2):
            for y in range(2):
                rows[x, 2 * y + 0] = py[x, y] * 0.3
                rows[x, 2 * y + 1] = py[x, y] * 0.7
        m = SourceModel(uniform(X), bsc(0.06, X, XT), CondDist(X, YZ, rows))
        aux = random_aux(np.random.default_rng(3), q_size=2)
        rates, _, _ = _rates_with_joint(m, aux)
        j = reference.aux_mixture_joint(m, aux)
        expected = cond_mutual_info(j, ("u", "q"), "xtilde") + min(
            -cond_mutual_info(j, "u", "y", ("v", "q")), 0.0)
        assert rates.r_s == pytest.approx(expected, abs=1e-12)

    def test_degraded_eve_with_constant_v_equates_secrecy_and_storage(self, cascade_model):
        # U - X~ - X - Y - Z with |V| = 1: the offset is I(U;Z|Q) - I(U;Y|Q), so
        # r_s = I(U,Q;X~|Y) = r_w and r_eve = I(U,Q;X|Y) = r_dec exactly
        rng = np.random.default_rng(41)
        for _ in range(200):
            aux = random_aux(rng, u_size=int(rng.integers(2, 5)), v_size=1,
                             q_size=int(rng.integers(1, 3)))
            rates, _, _ = _rates_with_joint(cascade_model, aux)
            assert abs(rates.r_s - rates.r_w) <= 1e-12
            assert abs(rates.r_eve - rates.r_dec) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 2), st.integers(1, 2))
    def test_storage_floor_on_admissible_systems(self, seed, u_size, v_size, q_size):
        # U symbols with disjoint supports per x~ determine X~, so (U, Y) determine
        # every f, and admissibility gives the storage floor r_w >= H(F | Y)
        m = binary_cascade_model()
        rng = np.random.default_rng(seed)
        u_alpha, v_alpha = _alphabet_of_size("u", u_size), _alphabet_of_size("v", v_size)
        pairs = []
        for _ in range(q_size):
            owner = rng.permutation([0, 1] + list(rng.integers(0, 2, size=u_size - 2)))
            u_rows = np.zeros((2, u_size))
            for xt in range(2):
                u_rows[xt, owner == xt] = rng.dirichlet((1.0,) * int(np.sum(owner == xt)))
            v_rows = np.stack([rng.dirichlet((1.0,) * v_size) for _ in range(u_size)])
            pairs.append(AuxPair(CondDist(XT, u_alpha, u_rows),
                                 CondDist(u_alpha, v_alpha, v_rows)))
        q_alpha = _alphabet_of_size("q", q_size)
        aux = AuxSystem(Dist(q_alpha, rng.dirichlet((1.0,) * q_size)), tuple(pairs))
        for f in (XOR_F, XTPROJ_F, YPROJ_F):
            jf = push_function(build_joint(m), ("xtilde", "y"), f.table, f.output)
            floor = entropy(jf, (f.output.name, "y")) - entropy(jf, "y")
            assert floor <= eval_lossless_corner(m, aux, f).r_w + 1e-12

    def test_xor_identity_corner_attains_storage_floor(self, cascade_model):
        # XOR on the cascade: H(F | Y) = H(X~ | Y) = H_b(0.06 * 0.15) = H_b(0.192)
        rates = eval_lossless_corner(cascade_model, identity_aux(cascade_model), XOR_F)
        assert abs(rates.r_w - h2(DSBS_P)) <= 1e-12


class TestTrustedPath:
    def test_corner_rates_equal_public_rebuild_reference(self, monkeypatch):
        # reference: every entropy on a fresh joint from the public constructor,
        # so no trusted marginal or entropy memo is shared between terms
        from sfcomp import regions
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(12):
            m = random_binary_model(rng)
            aux = random_aux(rng, u_size=int(rng.integers(1, 4)),
                             v_size=int(rng.integers(1, 3)), q_size=int(rng.integers(1, 3)))
            rates, offset, _ = _rates_with_joint(m, aux)
            cases.append((m, aux, rates, offset))

        def fresh_entropy(src, names):
            names = tuple(sorted(names, key=src._pos.get))
            axes = tuple(src.axes[src._pos[n]] for n in names)
            return np.array([entropy(JointDist(axes, row), names) for row in src.rows(names)])

        monkeypatch.setattr(regions._Source, "entropy", fresh_entropy)
        for m, aux, rates, offset in cases:
            ref_rates, ref_offset, _ = _rates_with_joint(m, aux)
            assert rates == ref_rates
            assert offset == ref_offset

    def test_lossy_corner_with_shared_joint_equals_own_build(self):
        rng = np.random.default_rng(32)
        for _ in range(8):
            m = random_binary_model(rng)
            aux = random_aux(rng, q_size=int(rng.integers(1, 3)))
            g = optimal_g(m, aux, XOR_F, HAMMING_D)
            # the reconstruction rule gives the same table on the dense reference
            dense = sources._Dense(reference.aux_mixture_joint(m, aux),
                                   [("xtilde", "u", "v", "y", "z")], "q", "x")
            dense_g = regions._g_tables(dense.rows(("u", "xtilde", "y")), XOR_F, HAMMING_D)[0]
            assert np.array_equal(g.table, dense_g)
            own = eval_lossy_corner(m, aux, XOR_F, g, HAMMING_D)
            # a search evaluation shares one (u, xt, y) marginal between g and d
            assert regions._eval_candidate(m, aux, XOR_F, "lossy", HAMMING_D) == (own, 0.0)


def batch_and_one(m, param, f, mode, d, target):
    """The membership objective on a stack of points, and on one point through
    the one-system path `membership` verifies witnesses with."""
    t = np.array(list(target.coords().values()))

    def batch(points):
        coords, gap = regions._eval_rows(param.source(points), f, mode, d)
        return np.max(coords[:, :len(t)] - t, axis=1) + 1e3 * np.maximum(
            gap - ADMISSIBILITY_TOL, 0.0)

    def one(point):
        rates, gap = regions._eval_candidate(m, param.to_aux(point), f, mode, d)
        return max(v - w for v, w in zip(rates.coords().values(), t)) + 1e3 * max(
            gap - ADMISSIBILITY_TOL, 0.0)

    return batch, one


def reference_descent(param, point, objective, iters, init_step, min_step):
    """One candidate at a time: the first-improvement loop the batched descent replaces."""
    best, step, accepted = objective(point), init_step, []
    for _ in range(iters):
        improved = False
        for bi, (at, n) in enumerate(param.spans):
            for ci in range(n):
                for sign in (1.0, -1.0):
                    cand = point.copy()
                    cand[at + ci] += sign * step
                    cand[at:at + n] = _project_simplex(cand[at:at + n])
                    val = objective(cand)
                    if val < best - regions.ACCEPT_MARGIN:
                        assert best - val > 1e-12  # no accept a rounding flip could undo
                        point, best, improved = cand, val, True
                        accepted.append((bi, ci, sign))
                        break
        if not improved:
            step *= 0.5
            if step < min_step:
                break
    return point, best, accepted


def reference_neighbours(param, point, start, step):
    """The candidates of moves start, start + 1, ... to the end of a sweep from
    one point, built span by span with one projection per span."""
    out = []
    for at, n in param.spans:
        move = np.arange(max(start, 2 * at), 2 * (at + n))
        if not move.size:
            continue
        block = np.repeat(point[None, at:at + n], len(move), axis=0)
        block[np.arange(len(move)), move // 2 - at] += np.where(move % 2, -step, step)
        cand = np.repeat(point[None], len(move), axis=0)
        cand[:, at:at + n] = _project_simplex(block)
        out.append(cand)
    return np.concatenate(out)


def lockstep_descent(param, starts, score, iters, init_step, min_step):
    """`_coordinate_descent` from a stack of starts, with each descent's scanned
    rows (move, point, value), a start's move being -1, its accepted (block,
    coordinate, sign) moves read off the rounds, and per round the rows it
    had scored and scanned. A descent scans its moves in order, sweep after
    sweep and whatever sweeps a round holds, so each scanned row's move is the
    next after the last, or after an accept its next coordinate's first."""
    chunks, rows, counts = [], [[] for _ in starts], [[] for _ in starts]
    state = [None for _ in starts]  # a descent's next move and best value once started

    def scored(points, owner, bar):
        chunks.append((owner, points, score(points, owner, bar)))
        return chunks[-1][2]

    def scanned(mask):
        owner, points, vals = (np.concatenate(col) for col in zip(*chunks))
        # every live descent scores its slice's first row, so the owners seen
        # are the live descents
        for k in np.unique(owner).tolist():
            mine = owner == k
            counts[k].append((int(mine.sum()), int(mask[mine].sum())))
            for point, val in zip(points[mine][mask[mine]], vals[mine][mask[mine]]):
                move, best = (-1, val) if state[k] is None else state[k]
                hit = move >= 0 and val < best - regions.ACCEPT_MARGIN
                state[k] = (((move + 2) // 2 * 2 if hit else move + 1) % (2 * param.size),
                            val if hit else best)
                rows[k].append((move, point, float(val)))
        chunks.clear()

    points, vals = regions._coordinate_descent(param, starts, scored, scanned, iters, init_step,
                                               min_step)
    accepted = []
    for descent in rows:
        best, accepted_here = descent[0][2], []
        for move, _, val in descent[1:]:
            if val < best - regions.ACCEPT_MARGIN:  # the descent's accept rule
                best = val
                bi = next(i for i, (at, n) in enumerate(param.spans) if move // 2 < at + n)
                accepted_here.append((bi, move // 2 - param.spans[bi][0],
                                      -1.0 if move % 2 else 1.0))
        accepted.append(accepted_here)
    return points, vals, rows, accepted, counts


def batched_descent(param, point, score, iters, init_step, min_step):
    """`_coordinate_descent` from one start, with its accepted moves."""
    (point,), (val,), _, (accepted,), _ = lockstep_descent(
        param, point[None], lambda points, owner, bar: score(points), iters, init_step,
        min_step)
    return point, val, accepted


def reference_pool(x, y, gap, witnesses):
    """The boundary pool built one offer at a time: an admissible offer no
    entry weakly dominates in (x, y) joins and evicts the entries it dominates."""
    pool = []
    for a, b, g, w in zip(x, y, gap, witnesses):
        if g <= ADMISSIBILITY_TOL and not any(ea <= a and eb <= b for ea, eb, _ in pool):
            pool = [e for e in pool if not (a <= e[0] and b <= e[1])] + [(a, b, w)]
    return sorted(pool, key=lambda e: e[0])


class TestBatchedSearch:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3), st.integers(1, 2),
           st.sampled_from(["lossless", "lossy"]), st.integers(1, 7))
    def test_rows_match_one_system_evaluation(self, seed, u_size, v_size, q_size, mode, rows):
        rng = np.random.default_rng(seed)
        m = random_binary_model(rng)
        f, d = (XOR_F, None) if mode == "lossless" else (XTPROJ_F, HAMMING_D)
        param = regions._AuxParam(m, u_size, v_size, q_size)
        points = np.stack([param.random(int(s)) for s in rng.integers(0, 2**31, size=rows)])
        src = param.source(points)
        coords, gap = regions._eval_rows(src, f, mode, d)
        tables = regions._g_tables(src.rows(("u", "xtilde", "y")), f, HAMMING_D)
        for point, row, res, table in zip(points, coords, gap, tables):
            aux = param.to_aux(point)
            rates, own_gap = regions._eval_candidate(m, aux, f, mode, d)
            assert list(rates.coords().values()) == pytest.approx(
                row[:len(rates.coords())].tolist(), abs=1e-12)
            assert own_gap == pytest.approx(res, abs=1e-12)
            assert np.array_equal(table, optimal_g(m, aux, f, HAMMING_D).table)

    # seeds whose one-at-a-time run accepts no step under 1e-12 (seeds 1, 4 and
    # 5 of the lossless case do: residual rounding times the 1e3 penalty weight)
    @pytest.mark.parametrize("mode,seed", [("lossless", 0), ("lossless", 2), ("lossless", 6),
                                           ("lossy", 1), ("lossy", 6)])
    def test_descent_keeps_the_one_at_a_time_trajectory(self, cascade_model, mode, seed):
        # lossless: the search-lossless setting, XOR at (|U|, |V|, |Q|) = (4, 3, 2)
        # and a target under the storage floor, so the descent never meets it;
        # lossy: the X~ projection with a distortion target at (2, 2, 2)
        if mode == "lossless":
            param = regions._AuxParam(cascade_model, 4, 3, 2)
            target, f, d, iters = RateTuple(0.6, h2(DSBS_P) - 0.1, 0.6, 0.6), XOR_F, None, 4
        else:
            param = regions._AuxParam(cascade_model, 2, 2, 2)
            target, f, d, iters = RateTuple(0.2, 0.2, 0.2, 0.2, d=0.05), XTPROJ_F, HAMMING_D, 6
        batch, one = batch_and_one(cascade_model, param, f, mode, d, target)
        start = param.random(seed)
        ref_point, ref_val, ref_moves = reference_descent(param, start, one, iters, 0.25, 1e-6)
        point, val, moves = batched_descent(param, start, batch, iters, 0.25, 1e-6)
        assert moves == ref_moves and len(moves) > 0
        assert np.max(np.abs(point - ref_point)) <= 1e-12
        assert val == pytest.approx(ref_val, abs=1e-12)

    def test_chunks_under_the_cell_cap_keep_the_trajectory(self, cascade_model, monkeypatch):
        target = RateTuple(0.6, h2(DSBS_P) - 0.1, 0.6, 0.6)
        runs = []
        for cap in (regions.TABLE_CELL_CAP, 3 * 384):  # 384 cells per (4, 3, 2) system
            monkeypatch.setattr(regions, "TABLE_CELL_CAP", cap)
            param = regions._AuxParam(cascade_model, 4, 3, 2)
            batch, _ = batch_and_one(cascade_model, param, XOR_F, "lossless", None, target)
            sizes = []
            runs.append(regions._coordinate_descent(
                param, param.random(2)[None],
                lambda p, owner, bar: sizes.append(len(p)) or batch(p),
                lambda mask: None, 3, 0.25, 1e-6) + (max(sizes),))
        (p1, v1, big), (p2, v2, small) = runs
        # the first round holds the first sweep's 84 moves and the two sweeps
        # after it that iters = 3 allows
        assert big == 252 and small == 3
        assert np.array_equal(p1, p2) and np.array_equal(v1, v2)

    # where `iters` or `min_step` ends a descent in a sweep scored ahead: the
    # search-lossless setting (4, 3, 2) and the trace-lossy one (2, 1, 1)
    @pytest.mark.parametrize("small_cap", [False, True])
    @pytest.mark.parametrize("sizes,seed,iters,min_step", [
        ((4, 3, 2), 2, 4, 1e-6), ((4, 3, 2), 0, 500, 0.05),
        ((2, 1, 1), 3, 4, 1e-6), ((2, 1, 1), 3, 500, 0.01)])
    def test_a_limit_in_a_sweep_ahead_keeps_the_trajectory(self, cascade_model, monkeypatch,
                                                           sizes, seed, iters, min_step, small_cap):
        if small_cap:  # three systems a chunk
            monkeypatch.setattr(regions, "TABLE_CELL_CAP", 3 * {4: 384, 2: 32}[sizes[0]])
        param = regions._AuxParam(cascade_model, *sizes)
        if sizes[0] == 4:
            target, f, d, mode = RateTuple(0.6, h2(DSBS_P) - 0.1, 0.6, 0.6), XOR_F, None, "lossless"
        else:
            target, f, d, mode = RateTuple(0.5, 0.3, 0.5, 0.5, d=0.05), XTPROJ_F, HAMMING_D, "lossy"
        batch, _ = batch_and_one(cascade_model, param, f, mode, d, target)
        start = param.random(seed)
        # the reference scores each candidate as a one-row stack, so values match bit for bit
        ref_point, ref_val, ref_moves = reference_descent(
            param, start, lambda point: batch(point[None])[0], iters, 0.25, min_step)
        (point,), (val,), _, (moves,), (rounds,) = lockstep_descent(
            param, start[None], lambda points, owner, bar: batch(points), iters, 0.25, min_step)
        assert moves == ref_moves and np.array_equal(point, ref_point) and val == ref_val
        # the last round scanned past its first sweep and stopped short of its
        # last sweep ahead, scoring no row the one-at-a-time scan did not reach
        scored, scanned = rounds[-1]
        n = 2 * param.size
        assert n < scanned <= regions.SWEEPS_AHEAD * n and scored == scanned

    @pytest.mark.parametrize("small_cap", [False, True])
    @pytest.mark.parametrize("mode", ["lossless", "lossy"])
    def test_lockstep_descents_keep_their_single_start_trajectories(
            self, cascade_model, monkeypatch, mode, small_cap):
        # lossless: the search-lossless setting (4, 3, 2) with one target;
        # lossy: the trace-lossy setting (2, 1, 1), each descent its own bound
        sizes, per_system = ((4, 3, 2), 384) if mode == "lossless" else ((2, 1, 1), 32)
        if small_cap:  # three systems a chunk, fewer than one neighbourhood
            monkeypatch.setattr(regions, "TABLE_CELL_CAP", 3 * per_system)
        param = regions._AuxParam(cascade_model, *sizes)
        assert (param.batch < 2 * param.size) == small_cap
        if mode == "lossless":
            target = RateTuple(0.6, h2(DSBS_P) - 0.1, 0.6, 0.6)
            batch, _ = batch_and_one(cascade_model, param, XOR_F, mode, None, target)
            score, iters, starts = (lambda points, owner, bar: batch(points)), 4, (0, 2, 6)
        else:
            bounds = np.array([0.02, 0.06, 0.1, 0.15])

            def score(points, owner, bar):
                coords, _ = regions._eval_rows(param.source(points), XTPROJ_F, mode, HAMMING_D)
                return coords[:, 1] + 1e3 * np.maximum(coords[:, 4] - bounds[owner], 0.0)

            iters, starts = 30, (1, 2, 3, 4)
        starts = np.stack([param.random(s) for s in starts])
        calls = []

        def counted(points, owner, bar, k=0):
            calls.append(k)
            return score(points, owner + k, bar)

        points, vals, rows, moves, _ = lockstep_descent(param, starts, counted, iters, 0.25,
                                                        1e-6)
        lockstep_calls = len(calls)
        for k, start in enumerate(starts):
            (point,), (val,), (own_rows,), (own_moves,), (rounds,) = lockstep_descent(
                param, start[None], lambda p, o, b, k=k: counted(p, o, b, k), iters, 0.25, 1e-6)
            # no chunk is scored past the one that holds the descent's hit
            assert all(n <= -(-seen // param.batch) * param.batch for n, seen in rounds)
            assert moves[k] == own_moves and len(own_moves) > 0
            assert np.array_equal(points[k], point) and vals[k] == val
            assert [(mv, v) for mv, _, v in rows[k]] == [(mv, v) for mv, _, v in own_rows]
            assert all(np.array_equal(a, b) for (_, a, _), (_, b, _) in zip(rows[k], own_rows))
        assert lockstep_calls < len(calls) - lockstep_calls  # rounds share their stacks

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3), st.integers(1, 2),
           st.lists(st.tuples(st.integers(0, 10_000), st.floats(0.0, 1.0),
                              st.sampled_from([0.25, 0.125, 1e-3, 0.7])), min_size=1, max_size=5))
    def test_stacked_neighbours_equal_the_per_span_loop(self, seed, u_size, v_size, q_size,
                                                        descents):
        param = regions._AuxParam(random_binary_model(np.random.default_rng(seed)), u_size,
                                  v_size, q_size)
        points = np.stack([param.random(s) for s, _, _ in descents])
        starts = np.array([int(at * (2 * param.size - 1)) for _, at, _ in descents])
        steps = np.array([step for _, _, step in descents])
        cands = param.neighbours(points, starts, steps)
        ref = [reference_neighbours(param, p, int(a), float(h))
               for p, a, h in zip(points, starts, steps)]
        assert np.array_equal(cands, np.concatenate(ref))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3), st.integers(1, 2),
           st.sampled_from(["lossless", "lossy"]), st.integers(1, 5),
           st.sets(st.integers(0, 4)))
    def test_scoring_some_columns_equals_the_full_rows_on_them(self, seed, u_size, v_size,
                                                               q_size, mode, rows, cols):
        rng = np.random.default_rng(seed)
        m = random_binary_model(rng)
        f, d = (XOR_F, None) if mode == "lossless" else (XTPROJ_F, HAMMING_D)
        points = None
        results = []
        for want in (range(5), sorted(cols)):  # each on its own search's sources
            param = regions._AuxParam(m, u_size, v_size, q_size)
            if points is None:
                points = np.stack([param.random(int(s)) for s in rng.integers(0, 2**31, rows)])
            multi = [(0, 1, 3, 4)[c] for c in want if c < 4]
            results.append((regions._eval_rows(param.source(points), f, mode, d, want),
                            regions._multi_rates(param.source(points), multi), multi))
        ((full, full_gap), (full_rates, full_offset), _), ((part, gap), (rates, offset), multi) = \
            results
        other = [c for c in range(5) if c not in cols]
        assert np.array_equal(part[:, sorted(cols)], full[:, sorted(cols)])
        assert np.isnan(part[:, other]).all() and np.array_equal(gap, full_gap)
        assert np.array_equal(rates[:, multi], full_rates[:, multi])
        assert np.isnan(np.delete(rates, multi, axis=1)).all()
        if {0, 4} & set(multi):
            assert np.array_equal(offset, full_offset)
        else:
            assert np.isnan(offset).all()

    @pytest.mark.parametrize("q_size", [1, 2])
    @pytest.mark.parametrize("mode", ["lossless", "lossy"])
    def test_trace_equals_a_trace_scoring_every_column(self, cascade_model, monkeypatch, mode,
                                                        q_size):
        # lossy: the trace-lossy setting (2, 1, 1); lossless: XOR, r_w against r_s
        if mode == "lossy":
            f, d, sweep = XTPROJ_F, HAMMING_D, BoundarySweep("d", (0.03, 0.09, 0.15), "r_w")
        else:
            f, d, sweep = XOR_F, None, BoundarySweep("r_s", (0.3, 0.5, 0.7), "r_w")
        budget = SearchBudget(restarts=2, iters=12, u_size=2, v_size=1, q_size=q_size, seed=5)
        runs = [trace_boundary(cascade_model, f, sweep, mode, budget, d=d)]
        every = regions._eval_rows
        monkeypatch.setattr(regions, "_eval_rows",
                            lambda src, f, mode, d, cols=None: every(src, f, mode, d))
        runs.append(trace_boundary(cascade_model, f, sweep, mode, budget, d=d))
        (mine, ref) = runs
        assert mine == ref
        for a, b in zip(mine, ref):
            assert len(a.witnesses) == len(b.witnesses)
            for wa, wb in zip(a.witnesses, b.witnesses):
                assert np.array_equal(wa.p_q.probs, wb.p_q.probs)
                for pa, pb in zip(wa.per_q, wb.per_q):
                    assert np.array_equal(pa.p_u_given_xt.rows, pb.p_u_given_xt.rows)
                    assert np.array_equal(pa.p_v_given_u.rows, pb.p_v_given_u.rows)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([(4, 3, 2), (2, 2, 2)]),
           st.sampled_from(["lossless", "lossy"]), st.integers(1, 8),
           st.lists(st.floats(-0.3, 0.3), min_size=5, max_size=5), st.booleans())
    def test_staged_score_is_exact_under_the_bar(self, seed, sizes, mode, rows, shifts, with_d):
        rng = np.random.default_rng(seed)
        m = random_binary_model(rng)
        f = XOR_F if mode == "lossless" else XTPROJ_F
        d = HAMMING_D if mode == "lossy" and with_d else None
        param = regions._AuxParam(m, *sizes)
        points = np.stack([param.random(int(s)) for s in rng.integers(0, 2**31, rows)])
        # the unstaged objective, scored first as a descent scores its start
        coords, gap = regions._eval_rows(param.source(points), f, mode, d)
        first = coords[0] + np.array(shifts)  # a target near the first row
        target = RateTuple(*first[:4].tolist(), d=float(first[4]) if d is not None else None)
        t = np.array(list(target.coords().values()))
        full = np.max(coords[:, :len(t)] - t, axis=1) + 1e3 * np.maximum(
            gap - ADMISSIBILITY_TOL, 0.0)
        bars = full + rng.choice([-np.inf, -0.2, -1e-9, 0.0, 1e-9, 0.2, np.inf], size=rows)
        score = regions._membership_score(param, f, mode, d, target)
        vals = score(points, np.zeros(rows, dtype=int), bars)
        below = full < bars
        assert np.array_equal(vals[below], full[below])  # bit for bit
        assert np.all(bars[~below] <= vals[~below]) and np.all(vals[~below] <= full[~below])

    @pytest.mark.parametrize("mode,seed", [("lossless", 2), ("lossless", 4), ("lossy", 1)])
    def test_staged_score_keeps_the_unstaged_descent(self, cascade_model, mode, seed):
        # the search-lossless setting, and the lossy one of the trajectory test
        if mode == "lossless":
            sizes, target, f, d = (4, 3, 2), RateTuple(0.6, h2(DSBS_P) - 0.1, 0.6, 0.6), XOR_F, None
        else:
            sizes, target, f, d = ((2, 2, 2), RateTuple(0.2, 0.2, 0.2, 0.2, d=0.05), XTPROJ_F,
                                   HAMMING_D)
        runs = []
        for staged in (False, True):  # each on its own search's model memo
            param = regions._AuxParam(cascade_model, *sizes)
            batch, _ = batch_and_one(cascade_model, param, f, mode, d, target)
            score = (regions._membership_score(param, f, mode, d, target) if staged
                     else lambda points, owner, bar: batch(points))
            runs.append(regions._coordinate_descent(param, param.random(seed)[None], score,
                                                    lambda mask: None, 4, 0.25, 1e-6))
        (p1, v1), (p2, v2) = runs
        assert np.array_equal(p1, p2) and np.array_equal(v1, v2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([(4, 3, 2), (2, 2, 2), (3, 1, 1)]),
           st.integers(1, 8), st.data())
    def test_take_equals_a_source_built_from_the_rows(self, seed, sizes, rows, data):
        rng = np.random.default_rng(seed)
        param = regions._AuxParam(random_binary_model(rng), *sizes)
        points = np.stack([param.random(int(s)) for s in rng.integers(0, 2**31, rows)])
        pick = np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=rows)))
        src = param.source(points)
        # some tables and entropies before the take, on model and system axes
        sets = [("q", "u", "xtilde", "y"), ("q", "u", "y"), ("xtilde", "y"), ("y",),
                ("q", "v", "u", "z"), ("q", "u", "x", "z"), ("x", "z"), ("v", "xtilde")]
        for names in sets[:5]:
            src.entropy(names)
        model = dict(src._model_h)
        sub, ref = src.take(pick), param.source(points[pick])
        # the model's memo at |Q| = 1, the search's own at |Q| = 2
        assert (src._model_h is param.m._h) == (sizes[2] == 1)
        assert sub._model_h is src._model_h and sub.batch == ref.batch == len(pick)
        for names in sets:
            assert np.array_equal(sub.rows(names), ref.rows(names))
            assert np.array_equal(sub.entropy(names), ref.entropy(names))
        # the shared model-only memo keeps its (1,) entries, none sliced or replaced
        assert all(src._model_h[key] is h for key, h in model.items())
        assert all(h.shape == (1,) for h in src._model_h.values())

    @pytest.mark.parametrize("gain,moves", [(4.4e-13, False), (2e-12, True)])
    def test_a_gain_of_the_order_of_rounding_is_no_move(self, cascade_model, gain, moves):
        # 4.4e-13 is a one-ulp change of a residual near 1 under the 1e3 penalty
        param = regions._AuxParam(cascade_model, 2, 1, 1)
        start = param.random(0)

        def score(points, owner, bar):
            return np.where((points == start).all(axis=1), 1.0, 1.0 - gain)

        (point,), (val,) = regions._coordinate_descent(param, start[None], score,
                                                        lambda mask: None, 1, 0.25, 0.25)
        assert (not np.array_equal(point, start)) == moves
        assert val == (1.0 - gain if moves else 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                              st.sampled_from([0.0, ADMISSIBILITY_TOL, 1.0])), max_size=30))
    def test_one_pass_pool_matches_offering_one_at_a_time(self, offers):
        # small integer coordinates make exact ties and weak dominance common
        x, y, gap = np.array(offers, dtype=float).reshape(-1, 3).T
        witnesses = [object() for _ in offers]
        kept = regions._pareto_front(x, y, gap).tolist()
        ref = reference_pool(x.tolist(), y.tolist(), gap.tolist(), witnesses)
        assert [(x[i], y[i]) for i in kept] == [(a, b) for a, b, _ in ref]
        assert all(witnesses[i] is w for i, (_, _, w) in zip(kept, ref))


class TestMembership:
    def test_dominates_reads_the_membership_tolerance(self):
        target, tol = RateTuple(0.25, 0.25, 0.25, 0.25), regions.MEMBERSHIP_TOL
        assert replace(target, r_w=0.25 + tol / 2).dominates(target)
        assert not replace(target, r_w=0.25 + 2 * tol).dominates(target)
        # a tuple without d reads it as 0; a target without d asks nothing of it
        assert target.dominates(replace(target, d=0.0))
        assert not target.dominates(replace(target, d=-1.0))
        assert replace(target, d=0.5).dominates(target)

    def test_replay_known_system(self, cascade_model):
        target = eval_lossless_corner(cascade_model, identity_aux(cascade_model), XOR_F)
        res = membership(cascade_model, XOR_F, target, "lossless",
                         SearchBudget(restarts=0))
        assert res.found
        assert res.achieved.dominates(target)

    def test_all_zero_target_not_found_for_informative_function(self, cascade_model):
        target = RateTuple(0.0, 0.0, 0.0, 0.0)
        res = membership(cascade_model, XOR_F, target, "lossless",
                         SearchBudget(restarts=4, iters=40))
        assert not res.found
        assert res.witness is None

    def test_witness_reuse_is_monotone(self, cascade_model):
        t1 = eval_lossless_corner(cascade_model, identity_aux(cascade_model), XOR_F)
        res1 = membership(cascade_model, XOR_F, t1, "lossless", SearchBudget(restarts=0))
        t2 = RateTuple(t1.r_s + 0.2, t1.r_w + 0.2, t1.r_dec + 0.2, t1.r_eve + 0.2)
        res2 = membership(cascade_model, XOR_F, t2, "lossless",
                          SearchBudget(restarts=0, candidates=(res1.witness,)))
        assert res2.found
        assert res1.achieved.dominates(t2)

    def test_time_sharing_mixture_is_achievable(self, cascade_model):
        from sfcomp.regions import _alphabet_of_size
        q2 = _alphabet_of_size("q", 2)
        mix = AuxSystem(Dist(q2, np.array([0.5, 0.5])),
                        (bsc_aux(0.05).per_q[0], bsc_aux(0.35).per_q[0]))
        target, _, _ = _rates_with_joint(cascade_model, mix)
        res = membership(cascade_model, XOR_F, target, "lossy",
                         SearchBudget(restarts=0, candidates=(mix,)))
        assert res.found
        assert res.witness is mix

    def test_search_finds_interior_point(self, cascade_model):
        # a point slightly inside the identity-corner is reachable by search
        base, _, _ = _rates_with_joint(cascade_model, bsc_aux(0.2))
        target = RateTuple(base.r_s + 0.03, base.r_w + 0.03,
                           base.r_dec + 0.03, base.r_eve + 0.03)
        res = membership(cascade_model, XOR_F, target, "lossy",
                         SearchBudget(restarts=6, iters=60, seed=1))
        assert res.found

    def test_oversize_candidate_rejected(self, cascade_model):
        # |U| = 40 exceeds the lossless cap (2 + 4)^2 = 36; an admissible candidate
        # of that size used to come back as a found witness
        big_u = _alphabet_of_size("u", 40)
        rows = np.zeros((2, 40))
        rows[0, 0] = rows[1, 1] = 1.0  # U copies X~
        pair = AuxPair(CondDist(XT, big_u, rows), constant_channel(big_u, singleton_alphabet("v")))
        aux = AuxSystem(uniform(singleton_alphabet("q")), (pair,))
        budget = SearchBudget(restarts=0, candidates=(aux,))
        with pytest.raises(CardinalityError):
            eval_lossless_corner(cascade_model, aux, XOR_F)
        with pytest.raises(CardinalityError):
            membership(cascade_model, XOR_F, RateTuple(1.0, 1.0, 1.0, 1.0), "lossless", budget)

    @pytest.mark.parametrize("inside", [True, False])
    def test_budget_is_checked_before_any_candidate(self, cascade_model, inside):
        # an oversized |Q| came back found when a canonical corner answered
        corner = eval_lossless_corner(cascade_model, identity_aux(cascade_model), XOR_F)
        target = corner if inside else RateTuple(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(CardinalityError):
            membership(cascade_model, XOR_F, target, "lossless",
                       SearchBudget(restarts=0, q_size=3))

    def test_corners_are_built_when_tried(self, cascade_model, monkeypatch):
        calls, answers = [], []
        evaluate = regions._eval_candidate

        def spy(m, aux, *rest):
            calls.append(aux)
            answers.append(evaluate(m, aux, *rest))
            return answers[-1]

        def refused(m):
            raise AssertionError("a canonical corner was built")

        monkeypatch.setattr(regions, "_eval_candidate", spy)
        corner = eval_lossless_corner(cascade_model, identity_aux(cascade_model), XOR_F)
        candidate, failing = identity_aux(cascade_model), constant_aux(cascade_model)
        # the identity corner meets its own corner: the other two are never built
        monkeypatch.setattr(regions, "constant_aux", refused)
        monkeypatch.setattr(regions, "v_equals_u_aux", refused)
        first = membership(cascade_model, XOR_F, corner, "lossless", SearchBudget(restarts=0))
        assert first.verdict == "found" and first.achieved == corner and len(calls) == 1
        # a budget candidate that meets it leaves every corner unbuilt
        monkeypatch.setattr(regions, "identity_aux", refused)
        res = membership(cascade_model, XOR_F, corner, "lossless",
                         SearchBudget(restarts=0, candidates=(candidate,)))
        assert res.witness is candidate and calls[1:] == [candidate]
        # on the same model the identity corner is read, neither built nor evaluated
        res = membership(cascade_model, XOR_F, corner, "lossless", SearchBudget(restarts=0))
        assert res.witness is first.witness and res.achieved == corner and calls[2:] == []
        # while a budget candidate is evaluated on every call
        res = membership(cascade_model, XOR_F, corner, "lossless",
                         SearchBudget(restarts=0, candidates=(candidate,)))
        assert res.witness is candidate and calls[2:] == [candidate]
        # a candidate that fails the target is evaluated once, in full, and the
        # identity corner answers; no system stores more than the identity
        # corner's r_w = H(X~|Y), so this candidate fails on its residual
        res = membership(cascade_model, XOR_F, corner, "lossless",
                         SearchBudget(restarts=0, candidates=(failing,)))
        assert res.witness is first.witness and res.achieved == corner
        assert calls[3:] == [failing] and answers[3][1] > ADMISSIBILITY_TOL
        lossy = eval_lossy_corner(cascade_model, failing, XOR_F,
                                  optimal_g(cascade_model, failing, XOR_F, HAMMING_D), HAMMING_D)
        assert answers[3][0] == replace(lossy, d=None)

    def test_a_second_call_rebuilds_nothing_of_the_model(self, cascade_model, monkeypatch):
        built, evaluated = [], []
        init, evaluate = sources._ProductForm.__init__, regions._eval_candidate

        def counted(self, p_x, q, arms, *rest):
            built.append((q, tuple((u, v) for _, u, v, _ in arms)))
            init(self, p_x, q, arms, *rest)

        monkeypatch.setattr(sources._ProductForm, "__init__", counted)
        monkeypatch.setattr(regions, "_eval_candidate",
                            lambda m, aux, *rest: evaluated.append(aux) or evaluate(m, aux, *rest))
        sweep = BoundarySweep("d", (0.05, 0.15), "r_w")
        budget = SearchBudget(restarts=1, iters=4, u_size=2, v_size=1, seed=1)
        first = trace_boundary(cascade_model, XTPROJ_F, sweep, "lossy", budget, d=HAMMING_D)
        tried, seen = len(evaluated), len(built)
        again = trace_boundary(cascade_model, XTPROJ_F, sweep, "lossy", budget, d=HAMMING_D)
        assert again == first and len(built) == seen  # no structure built again
        corners = {id(aux) for aux, _ in regions._canonical_corners(cascade_model, XTPROJ_F,
                                                                    "lossy", HAMMING_D)}
        # the first call evaluated the corners; the second only its search's witnesses
        assert corners <= set(map(id, evaluated[:tried]))
        assert not corners & set(map(id, evaluated[tried:]))
        arm = MultiArm(cascade_model.p_xt_given_x, cascade_model.p_yz_given_x, XOR_F, HAMMING_D)
        mm = MultiModel(cascade_model.p_x, (arm, arm))
        system = MultiAuxSystem(uniform(singleton_alphabet("q")),
                                (identity_aux(cascade_model).per_q,) * 2)
        for call in (
            lambda: membership(cascade_model, XOR_F, RateTuple(5.0, 5.0, 5.0, 5.0),
                               "lossless").achieved,
            lambda: multifunction.eval_inner_mf(mm, system, "lossless"),
            lambda: multifunction.eval_outer_mf(mm, system, "lossless")[0],
        ):
            first, seen = call(), len(built)
            assert call() == first and len(built) == seen
        assert len(set(built)) == len(built)  # one per model and alphabet set

    def test_candidate_evaluation_is_the_exact_corner(self, cascade_model):
        aux = identity_aux(cascade_model)
        corner = eval_lossless_corner(cascade_model, aux, XOR_F)
        full = regions._eval_candidate(cascade_model, aux, XOR_F, "lossless", None)
        assert full[0] == corner and full[1] <= ADMISSIBILITY_TOL

    def test_invalid_budget(self):
        with pytest.raises(RegionError):
            SearchBudget(restarts=-1)
        with pytest.raises(RegionError):
            SearchBudget(iters=0)

    def test_infinite_target_rejected(self, cascade_model):
        with pytest.raises(RegionError):
            membership(cascade_model, XOR_F, RateTuple(np.inf, 0, 0, 0), "lossless")


def count_descents(monkeypatch) -> list:
    """A list that grows by one on every `_coordinate_descent` call."""
    calls = []
    descend = regions._coordinate_descent

    def spy(*args, **kwargs):
        calls.append(1)
        return descend(*args, **kwargs)

    monkeypatch.setattr(regions, "_coordinate_descent", spy)
    return calls


def random_model(rng, x_size, xt_size, y_size):
    x, xt, y, z = (_alphabet_of_size(n, k) for n, k in
                   (("x", x_size), ("xtilde", xt_size), ("y", y_size), ("z", 2)))
    return SourceModel(Dist(x, rng.dirichlet((1.0,) * x_size)),
                       CondDist(x, xt, rng.dirichlet((0.7,) * xt_size, size=x_size)),
                       CondDist(x, product_alphabet("yz", y, z),
                                rng.dirichlet((0.7,) * 2 * y_size, size=x_size)))


def merge_consistent_with(rng, f: FunctionSpec) -> list[int]:
    """A random grouping of X~ that merges only symbols with equal function rows,
    so the group and Y determine F."""
    group: list[int] = []
    for a, row in enumerate(f.table):
        same = [group[b] for b in range(a) if np.array_equal(f.table[b], row)]
        group.append(same[0] if same and rng.random() < 0.7 else max(group, default=-1) + 1)
    return group


def merge_pair(rng, f: FunctionSpec, u_alpha, v_size: int) -> AuxPair:
    """U reveals the group of a random merge of X~, through any channel whose
    supports per group are disjoint; V is a random channel of U."""
    group = merge_consistent_with(rng, f)
    groups = max(group) + 1
    owner = rng.permutation(list(range(groups)) + list(rng.integers(0, groups,
                                                                    u_alpha.size - groups)))
    rows = np.zeros((len(group), u_alpha.size))
    for a, g in enumerate(group):
        rows[a, owner == g] = rng.dirichlet((1.0,) * int(np.sum(owner == g)))
    v_alpha = _alphabet_of_size("v", v_size)
    return AuxPair(CondDist(f.xt_alphabet, u_alpha, rows),
                   CondDist(u_alpha, v_alpha, rng.dirichlet((1.0,) * v_size, size=u_alpha.size)))


class TestCertificate:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 3), st.integers(2, 3),
           st.integers(2, 3), st.integers(1, 2), st.integers(1, 2))
    def test_every_admissible_corner_obeys_the_bounds(self, seed, x_size, xt_size, y_size,
                                                      f_size, v_size, q_size):
        rng = np.random.default_rng(seed)
        m = random_model(rng, x_size, xt_size, y_size)
        # rows drawn from a pool of two, so some X~ symbols can be merged
        pool = rng.integers(0, f_size, size=(2, y_size))
        f = FunctionSpec(m.xt_alphabet, m.y_alphabet, _alphabet_of_size("f", f_size),
                         pool[rng.integers(0, 2, size=xt_size)])
        bounds = _lossless_bounds(m, f)
        jf = push_function(build_joint(m), ("xtilde", "y"), f.table, f.output)
        assert bounds["r_w"] == pytest.approx(entropy(jf, ("f", "y")) - entropy(jf, "y"), abs=1e-12)
        assert bounds["r_dec"] == pytest.approx(cond_mutual_info(jf, "f", "x", "y"), abs=1e-12)
        u_alpha = _alphabet_of_size("u", xt_size + int(rng.integers(0, 3)))
        q_alpha = _alphabet_of_size("q", q_size)
        merged = AuxSystem(Dist(q_alpha, rng.dirichlet((1.0,) * q_size)),
                           tuple(merge_pair(rng, f, u_alpha, v_size) for _ in range(q_size)))
        for aux in (identity_aux(m), merged):
            corner = eval_lossless_corner(m, aux, f)  # raises unless admissible
            assert corner.r_w >= bounds["r_w"] - 1e-9
            assert corner.r_dec >= bounds["r_dec"] - 1e-9

    @pytest.mark.parametrize("coord", ["r_w", "r_dec"])
    def test_target_just_under_a_bound_is_outside_after_no_descent(self, cascade_model,
                                                                  monkeypatch, coord):
        calls = count_descents(monkeypatch)
        bound = _lossless_bounds(cascade_model, XOR_F)[coord]
        target = replace(RateTuple(5.0, 5.0, 5.0, 5.0),
                         **{coord: bound - (ADMISSIBILITY_TOL + regions.MEMBERSHIP_TOL) - 1e-10})
        res = membership(cascade_model, XOR_F, target, "lossless",
                         SearchBudget(restarts=3, iters=5))
        assert (res.verdict, res.certificate) == ("outside", (coord, bound))
        assert not res.found and res.witness is None and res.achieved is None
        assert calls == []

    def test_target_within_the_margin_is_searched(self, cascade_model, monkeypatch):
        # the identity corner has r_w = H(F|Y) here, more than MEMBERSHIP_TOL over
        # the target, but a system of residual up to ADMISSIBILITY_TOL could meet it
        calls = count_descents(monkeypatch)
        bound = _lossless_bounds(cascade_model, XOR_F)["r_w"]
        target = RateTuple(5.0, bound - 1.5e-9, 5.0, 5.0)
        res = membership(cascade_model, XOR_F, target, "lossless",
                         SearchBudget(restarts=1, iters=2))
        assert res.certificate is None and len(calls) == 1
        assert res.verdict == ("found" if res.found else "unknown")

    def test_target_just_over_the_identity_corner_is_found(self, cascade_model, monkeypatch):
        calls = count_descents(monkeypatch)
        corner = eval_lossless_corner(cascade_model, identity_aux(cascade_model), XOR_F)
        target = RateTuple(*(v + 1e-12 for v in corner.coords().values()))
        res = membership(cascade_model, XOR_F, target, "lossless", SearchBudget(restarts=2))
        assert res.verdict == "found" and res.certificate is None and calls == []

    @pytest.mark.parametrize("coord", ["r_s", "r_w", "r_dec", "r_eve", "d"])
    def test_negative_coordinates_are_outside_in_lossy_mode(self, cascade_model, monkeypatch,
                                                            coord):
        calls = count_descents(monkeypatch)
        budget = SearchBudget(restarts=2, iters=3)
        corner = eval_lossy_corner(cascade_model, identity_aux(cascade_model), XOR_F,
                                   optimal_g(cascade_model, identity_aux(cascade_model),
                                             XOR_F, HAMMING_D), HAMMING_D)
        for below, outside in ((-2.1e-9, True), (-1.9e-9, False)):
            target = replace(corner, **{coord: below})
            res = membership(cascade_model, XOR_F, target, "lossy", budget, d=HAMMING_D)
            assert res.certificate == ((coord, 0.0) if outside else None)
        assert len(calls) == budget.restarts  # only the target within the margin searched

    def test_lossy_mode_has_no_storage_floor(self, cascade_model):
        # without a distortion target the constant corner, r_w = 0, meets it
        bound = _lossless_bounds(cascade_model, XOR_F)["r_w"]
        res = membership(cascade_model, XOR_F, RateTuple(5.0, bound - 0.1, 5.0, 5.0), "lossy",
                         SearchBudget(restarts=0))
        assert res.verdict == "found" and res.achieved.r_w == 0.0

    def test_bench_outside_targets_are_outside(self, monkeypatch):
        # the benchmark's search-lossless targets under the r_w floor, seed 23 held out
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import inputs

        calls, verdicts = count_descents(monkeypatch), []
        evaluate = regions._eval_candidate
        monkeypatch.setattr(regions, "_eval_candidate",
                            lambda *args: verdicts.append(args) or evaluate(*args))
        for seed in [*range(1, 11), 23]:
            spec = inputs.search_lossless(seed)
            parsed = parse_model_text(spec["yaml"][0])
            # seed 1 offers a candidate, which the certificate leaves untried too
            offered = (identity_aux(parsed.model),) if seed == 1 else ()
            for t in spec["targets"]:
                if not t["inside"]:
                    res = membership(parsed.model, parsed.f, RateTuple(**t["coords"]),
                                     "lossless",
                                     SearchBudget(**spec["budget"], candidates=offered))
                    assert res.verdict == "outside" and res.certificate[0] == "r_w"
        assert calls == [] and verdicts == []

    def test_unit_weight_verdicts_share_one_model_memo(self, cascade_model, monkeypatch):
        memos = []
        build = regions._source

        def spy(m, aux):
            src = build(m, aux)
            memos.append(src._model_h)
            return src

        monkeypatch.setattr(regions, "_source", spy)
        q1, q2 = singleton_alphabet("q"), _alphabet_of_size("q", 2)
        mix = AuxSystem(Dist(q2, np.array([0.5, 0.5])),
                        (bsc_aux(0.05).per_q[0], bsc_aux(0.35).per_q[0]))
        # p(q) within MASS_TOL of 1 but not 1.0: its marginals differ by rounding
        near = AuxSystem(Dist(q1, np.array([1.0 - 1e-13])), bsc_aux(0.1).per_q)
        budget = SearchBudget(restarts=0, candidates=(bsc_aux(0.2), mix, near))
        # no certificate: every candidate and corner is tried, and none meets it
        res = membership(cascade_model, XOR_F, RateTuple(0.0, 5.0, 5.0, 0.0), "lossless",
                         budget)
        assert res.verdict == "unknown" and len(memos) == 6
        shared = cascade_model._h
        assert shared and memos[0] is shared
        assert memos[1] is not shared and memos[2] is not shared and memos[1] is not memos[2]
        assert all(memo is shared for memo in memos[3:])  # the canonical corners

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3))
    def test_a_shared_memo_leaves_every_tuple_bit_identical(self, seed, u_size, v_size):
        m = binary_cascade_model()
        rng = np.random.default_rng(seed)
        # fill the model's memo first: each corner is evaluated as it is yielded
        corners = [aux for aux, _ in regions._canonical_corners(m, XOR_F, "lossless", None)]
        assert m._h
        for aux in (random_aux(rng, u_size, v_size), *corners):
            for mode, f in (("lossless", XTPROJ_F), ("lossy", XOR_F)):
                own = regions._eval_candidate(replace(m), aux, f, mode, None)  # a cold memo
                assert regions._eval_candidate(m, aux, f, mode, None) == own


def bench_trace_lossy(seed: int, monkeypatch) -> list:
    """`trace_boundary` on the benchmark's trace-lossy inputs at `seed`."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import inputs

    spec = inputs.trace_lossy(seed)
    parsed = parse_model_text(spec["yaml"][0])
    return trace_boundary(parsed.model, parsed.f, BoundarySweep("d", tuple(spec["grid"]), "r_w"),
                          "lossy", SearchBudget(**spec["budget"]), d=parsed.d)


def point_hex(pt: BoundaryPoint) -> str:
    """A traced point's `feasible`, coordinates, weights and witness tables
    (p(q), then p(u|xt) and p(v|u) per weight symbol) as float hex."""
    vals = [*pt.coords().values(), *pt.weights]
    for w in pt.witnesses:
        vals += [*w.p_q.probs, *(v for pair in w.per_q for v in (
            *pair.p_u_given_xt.rows.ravel(), *pair.p_v_given_u.rows.ravel()))]
    return " ".join([str(pt.feasible), *(float(v).hex() for v in vals)])


# `point_hex` of trace-lossy's points at seeds 1 and 23 (23 is held out), as
# traced with numpy 2.4.6 on x86-64 when each round scored one sweep per descent
TRACE_LOSSY_RECORDED = {
    1: [
        'True 0x1.29961fe060957p-1 0x1.29961fe060957p-1 0x1.54906af44e242p-2 '
        '0x1.54906af44e251p-2 0x1.6f77b901648aap-6 0x1.08846fe9b7551p-4 0x1.deef7202c9156p-1 '
        '0x1.0000000000000p+0 0x1.f800000000000p-1 0x1.0000000000000p-6 0x0.0p+0 '
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 '
        '0x1.f000000000000p-1 0x1.0000000000000p-5 0x1.0000000000000p-6 0x1.f800000000000p-1 '
        '0x1.0000000000000p+0 0x1.0000000000000p+0',
        'True 0x1.4d1e04efa0edfp-2 0x1.4d1e04efa0edap-2 0x1.8614bfeb7106dp-3 '
        '0x1.8614bfeb7106dp-3 0x1.86da47c4a48e0p-4 0x1.3ff6de33311c3p-1 0x1.801243999dc7ap-2 '
        '0x1.0000000000000p+0 0x1.ed032e519e55cp-1 0x1.2fcd1ae61aa40p-5 0x1.35efcfb8ef49bp-5 '
        '0x1.eca10304710b6p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 '
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        'True 0x1.1def6c6dbc5c0p-3 0x1.1def6c6dbc5bcp-3 0x1.4ed4aff2d8f1ep-4 '
        '0x1.4ed4aff2d8f1ep-4 0x1.3454131f5dc03p-3 0x1.12a5303623f55p-2 0x1.76ad67e4ee056p-1 '
        '0x1.0000000000000p+0 0x1.ed032e519e55cp-1 0x1.2fcd1ae61aa40p-5 0x1.35efcfb8ef49bp-5 '
        '0x1.eca10304710b6p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 '
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
    ],
    23: [
        'True 0x1.105223ad1a675p-1 0x1.105223ad1a675p-1 0x1.3b9db92c1d8dep-2 '
        '0x1.3b9db92c1d8d9p-2 0x1.2cc64cc186b3ep-5 0x1.984fe8e45bfeap-3 0x1.99ec05c6e9006p-1 '
        '0x1.0000000000000p+0 0x1.f000000000000p-1 0x1.0000000000000p-5 0x1.30dca96ef53c0p-8 '
        '0x1.fd9e46ad22158p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 '
        '0x1.e000000000000p-1 0x1.0000000000000p-4 0x1.4c372a5bbd4f0p-6 0x1.f59e46ad22158p-1 '
        '0x1.0000000000000p+0 0x1.0000000000000p+0',
        'True 0x1.443f413846192p-2 0x1.443f41384618dp-2 0x1.7f34a614420f4p-3 '
        '0x1.7f34a614420f4p-3 0x1.9348e0a84b09ep-4 0x1.4f63e46efcf58p-1 0x1.6138372206150p-2 '
        '0x1.0000000000000p+0 0x1.e000000000000p-1 0x1.0000000000000p-4 0x1.261b952ddea78p-5 '
        '0x1.ed9e46ad22158p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 '
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
        'True 0x1.f759355f72f2fp-4 0x1.f759355f72f26p-4 0x1.296fcd031c998p-4 '
        '0x1.296fcd031c998p-4 0x1.3ede3e64a7d18p-3 0x1.0452c3fe8780bp-2 0x1.7dd69e00bc3fap-1 '
        '0x1.0000000000000p+0 0x1.e000000000000p-1 0x1.0000000000000p-4 0x1.261b952ddea78p-5 '
        '0x1.ed9e46ad22158p-1 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 '
        '0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0',
    ],
}


def hexed(answer):
    """An answer as nested lists, each float as float hex; arrays, tuples and
    dataclasses (witnesses, their channels and alphabets) unpacked."""
    if isinstance(answer, (float, np.floating)):
        return float(answer).hex()
    if isinstance(answer, (np.ndarray, list, tuple)):
        return [hexed(v) for v in answer]
    if dataclasses.is_dataclass(answer):
        return [type(answer).__name__,
                *(hexed(getattr(answer, f.name)) for f in dataclasses.fields(answer))]
    return answer


class TestModelMemoOnTheBench:
    @pytest.mark.parametrize("seed", [1, 23])
    def test_repeated_passes_equal_a_fresh_set_up(self, monkeypatch, seed):
        # every pass of one set-up reads the memos the passes before it filled
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import inputs
        import workloads

        answers = []

        def recorded(call):
            def answer(*args, **kwargs):
                out = call(*args, **kwargs)
                answers.append(hexed(out))
                return out
            return answer

        for module, name in ((regions, "membership"), (regions, "trace_boundary"),
                             (regions, "eval_lossless_corner"), (regions, "eval_lossy_corner"),
                             (multifunction, "eval_inner_mf"), (multifunction, "eval_outer_mf")):
            monkeypatch.setattr(module, name, recorded(getattr(module, name)))

        def run(prep) -> list:
            answers.clear()
            assert workloads.RUN[workload](prep).failed == 0
            return list(answers)

        for workload in ("search-lossless", "trace-lossy", "multi-dense"):
            spec = inputs.make(workload, seed)
            fresh = run(workloads.BUILD[workload](spec))
            assert fresh
            prep = workloads.BUILD[workload](spec)
            for _ in range(3):
                assert run(prep) == fresh


class TestTraceBoundary:
    def test_noiseless_everything_collapses(self):
        ident_yz = np.zeros((2, 4))
        for x in range(2):
            ident_yz[x, 2 * x + x] = 1.0  # y = z = x
        m = SourceModel(uniform(X), bsc(0.0, X, XT), CondDist(X, YZ, ident_yz))
        sweep = BoundarySweep("r_s", (0.0, 0.5, 1.0), "r_eve")
        pts = trace_boundary(m, XTPROJ_F, sweep, "lossy",
                             SearchBudget(restarts=2, iters=30, seed=0))
        for p in pts:
            assert p.r_s == pytest.approx(0.0, abs=1e-9)
            assert p.r_eve == pytest.approx(0.0, abs=1e-9)
            assert p.r_w == pytest.approx(0.0, abs=1e-9)

    def test_trace_lossy_takes_about_a_round_per_accept(self, monkeypatch):
        rounds, neighbours = [], regions._AuxParam.neighbours
        monkeypatch.setattr(regions._AuxParam, "neighbours",
                            lambda self, *args: rounds.append(1) or neighbours(self, *args))
        bench_trace_lossy(1, monkeypatch)
        assert len(rounds) <= 25  # 45 when a round scored one sweep per descent

    @pytest.mark.skipif(not np.__version__.startswith("2.4."),
                        reason="recorded with numpy 2.4; other releases may differ by an ulp")
    @pytest.mark.parametrize("seed", [1, 23])
    def test_trace_lossy_points_match_the_recording(self, monkeypatch, seed):
        got = [point_hex(pt) for pt in bench_trace_lossy(seed, monkeypatch)]
        assert got == TRACE_LOSSY_RECORDED[seed]

    def test_empty_grid_rejected(self):
        with pytest.raises(RegionError):
            BoundarySweep("r_s", (), "r_eve")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, bad):
        # a NaN bound used to score NaN on every candidate of its descent and
        # come back as an infeasible (0.0, 0.7056) point
        with pytest.raises(RegionError, match="finite"):
            BoundarySweep("d", (bad, 0.1), "r_w")

    def test_unknown_mode_rejected(self, cascade_model):
        sweep = BoundarySweep("d", (0.1,), "r_w")
        with pytest.raises(RegionError, match="mode"):
            trace_boundary(cascade_model, XTPROJ_F, sweep, "lossles",
                           SearchBudget(restarts=1, iters=1), d=HAMMING_D)

    def test_distortion_sweep_needs_lossy_mode(self, cascade_model):
        sweep = BoundarySweep("d", (0.1,), "r_w")
        with pytest.raises(RegionError, match="lossy"):
            trace_boundary(cascade_model, XOR_F, sweep, "lossless",
                           SearchBudget(restarts=1, iters=1), d=HAMMING_D)

    def test_lossy_points_meet_their_bounds(self, cascade_model):
        # a per-point |Q| = 2 search returned (d, r_w) = (0.192, 0) for the
        # bounds 0.1 and 0.15 with no flag
        grid = (0.05, 0.1, 0.15)
        pts = trace_lossy(cascade_model, grid, SearchBudget(
            restarts=1, iters=30, u_size=2, v_size=1, q_size=2, seed=0))
        rate = wyner_ziv_dsbs(DSBS_P)
        for bound, pt in zip(grid, pts):
            assert pt.feasible
            assert pt.d <= bound + 1e-9
            assert rate(pt.d) - 1e-9 <= pt.r_w <= rate(bound) + 0.01

    def test_canonical_corners_alone_give_the_chord(self, cascade_model):
        # U = X~ sits at (0, H_b(p)) and constant U at (p, 0)
        grid = (0.0, 0.03, 0.1, 0.19, 0.3)
        pts = trace_lossy(cascade_model, grid, SearchBudget(restarts=0, q_size=2))
        for bound, pt in zip(grid, pts):
            assert pt.feasible
            assert pt.r_w == pytest.approx(h2(DSBS_P) * max(1 - bound / DSBS_P, 0.0), abs=1e-12)

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.floats(0.0, 0.25), min_size=1, max_size=4, unique=True),
           st.integers(0, 2**16))
    def test_points_are_time_shared_witnesses_on_a_convex_curve(self, grid, seed):
        m = binary_cascade_model()
        pts = trace_lossy(m, grid, SearchBudget(restarts=1, iters=4, u_size=2, v_size=1,
                                                q_size=2, seed=seed))
        for pt in pts:
            assert pt.feasible
            assert all(w >= 0.0 for w in pt.weights)
            assert sum(pt.weights) == pytest.approx(1.0, abs=1e-12)
            corners = [lossy_corner(m, w) for w in pt.witnesses]
            for k, v in pt.coords().items():
                mean = sum(w * c.coords()[k] for w, c in zip(pt.weights, corners))
                assert v == pytest.approx(mean, abs=1e-12)
        curve = sorted(zip(grid, (pt.r_w for pt in pts)))
        for (_, y1), (_, y2) in zip(curve, curve[1:]):
            assert y2 <= y1 + 1e-12
        for (b1, y1), (b2, y2), (b3, y3) in zip(curve, curve[1:], curve[2:]):
            assert (y2 - y1) * (b3 - b2) <= (y3 - y2) * (b2 - b1) + 1e-12

    @pytest.mark.parametrize("q_size", [1, 2])
    def test_points_are_best_over_every_evaluated_system(self, cascade_model, monkeypatch,
                                                          q_size):
        # reference: every (d, r_w) the sweep evaluated; one system may only
        # take the best point within the bound, two may also take any chord
        seen = []
        front = regions._pareto_front

        def spy(x, y, gap):
            seen.extend(zip(x, y))  # (d, r_w) of every system the sweep scanned
            return front(x, y, gap)

        monkeypatch.setattr(regions, "_pareto_front", spy)
        grid = (0.02, 0.06, 0.1, 0.15)
        pts = trace_lossy(cascade_model, grid, SearchBudget(
            restarts=1, iters=8, u_size=2, v_size=1, q_size=q_size, seed=3))
        xs, ys = np.array(seen).T
        for bound, pt in zip(grid, pts):
            assert pt.feasible
            assert pt.d <= bound + 1e-9
            best = ys[xs <= bound + 1e-9].min()
            if q_size == 1:
                assert len(pt.witnesses) == 1 and pt.weights == (1.0,)
                assert lossy_corner(cascade_model, pt.witnesses[0]).coords() == pytest.approx(
                    pt.coords(), abs=1e-12)
                assert pt.r_w == best
                continue
            left, right = xs <= bound, xs > bound
            xa, ya = xs[left][:, None], ys[left][:, None]
            chords = ya + (ys[right][None, :] - ya) * (bound - xa) / (xs[right][None, :] - xa)
            assert pt.r_w == pytest.approx(min(best, chords.min(initial=np.inf)), abs=1e-7)

    def test_pool_is_offered_the_corners_then_one_descent_at_a_time(self, cascade_model,
                                                                     monkeypatch):
        # exact (d, r_w) ties go to the first offer, so the offer order must be
        # that of running the descents one after another, not round by round
        offered, rows = [], {}
        descent, front = regions._coordinate_descent, regions._pareto_front

        def descent_spy(param, starts, score, scanned, *rest):
            chunks = []  # (owner, (d, r_w)) of each row scored this round

            def scored(points, owner, bar):
                coords, _ = regions._eval_rows(param.source(points), XTPROJ_F, "lossy",
                                               HAMMING_D)
                chunks.extend(zip(owner.tolist(), coords[:, [4, 1]].tolist()))
                return score(points, owner, bar)

            def seen(mask):
                for (k, xy), keep in zip(chunks, mask):
                    if keep:
                        rows.setdefault(k, []).append(tuple(xy))
                chunks.clear()
                scanned(mask)

            return descent(param, starts, scored, seen, *rest)

        def front_spy(x, y, gap):
            offered.extend(zip(x.tolist(), y.tolist()))
            return front(x, y, gap)

        monkeypatch.setattr(regions, "_coordinate_descent", descent_spy)
        monkeypatch.setattr(regions, "_pareto_front", front_spy)
        trace_lossy(cascade_model, (0.05, 0.12), SearchBudget(
            restarts=2, iters=10, u_size=2, v_size=1, q_size=2, seed=4))
        assert sorted(rows) == [0, 1, 2, 3]
        assert offered[3:] == [xy for k in sorted(rows) for xy in rows[k]]

    def test_two_restarts_per_grid_point_keep_their_points(self, cascade_model):
        # values of the one-descent-at-a-time trace; with two restarts per grid
        # point, descents of the same bound share each scoring round
        pts = trace_lossy(cascade_model, (0.03, 0.09, 0.15), SearchBudget(
            restarts=2, iters=30, u_size=2, v_size=1, q_size=2, seed=1))
        pinned = [
            (0.5538438732415578, 0.5538438732415576, 0.31931405525906015, 0.3193140552590599,
             0.03, (0.8293126152385094, 0.1706873847614906)),
            (0.3440987228972883, 0.34409872289728805, 0.20172948055877857, 0.2017294805587783,
             0.09, (0.6698121888031673, 0.3301878111968327)),
            (0.14168770942829514, 0.14168770942829503, 0.08306508023008541, 0.08306508023008528,
             0.15, (0.27580501891895115, 0.7241949810810488)),
        ]
        for pt, (*coords, weights) in zip(pts, pinned):
            assert pt.feasible
            assert list(pt.coords().values()) == pytest.approx(coords, abs=1e-12)
            assert pt.weights == pytest.approx(weights, abs=1e-12)

    @pytest.mark.parametrize("restarts", [0, 2])
    def test_each_witness_is_verified_once(self, cascade_model, monkeypatch, restarts):
        # the corners alone serve several grid points each; a corner is scored
        # by the evaluation that verifies witnesses, once, before the descents
        calls, corners = [], []
        evaluate, canonical = regions._eval_candidate, regions._canonical_corners

        def spy(m, aux, *rest, **kw):
            calls.append(aux)
            return evaluate(m, aux, *rest, **kw)

        monkeypatch.setattr(regions, "_eval_candidate", spy)

        def listed(*args):
            out = list(canonical(*args))
            corners.extend(aux for aux, _ in out)
            return out

        monkeypatch.setattr(regions, "_canonical_corners", listed)
        pts = trace_lossy(cascade_model, (0.0, 0.03, 0.1, 0.19, 0.3), SearchBudget(
            restarts=restarts, iters=6, u_size=2, v_size=1, q_size=2, seed=2))
        slots = {id(w) for pt in pts for w in pt.witnesses}
        assert len(slots) < sum(len(pt.witnesses) for pt in pts)
        assert [id(w) for w in calls[:3]] == [id(c) for c in corners]
        searched = [id(w) for w in calls[3:]]
        assert len(searched) == len(set(searched))
        assert set(searched) == slots - {id(c) for c in corners}
        assert slots & {id(c) for c in corners}

    def test_witness_off_its_pool_coordinates_is_rejected(self, cascade_model, monkeypatch):
        evaluate = regions._eval_candidate

        def drifted(*args, **kw):
            rates, gap = evaluate(*args, **kw)
            return replace(rates, r_w=rates.r_w + 1e-6), gap

        monkeypatch.setattr(regions, "_eval_candidate", drifted)
        with pytest.raises(RegionError, match="reproduce its pool coordinates"):
            trace_lossy(cascade_model, (0.03, 0.1), SearchBudget(
                restarts=1, iters=4, u_size=2, v_size=1, q_size=2, seed=2))

    def test_unmet_bound_is_flagged(self, cascade_model):
        # every admissible system for XOR stores at least H(X~|Y) = H_b(p)
        sweep = BoundarySweep("r_w", (0.1,), "r_s")
        (pt,) = trace_boundary(cascade_model, XOR_F, sweep, "lossless",
                               SearchBudget(restarts=1, iters=5, u_size=2, v_size=1, q_size=2))
        assert not pt.feasible
        assert pt.weights == (1.0,)
        assert pt.r_w >= h2(DSBS_P) - 1e-9
        assert eval_lossless_corner(cascade_model, pt.witnesses[0], XOR_F).coords() == \
            pytest.approx(pt.coords(), abs=1e-12)
