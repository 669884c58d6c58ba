import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfcomp.probability import (
    Alphabet,
    CondDist,
    Dist,
    InvalidDistribution,
    JointDist,
    LOG_ZERO_CUTOFF,
    OverlappingAxes,
    ProductAlphabet,
    ProbabilityError,
    TableTooLarge,
    UnknownAxis,
    _entropy_rows,
    binary_alphabet,
    binary_entropy,
    bsc,
    bsc_convolve,
    compose,
    cond_mutual_info,
    entropy,
    identity_channel,
    mixture,
    product_alphabet,
    push_function,
    uniform,
)

A = binary_alphabet("a")
B = binary_alphabet("b")
C = binary_alphabet("c")


def two_axis(table):
    return JointDist((A, B), np.array(table, dtype=float))


class TestAlphabet:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ProbabilityError):
            Alphabet("x", ("0", "0"))

    def test_rejects_empty(self):
        with pytest.raises(ProbabilityError):
            Alphabet("x", ())

    def test_product_labels_c_order(self):
        p = product_alphabet("ab", A, B)
        assert p.labels == ("0|0", "0|1", "1|0", "1|1")


class TestDistValidation:
    def test_rejects_negative(self):
        with pytest.raises(InvalidDistribution):
            Dist(A, np.array([1.2, -0.2]))

    def test_refuses_renormalization(self):
        # mass off by more than 1e-12 is an error, never silently rescaled
        with pytest.raises(InvalidDistribution):
            Dist(A, np.array([0.6, 0.5]))

    def test_rejects_nan(self):
        with pytest.raises(InvalidDistribution):
            Dist(A, np.array([np.nan, 0.5]))
        with pytest.raises(InvalidDistribution):
            JointDist((A, B), np.array([[np.nan, 0.25], [0.25, 0.25]]))
        with pytest.raises(InvalidDistribution):
            JointDist((A, B), np.full((2, 2), np.nan))

    def test_cond_rows_checked(self):
        with pytest.raises(InvalidDistribution):
            CondDist(A, B, np.array([[0.5, 0.5], [0.7, 0.2]]))

    def test_joint_cell_cap(self):
        big = Alphabet("big", tuple(str(i) for i in range(4097)))
        big2 = big.renamed("big2")
        with pytest.raises(TableTooLarge):
            JointDist((big, big2), np.zeros((4097, 4097)))

    def test_immutable_table(self):
        j = two_axis([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(ValueError):
            j.table[0, 0] = 1.0


class TestEntropy:
    def test_uniform_bit(self):
        j = two_axis([[0.25, 0.25], [0.25, 0.25]])
        assert entropy(j, "a") == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        j = two_axis([[1.0, 0.0], [0.0, 0.0]])
        assert entropy(j, ("a", "b")) == 0.0

    def test_bernoulli_006(self):
        # oracle: direct two-term summation
        expected = -(0.06 * math.log2(0.06) + 0.94 * math.log2(0.94))
        j = two_axis([[0.94, 0.0], [0.0, 0.06]])
        assert entropy(j, "a") == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.3274, abs=5e-5)

    def test_unknown_axis(self):
        j = two_axis([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(UnknownAxis):
            entropy(j, "zz")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 64), st.floats(0.0, 0.9))
    def test_stacked_rows_sum_as_numpy_sum_does(self, seed, rows, cells, zeros):
        # the method-form reduction is the same pairwise sum as np.sum's wrapper
        rng = np.random.default_rng(seed)
        table = rng.dirichlet((0.3,) * cells, size=rows)
        table[rng.random(table.shape) < zeros] = 0.0
        table[:, 0] = LOG_ZERO_CUTOFF / 2  # under the cutoff: an exact 0 term
        p = np.sort(table, axis=1)
        p = np.where(p >= LOG_ZERO_CUTOFF, p, 1.0)
        reference = -np.sum(p * np.log2(p), axis=1)
        assert _entropy_rows(table).tobytes() == reference.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 64), st.floats(0.0, 0.6))
    def test_nan_and_sub_cutoff_cells_add_an_exact_zero(self, seed, rows, cells, odd):
        # the sort-in-place form reads every cell as the np.sort / np.where form did
        rng = np.random.default_rng(seed)
        table = rng.dirichlet((0.3,) * cells, size=rows)
        draw = rng.random(table.shape)
        table[draw < odd / 2] = np.nan
        table[(odd / 2 <= draw) & (draw < odd)] = LOG_ZERO_CUTOFF * rng.random()
        kept = table.copy()
        p = np.sort(table, axis=1)
        p = np.where(p >= LOG_ZERO_CUTOFF, p, 1.0)
        reference = -(p * np.log2(p)).sum(axis=1)
        assert _entropy_rows(table.reshape(rows, 1, cells)).tobytes() == reference.tobytes()
        assert np.array_equal(table, kept, equal_nan=True)  # the marginal read is left as it was


class TestCondMutualInfo:
    def test_independent_axes(self):
        j = two_axis(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert cond_mutual_info(j, "a", "b") == pytest.approx(0.0, abs=1e-12)

    def test_self_information(self):
        j = two_axis([[0.5, 0.0], [0.0, 0.5]])
        assert cond_mutual_info(j, "a", "b") == pytest.approx(1.0, abs=1e-12)

    def test_bsc_006_uniform_input(self):
        # oracle: exhaustive 4-cell summation
        p = 0.06
        cells = {(0, 0): 0.5 * (1 - p), (0, 1): 0.5 * p,
                 (1, 0): 0.5 * p, (1, 1): 0.5 * (1 - p)}
        marg_a = {0: 0.5, 1: 0.5}
        marg_b = {0: 0.5, 1: 0.5}
        expected = sum(v * math.log2(v / (marg_a[a] * marg_b[b]))
                       for (a, b), v in cells.items())
        j = two_axis([[0.47, 0.03], [0.03, 0.47]])
        assert cond_mutual_info(j, "a", "b") == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1 - binary_entropy(0.06), abs=1e-12)

    def test_overlap_rejected(self):
        j = two_axis([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(OverlappingAxes):
            cond_mutual_info(j, "a", "a", ())
        with pytest.raises(OverlappingAxes):
            cond_mutual_info(j, "a", "b", "a")


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_zero_one(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_011(self):
        expected = -(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89))
        assert binary_entropy(0.11) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.4999, abs=5e-5)

    def test_domain(self):
        with pytest.raises(ProbabilityError):
            binary_entropy(-0.1)
        with pytest.raises(ProbabilityError):
            binary_entropy(1.1)


class TestBscConvolve:
    def test_identity_element(self):
        assert bsc_convolve(0.0, 0.3) == 0.3

    def test_absorbing(self):
        assert bsc_convolve(0.5, 0.3) == 0.5

    def test_direct(self):
        assert bsc_convolve(0.1, 0.06) == pytest.approx(0.148, abs=1e-15)


class TestCompose:
    def test_noiseless_diagonal(self):
        j = compose(uniform(A), (identity_channel(A, "b"), "a"))
        assert np.allclose(j.table, np.diag([0.5, 0.5]))

    def test_independent_stages(self):
        # constant-row channel makes the new axis independent of the root
        chan = CondDist(A, B, np.array([[0.3, 0.7], [0.3, 0.7]]))
        j = compose(Dist(A, np.array([0.2, 0.8])), (chan, "a"))
        assert np.allclose(j.table, np.outer([0.2, 0.8], [0.3, 0.7]))

    def test_bsc_hand_multiplication(self):
        # uniform source through a 0.06 crossover: P(first=0, second=1) = 0.5*0.06
        j = compose(uniform(A), (bsc(0.06, A, B), "a"))
        assert j.table[0, 1] == pytest.approx(0.03, abs=1e-15)

    def test_alphabet_mismatch(self):
        tri = Alphabet("t", ("0", "1", "2"))
        chan = CondDist(tri, B, np.array([[1, 0], [1, 0], [1, 0]], dtype=float))
        with pytest.raises(ProbabilityError):
            compose(uniform(A), (chan, "a"))

    def test_split_product_axis(self):
        yz = product_alphabet("bc", B, C)
        rows = np.array([[0.4, 0.1, 0.3, 0.2], [0.25, 0.25, 0.25, 0.25]])
        j = compose(uniform(A), (CondDist(A, yz, rows), "a")).split("bc")
        assert j.names == ("a", "b", "c")
        assert j.table[0, 0, 1] == pytest.approx(0.05, abs=1e-15)


class TestPushFunction:
    def test_xor_axis(self):
        j = compose(uniform(A), (bsc(0.1, A, B), "a"))
        f = binary_alphabet("f")
        xor = np.array([[0, 1], [1, 0]])
        jf = push_function(j, ("a", "b"), xor, f)
        assert jf.names == ("a", "b", "f")
        # f == 1 exactly on the off-diagonal
        assert jf.marginal("f").table[1] == pytest.approx(0.1, abs=1e-15)

    def test_argument_order_respected(self):
        j = compose(Dist(A, np.array([0.2, 0.8])), (bsc(0.3, A, B), "a"))
        f = binary_alphabet("f")
        table = np.array([[0, 0], [1, 0]])  # f = 1 iff (first arg = 1, second = 0)
        swapped = push_function(j, ("b", "a"), table.T, f)
        direct = push_function(j, ("a", "b"), table, f)
        assert np.allclose(swapped.table, direct.table)


class TestMixture:
    def test_two_component_stack(self):
        q = binary_alphabet("q")
        j0 = two_axis([[0.5, 0.0], [0.0, 0.5]])
        j1 = two_axis([[0.25, 0.25], [0.25, 0.25]])
        m = mixture(Dist(q, np.array([0.75, 0.25])), [j0, j1])
        assert m.names == ("q", "a", "b")
        assert m.table[0, 0, 0] == pytest.approx(0.375, abs=1e-15)
        assert m.table[1, 1, 0] == pytest.approx(0.0625, abs=1e-15)


def random_joint(rng, sizes):
    axes = tuple(Alphabet(f"ax{i}", tuple(str(k) for k in range(s)))
                 for i, s in enumerate(sizes))
    table = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
    return JointDist(axes, table)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(2, 4), min_size=2, max_size=3))
def test_conditioning_reduces_entropy(seed, sizes):
    j = random_joint(np.random.default_rng(seed), sizes)
    assert entropy(j, ("ax0", "ax1")) - entropy(j, "ax1") <= entropy(j, "ax0") + 1e-9
    assert entropy(j, "ax0") >= -1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.integers(2, 4), min_size=3, max_size=3))
def test_cmi_nonnegative(seed, sizes):
    j = random_joint(np.random.default_rng(seed), sizes)
    assert cond_mutual_info(j, "ax0", "ax1", "ax2") >= -1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 4), st.integers(2, 4))
def test_data_processing_on_chain(seed, na, nb, nc):
    rng = np.random.default_rng(seed)
    a = Alphabet("a", tuple(str(i) for i in range(na)))
    b = Alphabet("b", tuple(str(i) for i in range(nb)))
    c = Alphabet("c", tuple(str(i) for i in range(nc)))
    root = Dist(a, rng.dirichlet(np.ones(na)))
    ab = CondDist(a, b, np.stack([rng.dirichlet(np.ones(nb)) for _ in range(na)]))
    bc = CondDist(b, c, np.stack([rng.dirichlet(np.ones(nc)) for _ in range(nb)]))
    j = compose(root, (ab, "a"), (bc, "b"))
    assert cond_mutual_info(j, "a", "c") <= cond_mutual_info(j, "a", "b") + 1e-9
    # chain built by construction
    assert cond_mutual_info(j, "a", "c", "b") == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_axis_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    j = random_joint(rng, [3, 2, 4])
    perm = list(rng.permutation(3))
    jp = j.reorder([j.names[i] for i in perm])
    for axes in [("ax0",), ("ax0", "ax2"), ("ax0", "ax1", "ax2")]:
        assert entropy(jp, axes) == pytest.approx(entropy(j, axes), abs=1e-12)
    assert cond_mutual_info(jp, "ax0", "ax1", "ax2") == pytest.approx(
        cond_mutual_info(j, "ax0", "ax1", "ax2"), abs=1e-12)


@st.composite
def validated_joints(draw):
    """Random public joints over up to 5 axes of sizes 1-3, some cells zero;
    the first axis is sometimes a product alphabet, so `split` applies."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    axes = [Alphabet(f"ax{i}", tuple(str(k) for k in range(s))) for i, s in enumerate(sizes)]
    if draw(st.booleans()):
        parts = [Alphabet(f"part{k}", tuple(str(i) for i in range(draw(st.integers(1, 3)))))
                 for k in range(2)]
        axes[0] = product_alphabet("ax0", *parts)
    shape = tuple(a.size for a in axes)
    table = rng.random(shape) * (rng.random(shape) < 0.8)
    if table.sum() == 0.0:
        table.flat[0] = 1.0
    return JointDist(tuple(axes), table / table.sum())


def _check_trusted(derived):
    public = JointDist(derived.axes, derived.table)  # validates
    assert np.array_equal(public.table, derived.table)
    assert not derived.table.flags.writeable
    assert derived.names == public.names
    for n in derived.names:
        assert derived.axis(n) == public.axis(n)
    first = entropy(derived, derived.names)
    assert entropy(derived, tuple(reversed(derived.names))) == first  # any axis order
    assert entropy(public, derived.names) == first


@settings(max_examples=80, deadline=None)
@given(validated_joints(), st.data())
def test_derived_joints_pass_public_validation(j, data):
    n = len(j.names)
    keep = data.draw(st.lists(st.sampled_from(j.names), min_size=1, max_size=n, unique=True))
    _check_trusted(j.marginal(keep))
    perm = data.draw(st.permutations(j.names))
    _check_trusted(j.reorder(perm))
    _check_trusted(j.reorder(perm).marginal(keep))
    if isinstance(j.axes[0], ProductAlphabet):
        _check_trusted(j.split("ax0"))
    # entropies of the parent: read twice, and on a fresh public copy
    first = entropy(j, keep)
    assert entropy(j, keep) == first
    assert entropy(JointDist(j.axes, j.table), keep) == first


def test_split_rejects_colliding_part_names():
    prod = product_alphabet("ab", A, C)
    j = JointDist((prod, C.renamed("c")), np.full((4, 2), 0.125))
    with pytest.raises(ProbabilityError):
        j.split("ab")
