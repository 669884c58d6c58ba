import contextlib
import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import XOR_F, random_binary_model
from sfcomp import multifunction, regions, sources
from sfcomp.models import DistortionSpec, FunctionSpec, MultiArm, MultiModel, build_joint
from sfcomp.multifunction import MultiAuxSystem, eval_inner_mf, eval_outer_mf
from sfcomp.probability import (
    CondDist,
    Dist,
    TABLE_CELL_CAP,
    InvalidDistribution,
    TableTooLarge,
    _check_cells,
    _entropy_rows,
    identity_channel,
    product_alphabet,
    uniform,
)
from sfcomp.regions import (
    AuxPair,
    AuxSystem,
    _alphabet_of_size,
    eval_lossless_corner,
    eval_lossy_corner,
    identity_aux,
    optimal_g,
    singleton_alphabet,
)
from sfcomp.sources import _chain, _ProductForm

from test_multifunction import _fields, _recording, random_multi_system
from test_regions import random_model

TESTS = Path(__file__).resolve().parent


def recipe_of(src, names):
    """The (parent, its axis summed) a set is read from: a set without q
    keeping some u or v is the q-sum of that set with q; a one-arm set
    keeping u but not v, xt or x is the xt-sum of that set with xt; None for
    every other set, which is read. The parent is in canonical (`axes`) order."""
    key, q = set(names), src.q
    arm = [arm for arm in src.arm_names if key - {q} <= set(arm)]  # the one arm it keeps
    if q not in key and key & {n for xt, u, v, y, z in src.arm_names for n in (u, v)}:
        add = q
    elif arm and arm[0][1] in key and not key & {arm[0][0], arm[0][2], src.x}:
        add = arm[0][0]
    else:
        return None
    parent = tuple(sorted(key | {add}, key=src._pos.get))
    return parent, 1 + parent.index(add)


def reference_rows(src, names):
    """`_ProductForm.rows` as built before layouts were cached: the cell check,
    the labels and the operands rebuilt on every call, in einsum's sublist
    form, with every chain product computed afresh, in canonical (`axes`)
    order and then transposed to `names`; a recipe set (`recipe_of`) is its
    parent's uncached read, summed."""
    _check_cells([src.axes[src._pos[n]] for n in names], "marginal", len(src._p_q))
    canon = tuple(sorted(names, key=src._pos.get))
    perm = (0,) + tuple(1 + canon.index(n) for n in names)
    recipe = recipe_of(src, canon)
    if recipe is not None:
        return np.add.reduce(reference_rows(src, recipe[0]), axis=recipe[1]).transpose(perm)
    # einsum labels: output axes first, then the batch, q and x
    label = {n: i for i, n in enumerate(canon)}
    b, q, x = len(canon), label.get(src.q, len(canon) + 1), label.get(src.x, len(canon) + 2)
    operands = [src._p_q, [b, q], src._p_x, [x]]
    for k, ((local, p_xt), (p_u, p_v)) in enumerate(zip(src._arms, src._links)):
        # an arm's axes summed out whole, or the tail of either branch, sum to 1
        keep = [i for i, alph in enumerate(local) if alph.name in label]
        chain, yz = tuple(i for i in keep if i < 3), tuple(i for i in keep if i >= 3)
        if chain:
            operands += [_chain(chain, p_xt, p_u, p_v), [b, q, x] + [label[local[i].name]
                                                                   for i in chain]]
        if yz:
            operands += [src._parts[k, yz], [x] + [label[local[i].name] for i in yz]]
    return np.einsum(*operands, [b] + list(range(len(canon)))).transpose(perm)


def stochastic(rng, shape):
    return rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])


def random_form(rng, sizes, q_size, x_size, batch):
    """A J-arm source of `batch` random systems; sizes[k] is arm k's
    (|xt|, |u|, |v|, |y|, |z|)."""
    x = _alphabet_of_size("x", x_size)
    arms, names, links = [], [], []
    for k, (nxt, nu, nv, ny, nz) in enumerate(sizes, start=1):
        xt, u, v, y, z = (_alphabet_of_size(f"{a}{k}", n) for a, n in
                          zip(("xt", "u", "v", "y", "z"), (nxt, nu, nv, ny, nz)))
        yz = product_alphabet(f"yz{k}", y, z)
        arms.append((CondDist(x, xt, stochastic(rng, (x_size, nxt))), u, v,
                     CondDist(x, yz, stochastic(rng, (x_size, ny * nz)))))
        names.append((xt.name, u.name, v.name, y.name, z.name))
        links.append((stochastic(rng, (batch, q_size, nxt, nu)),
                      stochastic(rng, (batch, q_size, nu, nv))))
    form = _ProductForm(Dist(x, stochastic(rng, (x_size,))), _alphabet_of_size("q", q_size), arms,
                        names, {})
    return form.restacked(stochastic(rng, (batch, q_size)), links)


class TestLayouts:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 3), st.integers(1, 5), st.data())
    def test_rows_equal_the_uncached_construction(self, seed, j, batch, data):
        rng = np.random.default_rng(seed)
        sizes = [tuple(int(n) for n in rng.integers(1, 4, size=5)) for _ in range(j)]
        src = random_form(rng, sizes, int(rng.integers(1, 3)), int(rng.integers(1, 4)), batch)
        names = [a.name for a in src.axes]
        for _ in range(4):
            order = data.draw(st.permutations(names))
            pick = tuple(order[:data.draw(st.integers(1, min(6, len(names))))])
            want = reference_rows(src, pick)
            for _ in range(2):  # planning the layout, then reading it cached
                got = src.rows(pick)
                assert got.shape == want.shape and np.array_equal(got, want)  # bit for bit

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 3), st.integers(1, 2), st.integers(1, 4),
           st.data())
    def test_every_recipe_set_is_its_parents_read_summed(self, seed, j, q_size, batch, data):
        rng = np.random.default_rng(seed)
        sizes = [tuple(int(n) for n in rng.integers(1, 4, size=5)) for _ in range(j)]
        src = random_form(rng, sizes, q_size, int(rng.integers(1, 4)), batch)
        names = [a.name for a in src.axes]
        for _ in range(8):  # sets keeping some u or v, most of them recipe sets
            arm = data.draw(st.sampled_from(src.arm_names))
            pick = data.draw(st.lists(st.sampled_from(names), max_size=4, unique=True))
            keep = arm[data.draw(st.sampled_from([1, 2]))]
            pick = tuple(data.draw(st.permutations(pick + [keep] * (keep not in pick))))
            recipe = recipe_of(src, pick)
            canon = tuple(sorted(pick, key=src._pos.get))
            assert src._plan(pick)[3][:2] == (canon, recipe)
            if recipe is None:
                continue
            # each read on a source of its own, so no table is kept from another
            got = src.restacked(src._p_q, src._links).rows(pick)
            parent = src.restacked(src._p_q, src._links).rows(recipe[0])
            want = np.add.reduce(parent, axis=recipe[1]).transpose(
                (0,) + tuple(1 + canon.index(n) for n in pick))
            assert got.shape == want.shape and np.array_equal(got, want)  # bit for bit

    def test_a_layout_cached_at_one_system_still_caps_a_batch(self):
        # two arms of 64 local cells: each arm factor fits 2049 systems, but
        # their joint marginal over every axis needs 2 * 64^2 cells per system
        rng = np.random.default_rng(3)
        one = random_form(rng, [(4, 4, 4, 1, 1)] * 2, 1, 2, 1)
        names = tuple(a.name for a in one.axes)
        assert one.rows(names).shape == (1,) + tuple(a.size for a in one.axes)
        layout = one._plans[names]  # planned at B = 1
        many = one.restacked(np.ones((2049, 1)), [(np.repeat(p_u, 2049, axis=0),
                                                  np.repeat(p_v, 2049, axis=0))
                                                 for p_u, p_v in one._links])
        tracemalloc.start()
        try:
            with pytest.raises(TableTooLarge, match="marginal"):
                many.rows(names)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert many._plans is one._plans and many._plans[names] is layout  # read, not replanned
        assert len(many._plans) == 1
        assert peak < 2**20  # the 128 MiB marginal, and its chain products, never allocated
        assert all(kept[0] >= 3 for _, kept in many._parts)


def _counting(module, name):
    """Patch module.name to count its calls; returns the patch and the count."""
    calls, inner = [], getattr(module, name)
    return mock.patch.object(module, name, lambda *a: calls.append(1) or inner(*a)), calls


@contextlib.contextmanager
def _computing():
    """Every table a `_ProductForm` computes while open, as (source, canonical
    names, recipe): a read when the recipe is None, else its parent summed."""
    computed, read = [], sources._ProductForm._read

    def logged(self, names, recipe, *layout):
        computed.append((self, names, recipe))
        return read(self, names, recipe, *layout)

    with mock.patch.object(sources._ProductForm, "_read", logged):
        yield computed


class TestWideMarginals:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**16), st.integers(2, 3), st.integers(1, 2), st.integers(1, 3),
           st.sampled_from([1, 3]), st.data())
    def test_arm_by_arm_reads_are_the_einsum_bit_for_bit(self, seed, j, q_size, x_size, batch,
                                                         data):
        rng = np.random.default_rng(seed)
        sizes = [tuple(int(n) for n in rng.integers(1, 4, size=5)) for _ in range(j)]
        src = random_form(rng, sizes, q_size, x_size, batch)
        size = {a.name: a.size for a in src.axes}
        for read in range(4):
            picks = [data.draw(st.lists(st.sampled_from(arm), min_size=1, unique=True))
                     for arm in src.arm_names[:2]]
            picks += [data.draw(st.lists(st.sampled_from(arm), unique=True))
                      for arm in src.arm_names[2:]]
            if read:  # the first read sums both q and x
                picks.append([n for n in (src.q, src.x) if data.draw(st.booleans())])
            names = tuple(data.draw(st.permutations([n for pick in picks for n in pick])))
            patch, wide = _counting(sources, "_arm_by_arm")
            with mock.patch.object(sources, "WIDE_CELLS", 2), patch:  # no table kept yet
                got = src.restacked(src._p_q, src._links).rows(names)
            # a 1-cell marginal stays on the einsum, whose one-cell loop sums in another
            # order; a set of two arms or more without q is read as that set with q
            read = names if recipe_of(src, names) is None else recipe_of(src, names)[0]
            assert len(wide) == (math.prod(size[n] for n in read) > 1)
            want = reference_rows(src, names)
            assert got.shape == want.shape and np.array_equal(got, want)  # bit for bit

    def test_a_one_cell_marginal_stays_on_the_einsum(self):
        # |Q| = 1, so (u1, y2) is one cell, and so is (q, u1, y2), its parent
        src = random_form(np.random.default_rng(5), [(2, 1, 2, 1, 2)] * 2, 1, 3, 3)
        names = ("u1", "y2")
        assert recipe_of(src, names) == (("q", "u1", "y2"), 1)
        patch, wide = _counting(sources, "_arm_by_arm")
        with mock.patch.object(sources, "WIDE_CELLS", 1), patch:
            got = src.rows(names)
        assert not wide and np.array_equal(got, reference_rows(src, names))

    def test_a_product_past_the_cap_reads_through_the_einsum(self):
        # 64 x 64 cells of two arms' y, but a (q, x, cells) product of 2^25
        rng = np.random.default_rng(7)
        src = random_form(rng, [(1, 1, 1, 64, 1)] * 2, 1, 2**13, 1)
        names = ("y1", "y2")
        assert 2**13 * 64 * 64 > TABLE_CELL_CAP >= 64 * 64 >= sources.WIDE_CELLS
        patch, wide = _counting(sources, "_arm_by_arm")
        tracemalloc.start()
        try:
            with patch:
                got = src.rows(names)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not wide and peak < 2**20  # the 256 MiB product never allocated
        assert np.array_equal(got, reference_rows(src, names))


def _old_cmi(h, a, b, c):
    """I(A;B|C) as `cmis` reads it, H(A,C) + H(B,C) - H(A,B,C) - H(C), of
    the entropies `h` gives."""
    return h(a + c) + h(b + c) - h(a + b + c) - (h(c) if c else 0.0)


def _triples(data, names, n):
    """n random (A, B, C) of disjoint axis sets, A and B nonempty."""
    out = []
    for _ in range(n):
        order = data.draw(st.permutations(names))
        i = data.draw(st.integers(1, len(order) - 1))
        k = data.draw(st.integers(i + 1, len(order)))
        c = data.draw(st.integers(k, len(order)))
        out.append((tuple(order[:i]), tuple(order[i:k]), tuple(order[k:c])))
    return tuple(out)


class TestPlannedReads:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 3), st.integers(1, 2), st.integers(1, 3),
           st.data())
    def test_cmis_are_the_old_arithmetic(self, seed, j, q_size, batch, data):
        rng = np.random.default_rng(seed)
        sizes = [tuple(int(n) for n in rng.integers(1, 3, size=5)) for _ in range(j)]
        src = random_form(rng, sizes, q_size, int(rng.integers(1, 4)), batch)
        triples = _triples(data, [a.name for a in src.axes], 4)
        triples += triples[:1]  # a repeated CMI reads its entropies once

        unit = src.restacked(np.ones((1, 1)), src._links)  # one system of p(q) = (1.0,)

        def h(names):  # computed afresh; a model-only entropy is the unit weight's
            model = frozenset(names) <= src._model_axes
            return _entropy_rows(reference_rows(unit if model else src,
                                                tuple(sorted(names, key=src._pos.get))))

        got = src.cmis(triples)
        assert len(got) == len(triples)
        for value, (a, b, c) in zip(got, triples):
            want = _old_cmi(h, a, b, c)
            assert np.broadcast_to(value, want.shape).tobytes() == want.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 2), st.data())
    def test_dense_cmis_are_the_old_arithmetic(self, seed, q_size, data):
        mm, a, _ = random_multi_system(np.random.default_rng(seed), [(2, 2)], q_size)
        src = multifunction._dense(mm, multifunction.build_multi_joint(mm, a))
        triples = _triples(data, [alph.name for alph in src.axes], 4)

        def h(names):
            return _entropy_rows(src.joint.marginal(names).table[None])

        for value, (a, b, c) in zip(src.cmis(triples), triples):
            assert value.tobytes() == _old_cmi(h, a, b, c).tobytes()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 2),
           st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=3, max_size=3))
    def test_each_distinct_entropy_is_read_once(self, seed, j, q_size, sizes):
        mm, a, _ = random_multi_system(np.random.default_rng(seed), sizes[:j], q_size)
        src = multifunction._source(mm, a)
        einsums, wide = _counting(np, "einsum"), _counting(sources, "_arm_by_arm")
        with _recording() as reads, _computing() as computed, einsums[0], wide[0]:
            regions._multi_rates(src)
            multifunction.multi_chain_report(mm, src)
        sets = {key for plan in src._plans.values() if len(plan) == 2 for key, _, _ in plan[0]}
        model = {key for key in sets if key <= src._model_axes}
        # each model-only set once per model, on a restack of one system of unit weight
        unit = [(who, batch, p_q, frozenset(names)) for who, batch, p_q, names in reads
                if who is not src]
        assert len(unit) == len(model) and {key for *_, key in unit} == model
        assert all(who._model_h is mm._h and batch == 1 and np.array_equal(p_q, [[1.0]])
                   for who, batch, p_q, _ in unit)
        # every other set, and each arm's (xt, x, y, z) model marginal, which the
        # chain report compares with the model's, computed once on the source
        # itself, by einsum or as one sum of its parent; a set computed besides
        # them is some recipe's parent
        own = [(frozenset(names), recipe) for who, names, recipe in computed if who is src]
        keys = [key for key, _ in own]
        parents = {frozenset(recipe[0]) for _, recipe in own if recipe is not None}
        marginals = {frozenset((xt, src.x, y, z)) for xt, _, _, y, z in src.arm_names}
        assert len(keys) == len(set(keys)) and set(keys) >= (sets - model) | marginals
        assert parents <= set(keys) and set(keys) - (sets - model) - marginals <= parents
        # one einsum per read (model-only reads included), and one per arm's model
        # joint, which the chain report builds once (`build_joint`)
        assert len(einsums[1]) + len(wide[1]) == \
            sum(recipe is None for *_, recipe in computed) + mm.j


class TestTemplateSources:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([(4, 3, 2), (2, 2, 2), (3, 1, 1)]),
           st.integers(1, 6))
    def test_a_restacked_source_equals_a_fresh_one(self, seed, sizes, rows):
        rng = np.random.default_rng(seed)
        m = random_binary_model(rng)
        param = regions._AuxParam(m, *sizes)
        points = np.stack([param.random(int(s)) for s in rng.integers(0, 2**31, rows)])
        src = param.source(points)
        p_q, p_u, p_v = param.unpack(points)
        fresh = _ProductForm(m.p_x, param.q_alpha, ((m.p_xt_given_x, param.u_alpha,
                                                    param.v_alpha, m.p_yz_given_x),),
                             [("xtilde", "u", "v", "y", "z")], m._h)
        fresh = fresh.restacked(p_q, ((p_u, p_v),))
        # every weight reads the model's memo
        assert src._model_h is fresh._model_h is m._h
        for names in [("q", "u", "xtilde", "y"), ("u", "xtilde", "y"), ("q", "v", "u", "z"),
                      ("x", "z"), ("xtilde", "y"), ("v", "x", "q"), ("y",)]:
            assert np.array_equal(src.rows(names), fresh.rows(names))
            assert np.array_equal(src.entropy(names), fresh.entropy(names))

    def test_sources_of_one_template_share_only_the_model(self, cascade_model):
        param = regions._AuxParam(cascade_model, 3, 2, 2)
        first = param.source(np.stack([param.random(1), param.random(2)]))
        second = param.source(param.random(3)[None])
        first.entropy(("q", "u", "xtilde", "y"))
        first.entropy(("x", "z"))  # model axes alone
        assert first._h and not second._h and first._h is not second._h
        assert first._parts is not second._parts
        chains = {key for key in first._parts if key[1][0] < 3}
        assert chains and not chains & set(second._parts)
        # a |Q| = 2 search keeps its model-only entropies in the model's memo,
        # read at unit weight, which a |Q| = 1 search then reads as they are
        assert first._model_h is second._model_h is cascade_model._h
        assert list(cascade_model._h) == [frozenset(("x", "z"))]
        unit = regions._AuxParam(cascade_model, 3, 2, 1)
        one = unit.source(unit.random(4)[None])
        assert one._model_h is cascade_model._h
        assert one.entropy(("x", "z")) is cascade_model._h[frozenset(("x", "z"))]
        assert set(param._template._parts) == {(0, (3, 4)), (0, (3,)), (0, (4,))}
        assert param._template._h == {}


class TestTrustedArms:
    def test_renamed_arms_build_no_validated_channel(self, monkeypatch):
        mm, a, g_list = random_multi_system(np.random.default_rng(5), [(2, 2), (3, 1)], q_size=2)
        inner = eval_inner_mf(mm, a, "lossy", g_list)
        outer = eval_outer_mf(mm, a, "lossy", g_list)

        def refused(self):
            raise AssertionError("a channel was validated again")

        monkeypatch.setattr(CondDist, "__post_init__", refused)
        monkeypatch.setattr(AuxPair, "__post_init__", refused)
        assert eval_inner_mf(mm, a, "lossy", g_list) == inner
        assert eval_outer_mf(mm, a, "lossy", g_list) == outer

    def test_a_non_stochastic_row_still_fails_at_construction(self):
        mm, a, _ = random_multi_system(np.random.default_rng(6), [(2, 2), (2, 1)])
        pair = a.arms[1][0]
        bad = pair.p_u_given_xt.rows * np.array([[1.0], [1.1]])
        with pytest.raises(InvalidDistribution):
            MultiAuxSystem(a.p_q, (a.arms[0], (AuxPair(
                CondDist(pair.p_u_given_xt.input, pair.u_alphabet, bad), pair.p_v_given_u),)))
        arm = mm.arms[1]
        with pytest.raises(InvalidDistribution):
            MultiModel(mm.p_x, (mm.arms[0], MultiArm(
                CondDist(arm.p_xt_given_x.input, arm.p_xt_given_x.output,
                         arm.p_xt_given_x.rows * np.array([[1.0], [0.9]])),
                arm.p_yz_given_x, XOR_F, arm.d)))


def model_subsets(src) -> list[tuple[str, ...]]:
    """Every nonempty set of a source's model axes, in the order `entropy` reads it."""
    axes = sorted(src._model_axes, key=src._pos.get)
    return [c for n in range(1, len(axes) + 1) for c in itertools.combinations(axes, n)]


def entropies(src, names) -> np.ndarray:
    """H(names) of each system, computed afresh: `_entropy_rows` in chunks,
    each row its own sort and sum, so a large batch needs no large temporary."""
    table = src.rows(names)
    return np.concatenate([_entropy_rows(table[at:at + 4096]) for at in range(0, len(table), 4096)])


def random_one_arm(rng, n, u_size, v_size, p_q=None):
    """A model with |X| = |X~| = |Y| = n, a binary function on (X~, Y), and a
    random system of those sizes, of weight p(q) (unit when None)."""
    m = random_model(rng, n, n, n)
    f = FunctionSpec(m.xt_alphabet, m.y_alphabet, _alphabet_of_size("f", 2),
                     rng.integers(0, 2, size=(n, n)))
    u, v = _alphabet_of_size("u", u_size), _alphabet_of_size("v", v_size)
    p_q = uniform(singleton_alphabet("q")) if p_q is None else p_q
    pairs = tuple(AuxPair(CondDist(m.xt_alphabet, u, rng.dirichlet((1.0,) * u_size, size=n)),
                          CondDist(u, v, rng.dirichlet((1.0,) * v_size, size=u_size)))
                  for _ in range(p_q.alphabet.size))
    return m, f, AuxSystem(p_q, pairs)


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestModelMemo:
    """The model-only entropies a model memoizes are those of any system of
    p(q) = (1.0,), in any batch, bit for bit; no other weight writes them."""

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3]), st.integers(2, 3), st.integers(2, 3))
    def test_unit_weight_batches_read_the_one_system_entropies(self, seed, n, u_size, v_size):
        # |U|, |V| >= 2 keeps a search batch's largest model-only table under 4.2M cells
        rng = np.random.default_rng(seed)
        m, _, _ = random_one_arm(rng, n, u_size, v_size)
        param = regions._AuxParam(m, u_size, v_size, 1)
        subsets, ref = model_subsets(param._template), None
        for b in (1, 2, 7, param.batch):
            cold = regions._AuxParam(replace(m), u_size, v_size, 1)
            src = cold.source(rng.random((b, param.size)) + 0.01)  # b different systems
            got = {names: entropies(src, names) for names in subsets}
            ref = ref or {names: h[0] for names, h in got.items()}
            for names, h in got.items():
                assert np.array_equal(h, np.full(b, ref[names]))
            if b < param.batch:  # through the model's memo, which this read fills
                for names in subsets:
                    assert np.array_equal(src.entropy(names), ref[names][None])
                assert set(cold.m._h) == {frozenset(names) for names in subsets}

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3),
           st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=3, max_size=3))
    def test_multi_model_reads_do_not_depend_on_the_batch(self, seed, j, sizes):
        # no search stacks J-arm systems, so a J-arm source holds one system;
        # 2 and 7 rows check that its model-only reads do not depend on B
        mm, a, _ = random_multi_system(np.random.default_rng(seed), sizes[:j])
        one = multifunction._source(mm, a)
        assert one._model_h is mm._h
        subsets = model_subsets(one)
        ref = {names: entropies(one, names)[0] for names in subsets}
        for b in (2, 7):
            rng = np.random.default_rng(seed + b)
            links = [(rng.dirichlet((1.0,) * p_u.shape[-1], size=(b, 1, p_u.shape[2])),
                      rng.dirichlet((1.0,) * p_v.shape[-1], size=(b, 1, p_v.shape[2])))
                     for p_u, p_v in one._links]
            src = one.restacked(np.ones((b, 1)), links)
            assert src._model_h is mm._h
            for names in subsets:
                assert np.array_equal(entropies(src, names), np.full(b, ref[names]))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3]), st.integers(1, 3), st.integers(1, 3),
           st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3))
    def test_a_warm_model_memo_leaves_every_tuple_bit_identical(self, seed, n, u_size, v_size,
                                                                 arm_sizes):
        rng = np.random.default_rng(seed)
        m, f, aux = random_one_arm(rng, n, u_size, v_size)
        d = DistortionSpec.hamming(f.output)
        # warm the memo on a search batch of other systems
        param = regions._AuxParam(m, u_size, v_size, 1)
        regions._multi_rates(param.source(rng.random((7, param.size)) + 0.01))
        assert m._h
        u = identity_channel(m.xt_alphabet, "u")
        v = CondDist(u.output, _alphabet_of_size("v", v_size),
                     rng.dirichlet((1.0,) * v_size, size=n))
        for system in (identity_aux(m), AuxSystem(aux.p_q, (AuxPair(u, v),))):  # admissible
            assert bits(eval_lossless_corner(m, system, f).coords().values()) == \
                bits(eval_lossless_corner(replace(m), system, f).coords().values())
        g = optimal_g(m, aux, f, d)
        assert bits(eval_lossy_corner(m, aux, f, g, d).coords().values()) == \
            bits(eval_lossy_corner(replace(m), aux, f, g, d).coords().values())
        mm, a, g_list = random_multi_system(rng, arm_sizes)
        other = random_multi_system(rng, arm_sizes)[1]
        eval_inner_mf(mm, other, "lossy", g_list)  # warms the multi model's memo
        assert mm._h
        assert bits(_fields(eval_inner_mf(mm, a, "lossy", g_list))) == \
            bits(_fields(eval_inner_mf(replace(mm), a, "lossy", g_list)))
        (warm, warm_report), (cold, cold_report) = (eval_outer_mf(model, a, "lossy", g_list)
                                                    for model in (mm, replace(mm)))
        assert bits(_fields(warm)) == bits(_fields(cold))
        assert bits(c.value for c in warm_report) == bits(c.value for c in cold_report)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([(2, 2, 2), (3, 1, 2), (2, 2, 1), (3, 2, 1)]),
           st.integers(2, 6), st.data())
    def test_a_systems_rates_do_not_depend_on_its_batch(self, seed, sizes, rows, data):
        rng = np.random.default_rng(seed)
        m = random_binary_model(rng)
        param = regions._AuxParam(m, *sizes)
        p_q, p_u, p_v = param.unpack(
            np.stack([param.random(int(s)) for s in rng.integers(0, 2**31, rows)]))
        if sizes[2] == 1:  # some weights within MASS_TOL of 1 but not 1.0
            p_q = np.where(rng.random((rows, 1)) < 0.5, 1.0 - 1e-13, p_q)

        def rates(model, at, first=None):
            """The `_multi_rates` rows of systems `at` on `model`, after a
            batch of the search of sizes `first` was read there."""
            if first is not None:
                other = regions._AuxParam(model, *first)
                regions._multi_rates(other.source(rng.random((3, other.size)) + 0.01))
            template = regions._AuxParam(model, *sizes)._template
            got, offset = regions._multi_rates(template.restacked(p_q[at], ((p_u[at], p_v[at]),)))
            return [bits([*row, off]) for row, off in zip(got, offset)]

        alone = [rates(replace(m), [i])[0] for i in range(rows)]
        order = data.draw(st.permutations(range(rows)))
        assert rates(replace(m), order) == [alone[i] for i in order]
        first = data.draw(st.sampled_from([(2, 2, 1), (3, 1, 2), (2, 1, 2)]))
        assert rates(replace(m), order, first) == [alone[i] for i in order]
        i = data.draw(st.integers(0, rows - 1))
        assert rates(replace(m), [i], first) == [alone[i]]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3]), st.integers(1, 3), st.integers(1, 3),
           st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3))
    def test_other_weights_write_what_a_unit_weight_reads(self, seed, n, u_size, v_size,
                                                          arm_sizes):
        rng = np.random.default_rng(seed)
        q1, q2 = singleton_alphabet("q"), _alphabet_of_size("q", 2)
        # within MASS_TOL of 1 but not 1.0: its marginals differ by rounding
        near = Dist(q1, np.array([1.0 - 1e-13]))
        m, f, two = random_one_arm(rng, n, u_size, v_size, Dist(q2, rng.dirichlet((1.0, 1.0))))
        d = DistortionSpec.hamming(f.output)
        ident = identity_aux(m).per_q
        for system in (AuxSystem(two.p_q, ident * 2), AuxSystem(near, ident)):
            eval_lossless_corner(m, system, f)
        for system in (two, AuxSystem(near, two.per_q[:1])):
            eval_lossy_corner(m, system, f, optimal_g(m, system, f, d), d)
        param = regions._AuxParam(m, u_size, v_size, 2)
        regions._multi_rates(param.source(rng.random((7, param.size)) + 0.01))
        mm, a, g_list = random_multi_system(rng, arm_sizes, q_size=2)
        one = random_multi_system(rng, arm_sizes)[1]
        for system in (a, MultiAuxSystem(near, one.arms)):
            eval_inner_mf(mm, system, "lossy", g_list)
            eval_outer_mf(mm, system, "lossy", g_list)
        # each entry as a unit-weight system on a cold model reads it
        for model, src in ((m, regions._source(replace(m), identity_aux(m))),
                           (mm, multifunction._source(replace(mm), one))):
            assert model._h
            for key, h in model._h.items():
                assert h.shape == (1,) and bits(h) == bits(src.entropy(tuple(key)))


def corner_bits(corners) -> list[list[str]]:
    """Each canonical corner's tables, then its rates and residual, as float hex."""
    return [bits([*aux.p_q.probs, *(v for pair in aux.per_q for v in (
        *pair.p_u_given_xt.rows.ravel(), *pair.p_v_given_u.rows.ravel())),
        *rates.coords().values(), gap]) for aux, (rates, gap) in corners]


def assert_bare(model) -> None:
    """Every structure a model keeps holds the model's p(y,z|x) sums alone:
    no system, no system's chain products and no entropies of its own."""
    forms = [form for key, form in model._memo.items() if key[0] == "structure"]
    assert forms
    for form in forms:
        assert all(kept[0] >= 3 for _, kept in form._parts)
        assert form._h == {} and form._model_h is model._h and not hasattr(form, "_p_q")


class TestModelObjects:
    """What a model memoizes besides its entropies (`models._memoized`) is what
    a cold model builds, bit for bit, and each entry serves its own key alone."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3]), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 2))
    def test_one_arm_corners_and_sources_are_those_of_a_cold_model(self, seed, n, u_size, v_size,
                                                                   q_size):
        rng = np.random.default_rng(seed)
        p_q = Dist(_alphabet_of_size("q", 2), rng.dirichlet((1.0, 1.0))) if q_size == 2 else None
        m, f, aux = random_one_arm(rng, n, u_size, v_size, p_q)
        constant = FunctionSpec(m.xt_alphabet, m.y_alphabet, f.output, np.zeros((n, n), dtype=int))
        d = DistortionSpec.hamming(f.output)
        asks = [(g, mode, dd) for g in (f, constant)
                for mode, dd in (("lossless", None), ("lossy", None), ("lossy", d))]
        for ask in asks:  # the second read of an ask reads what the first built
            first = corner_bits(regions._canonical_corners(m, *ask))
            assert corner_bits(regions._canonical_corners(m, *ask)) == first
        for ask in asks:  # each against a cold model, so no ask reads another's entry
            assert corner_bits(regions._canonical_corners(m, *ask)) == \
                corner_bits(regions._canonical_corners(replace(m), *ask))
        assert sum(key[0] == "corner" and len(key) == 5 for key in m._memo) == 3 * len(asks)
        # sources restacked from the model's structures, against fresh ones
        param = regions._AuxParam(m, u_size, v_size, q_size)
        points = np.stack([param.random(int(s)) for s in rng.integers(0, 2**31, 3)])
        cold = replace(m)
        pairs = [(param.source(points),
                  regions._AuxParam(cold, u_size, v_size, q_size).source(points)),
                 *((regions._source(m, system), regions._source(cold, system))
                   for system in (aux, identity_aux(m)))]
        for warm, fresh in pairs:
            names = tuple(a.name for a in warm.axes)
            assert np.array_equal(warm.rows(names), fresh.rows(names))
            assert bits(regions._multi_rates(warm)[0].ravel()) == \
                bits(regions._multi_rates(fresh)[0].ravel())
        # every weight reads the model's one memo
        first, second = regions._source(m, aux), regions._source(m, aux)
        assert first._model_h is second._model_h is m._h
        assert_bare(m)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 2),
           st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3))
    def test_multi_sources_and_arm_joints_are_those_of_a_cold_model(self, seed, q_size, sizes):
        mm, a, g_list = random_multi_system(np.random.default_rng(seed), sizes, q_size=q_size)
        got = []
        for model in (mm, mm, replace(mm)):  # the second call reads what the first built
            inner = eval_inner_mf(model, a, "lossy", g_list)
            outer, report = eval_outer_mf(model, a, "lossy", g_list)
            got.append(bits(_fields(inner)) + bits(_fields(outer)) + bits(c.value for c in report))
        assert got[0] == got[1] == got[2]
        src, fresh = multifunction._source(mm, a), multifunction._source(replace(mm), a)
        for k, (xt, u, v, y, z) in enumerate(src.arm_names):
            for names in ((xt, "x", y, z), ("q", v, u, xt), (u, "q", xt, y), ("x", z)):
                assert np.array_equal(src.rows(names), fresh.rows(names))
            assert np.array_equal(mm._memo["arm", k], build_joint(mm.arm_model(k)).table)
        assert bits(regions._multi_rates(src)[0].ravel()) == \
            bits(regions._multi_rates(fresh)[0].ravel())
        assert_bare(mm)


# A J = 3 inner corner and a short trace, as float hex; set iteration order,
# which PYTHONHASHSEED moves, must not move them. RECORDED holds them as
# computed with numpy 2.4 on x86-64 with AVX-512; the corner's |Q| = 2 system
# reads its model-only entropies at unit weight, as every system does. Arm 2's
# r_dec was re-recorded (-8.9e-16) when each marginal got one recipe.
CHILD = """
import numpy as np
from conftest import HAMMING_D, XTPROJ_F, binary_cascade_model
from test_multifunction import random_multi_system
from sfcomp.multifunction import eval_inner_mf
from sfcomp.regions import BoundarySweep, SearchBudget, trace_boundary

mm, a, g_list = random_multi_system(np.random.default_rng(7), [(2, 2), (3, 1), (1, 2)], q_size=2)
r = eval_inner_mf(mm, a, "lossy", g_list)
print(" ".join(float(v).hex() for v in (r.r_s, *r.r_w, r.sum_w, *r.r_dec, r.r_eve, *r.d)))
pts = trace_boundary(binary_cascade_model(), XTPROJ_F, BoundarySweep("d", (0.05, 0.12), "r_w"),
                     "lossy", SearchBudget(restarts=1, iters=6, u_size=2, v_size=1, q_size=2,
                                           seed=3), d=HAMMING_D)
print(" ".join(float(v).hex() for p in pts for v in (*p.coords().values(), *p.weights)))
"""
RECORDED = [
    "0x1.0d442ba7920f0p-3 0x1.797cf2aa92ce0p-6 0x1.dbaaf7b8951c0p-4 0x0.0p+0 "
    "0x1.0d1d7e7602750p-3 0x1.b71789b924600p-10 0x1.363c5137f8400p-4 0x1.8000000000000p-51 "
    "0x1.1d96d24ac72a0p-4 0x1.0567035d1ba9dp-1 0x1.abba1eac94558p-2 0x1.208b3982daa2ep-1",
    "0x1.f92ffb86d8152p-2 0x1.f92ffb86d8156p-2 0x1.258b0f11acbd0p-2 0x1.258b0f11acbd6p-2 "
    "0x1.999999999999ap-5 0x1.9999999999995p-2 0x1.3333333333336p-1 0x1.f6d24421fcfb9p-3 "
    "0x1.f6d24421fcfbep-3 0x1.2cae432818079p-3 0x1.2cae43281807dp-3 0x1.eb851eb851eb8p-4 "
    "0x1.1caa01fa11caap-1 0x1.c6abfc0bdc6acp-2",
]


@functools.cache
def child_outcomes(hash_seed: str) -> list[str]:
    src = str(TESTS.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([src, str(TESTS)]))
    out = subprocess.run([sys.executable, "-c", CHILD], cwd=TESTS, env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return out.stdout.splitlines()


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_outcomes_do_not_depend_on_hash_seed(hash_seed):
    other = {"0": "1", "1": "0"}[hash_seed]
    assert child_outcomes(hash_seed) == child_outcomes(other)


# Other numpy releases and builds may round log2 and the einsum contractions
# differently by an ulp, and numpy >= 2.3 does not install on Python 3.10, so
# the recording is compared only where numpy is 2.4.x.
@pytest.mark.skipif(not np.__version__.startswith("2.4."),
                    reason="RECORDED was made with numpy 2.4; other releases may differ by an ulp")
def test_outcomes_match_the_numpy_2_4_recording():
    assert child_outcomes("0") == RECORDED
