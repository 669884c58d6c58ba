import copy
import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from conftest import HAMMING_D, XOR_F
from sfcomp.models import (
    ADMISSIBILITY_TOL,
    DEGRADEDNESS_TOL,
    DistortionSpec,
    FunctionSpec,
    ModelError,
    ModelFileError,
    MultiArm,
    MultiModel,
    SourceModel,
    _project_simplex,
    admissibility_gap,
    build_joint,
    is_physically_degraded_eve,
    parse_model_file,
    parse_model_text,
)
from sfcomp.probability import (
    CondDist,
    JointDist,
    binary_alphabet,
    binary_entropy,
    bsc,
    compose,
    cond_mutual_info,
    constant_channel,
    identity_channel,
    product_alphabet,
    uniform,
)
from sfcomp.multifunction import MultiAuxSystem
from sfcomp.regions import ReconstructionFn, identity_aux

X = binary_alphabet("x")
XT = binary_alphabet("xtilde")
Y = binary_alphabet("y")
Z = binary_alphabet("z")
F = binary_alphabet("f")
YZ = product_alphabet("yz", Y, Z)
U = binary_alphabet("u")


def yz_channel(py_given_x, pz_given_xy):
    """Assemble P(y,z|x) from P(y|x) and P(z|x,y) row functions."""
    rows = np.zeros((2, 4))
    for x in range(2):
        for y in range(2):
            for z in range(2):
                rows[x, 2 * y + z] = py_given_x[x][y] * pz_given_xy[x][y][z]
    return CondDist(X, YZ, rows)


def bsc_rows(p):
    return [[1 - p, p], [p, 1 - p]]


def make_model(p=0.06, q=0.15, z_from_y=0.25):
    """Binary model: encoder BSC(p), decoder BSC(q), eavesdropper cascade off y."""
    py = bsc_rows(q)
    pz = [[bsc_rows(z_from_y)[y] for y in range(2)] for _ in range(2)]
    return SourceModel(uniform(X), bsc(p, X, XT), yz_channel(py, pz))


XOR = FunctionSpec(XT, Y, F, np.array([[0, 1], [1, 0]]))
YPROJ = FunctionSpec(XT, Y, F, np.array([[0, 1], [0, 1]]))
XTPROJ = FunctionSpec(XT, Y, F, np.array([[0, 0], [1, 1]]))


def table_holders() -> list:
    """One instance of each public type that holds a table."""
    m = make_model()
    aux = identity_aux(m)
    arm = MultiArm(m.p_xt_given_x, m.p_yz_given_x, XOR, HAMMING_D)
    return [XOR_F, HAMMING_D, m.p_x, m.p_xt_given_x, build_joint(m), m, arm,
            MultiModel(m.p_x, (arm,)), aux.per_q[0], aux,
            ReconstructionFn(U, Y, F, np.zeros((2, 2))), MultiAuxSystem(aux.p_q, (aux.per_q,))]


class TestSpecs:
    def test_function_table_total(self):
        with pytest.raises(ModelError):
            FunctionSpec(XT, Y, F, np.array([[0, 1]]))

    def test_function_symbols_in_range(self):
        with pytest.raises(ModelError):
            FunctionSpec(XT, Y, F, np.array([[0, 2], [1, 0]]))

    @pytest.mark.parametrize("bad", [[[0.7, 1.2], [0.0, 1.0]], [[np.nan, 1.0], [0.0, 1.0]],
                                     [[0.0, np.inf], [1.0, 0.0]]])
    def test_function_table_entries_must_be_integral(self, bad):
        # the int64 cast used to accept [[0.7, 1.2], [0, 1]] as [[0, 1], [0, 1]],
        # and NaN warned in the cast before an "out of range" error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="integral"):
                FunctionSpec(XT, Y, F, np.array(bad))

    def test_integral_float_function_table_accepted(self):
        f = FunctionSpec(XT, Y, F, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert f.table.dtype == np.int64 and f.table.tolist() == [[0, 1], [1, 0]]

    def test_distortion_zero_diagonal(self):
        with pytest.raises(ModelError):
            DistortionSpec(F, np.array([[0.1, 1.0], [1.0, 0.0]]))

    def test_distortion_nonnegative(self):
        with pytest.raises(ModelError):
            DistortionSpec(F, np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_distortion_finite(self):
        # an expected distortion weighs every entry, and 0 * inf is NaN
        for bad in (np.nan, np.inf):
            with pytest.raises(ModelError, match="finite"):
                DistortionSpec(F, np.array([[0.0, bad], [1.0, 0.0]]))

    @pytest.mark.parametrize("spec", table_holders())
    def test_specs_compare_and_hash_by_identity(self, spec):
        # specs key a model's memo; comparing any of these types used to raise
        # ValueError on its tables, and hashing it TypeError
        twin = copy.deepcopy(spec)
        assert spec == spec and (spec == twin) is False and spec != twin
        memo = {spec: "spec", twin: "twin"}
        assert memo[spec] == "spec" and memo[twin] == "twin" and hash(spec) == hash(spec)


class TestBuildJoint:
    def test_noiseless_encoder_diagonal(self):
        m = SourceModel(uniform(X), identity_channel(X, "xtilde"),
                        make_model().p_yz_given_x)
        j = build_joint(m).marginal(("xtilde", "x"))
        assert np.allclose(j.table, np.diag([0.5, 0.5]))

    def test_independent_z(self):
        py = bsc_rows(0.15)
        pz = [[[0.5, 0.5], [0.5, 0.5]] for _ in range(2)]  # z uniform regardless
        m = SourceModel(uniform(X), bsc(0.06, X, XT), yz_channel(py, pz))
        j = build_joint(m)
        assert cond_mutual_info(j, "x", "z") == pytest.approx(0.0, abs=1e-12)

    def test_decoder_arm_mutual_information(self):
        # closed form against full-table summation
        j = build_joint(make_model())
        assert cond_mutual_info(j, "x", "y") == pytest.approx(1 - binary_entropy(0.15), abs=1e-12)

    def test_chain_by_construction(self):
        j = build_joint(make_model())
        assert cond_mutual_info(j, "xtilde", ("y", "z"), "x") == pytest.approx(0.0, abs=1e-12)

    def test_matches_composed_joint(self):
        # the trusted table equals the validated composition and passes validation
        m = make_model()
        j = build_joint(m)
        ref = compose(m.p_x, (m.p_xt_given_x, "x"), (m.p_yz_given_x, "x")).split("yz")
        assert j.names == ("xtilde", "x", "y", "z")
        assert np.max(np.abs(j.table - ref.reorder(j.names).table)) <= 1e-15
        JointDist(j.axes, j.table)


class TestDegradedness:
    def test_z_equals_y(self):
        py = bsc_rows(0.15)
        pz = [[[1.0, 0.0], [0.0, 1.0]] for _ in range(2)]  # z copies y
        m = SourceModel(uniform(X), bsc(0.06, X, XT), yz_channel(py, pz))
        assert is_physically_degraded_eve(m)

    def test_z_independent(self):
        py = bsc_rows(0.15)
        pz = [[[0.3, 0.7], [0.3, 0.7]] for _ in range(2)]
        m = SourceModel(uniform(X), bsc(0.06, X, XT), yz_channel(py, pz))
        assert is_physically_degraded_eve(m)

    def test_default_cascade(self):
        assert is_physically_degraded_eve(make_model())

    def test_z_copies_source_not_degraded(self):
        # z = x while y is strictly noisy: no y-to-z channel can reproduce it
        py = bsc_rows(0.15)
        rows = np.zeros((2, 4))
        for x in range(2):
            for y in range(2):
                rows[x, 2 * y + x] = py[x][y]  # z = x exactly
        m = SourceModel(uniform(X), bsc(0.06, X, XT), CondDist(X, YZ, rows))
        assert not is_physically_degraded_eve(m)

    def test_z_copies_source_brute_force_oracle(self):
        # exhaustive grid over 2x2 stochastic matrices confirms no factorization
        py = np.array(bsc_rows(0.15))
        pyz = np.zeros((2, 2, 2))
        for x in range(2):
            for y in range(2):
                pyz[x, y, x] = py[x][y]
        best = np.inf
        grid = np.linspace(0.0, 1.0, 101)
        for a in grid:
            for b in grid:
                zy = np.array([[a, 1 - a], [b, 1 - b]])
                resid = np.max(np.abs(pyz - py[:, :, None] * zy[None, :, :]))
                best = min(best, resid)
        assert best > 1e-3

    def test_relabel_invariance(self):
        py = bsc_rows(0.15)
        pz = [[bsc_rows(0.25)[y] for y in range(2)] for _ in range(2)]
        m = SourceModel(uniform(X), bsc(0.06, X, XT), yz_channel(py, pz))
        swapped_rows = m.p_yz_given_x.rows[:, [1, 0, 3, 2]]  # permute z labels
        m2 = SourceModel(uniform(X), bsc(0.06, X, XT), CondDist(X, YZ, swapped_rows))
        assert is_physically_degraded_eve(m) == is_physically_degraded_eve(m2)


class TestMarkovChain:
    def test_composed_chain(self):
        j = compose(uniform(X), (bsc(0.1, X, XT), "x"), (bsc(0.2, XT, U), "xtilde"))
        assert cond_mutual_info(j, "x", "u", "xtilde") <= DEGRADEDNESS_TOL

    def test_fully_correlated_triple(self):
        j = compose(uniform(X), (identity_channel(X, "b"), "x"), (identity_channel(X, "c"), "x"))
        assert cond_mutual_info(j, "b", "c", "x") <= DEGRADEDNESS_TOL

    def test_equal_ends_independent_middle(self):
        # a = c, both independent of b: I(a;c|b) = 1 bit
        j = compose(uniform(X), (identity_channel(X, "c"), "x"),
                    (constant_channel(X, U), "x"))
        assert not cond_mutual_info(j, "x", "c", "u") <= DEGRADEDNESS_TOL


class TestAdmissibility:
    def test_identity_u_admissible_for_any_f(self):
        m = make_model()
        ident = identity_channel(XT, "u")
        for f in (XOR, YPROJ, XTPROJ):
            assert admissibility_gap(m, ident, f) <= ADMISSIBILITY_TOL

    def test_constant_u_fails_for_xt_projection(self):
        m = make_model()
        const = constant_channel(XT, U)
        assert not admissibility_gap(m, const, XTPROJ) <= ADMISSIBILITY_TOL
        assert admissibility_gap(m, const, XTPROJ) > 0.1

    def test_constant_u_ok_for_y_projection(self):
        m = make_model()
        const = constant_channel(XT, U)
        assert admissibility_gap(m, const, YPROJ) <= ADMISSIBILITY_TOL


def project_one(v):
    """Reference: the one-vector projection the search used before it stacked rows."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / np.arange(1, len(v) + 1) > 0)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


class TestProjectSimplex:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 12))
    def test_each_stacked_row_equals_the_one_vector_call(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        # simplex points stepped by +-0.25 in one coordinate, as a descent moves them
        stack = rng.dirichlet((1.0,) * n, size=rows)
        stack[np.arange(rows), rng.integers(0, n, size=rows)] += rng.choice((-0.25, 0.25), rows)
        out = _project_simplex(stack)
        for row, got in zip(stack, out):
            assert np.array_equal(got, _project_simplex(row))
            assert np.array_equal(got, project_one(row))
            assert got.min() >= 0.0 and abs(got.sum() - 1.0) <= 1e-12


MODEL_TEXT = """
alphabets:
  x: ["0", "1"]
  xtilde: ["0", "1"]
  y: ["0", "1"]
  z: ["0", "1"]
  f: ["0", "1"]
p_x: ["0.5", "0.5"]
p_xtilde_given_x:
  - ["0.94", "0.06"]
  - ["0.06", "0.94"]
p_yz_given_x:
  - ["0.6375", "0.2125", "0.0375", "0.1125"]
  - ["0.1125", "0.0375", "0.2125", "0.6375"]
function_table:
  - ["0", "1"]
  - ["1", "0"]
distortion_table:
  - ["0", "1"]
  - ["1", "0"]
"""


class TestModelFile:
    def test_round_trip(self):
        parsed = parse_model_text(MODEL_TEXT)
        assert parsed.model.p_x["0"] == 0.5
        assert parsed.model.p_xt_given_x.rows[0, 1] == pytest.approx(0.06)
        assert parsed.f.table[0, 1] == 1
        assert parsed.multi is None
        # the shipped channel is the 0.15 decoder arm with a 0.25 cascade
        assert is_physically_degraded_eve(parsed.model)

    def test_row_sum_rejected(self):
        bad = MODEL_TEXT.replace('"0.94", "0.06"', '"0.94", "0.05"')
        with pytest.raises(ModelFileError, match="row 0 sums"):
            parse_model_text(bad)

    def test_nan_probability_rejected(self):
        # NaN compares false with everything, so the checks must be written to fail on it
        bad = MODEL_TEXT.replace('p_x: ["0.5", "0.5"]', 'p_x: ["nan", "0.5"]')
        with pytest.raises(ModelFileError, match="p_x"):
            parse_model_text(bad)
        bad = MODEL_TEXT.replace('"0.94", "0.06"', '"nan", "0.06"')
        with pytest.raises(ModelFileError, match="p_xtilde_given_x"):
            parse_model_text(bad)

    def test_duplicate_labels_rejected(self):
        bad = MODEL_TEXT.replace('y: ["0", "1"]', 'y: ["0", "0"]')
        with pytest.raises(ModelFileError, match="alphabets.y"):
            parse_model_text(bad)

    @pytest.mark.parametrize("override", [False, True])
    def test_colliding_product_labels_rejected(self, override):
        # y's "a|b" and "a" with z's "c" and "b|c" both join to "a|b|c" in the
        # (y, z) product alphabet, which used to raise a bare ProbabilityError
        if override:
            text = MODEL_TEXT + ONE_ARM_BLOCK.format(over='{y: ["a|b", "a"], z: ["c", "b|c"]}')
        else:
            text = MODEL_TEXT.replace('y: ["0", "1"]\n  z: ["0", "1"]',
                                      'y: ["a|b", "a"]\n  z: ["c", "b|c"]')
        key = r"multi\[0\]\.alphabets\.y, z" if override else r"alphabets\.y, z"
        with pytest.raises(ModelFileError, match=f"^{key}: .*duplicate labels"):
            parse_model_text(text)

    def test_non_finite_distortion_rejected(self):
        for bad in ("nan", "inf"):
            text = MODEL_TEXT.replace('distortion_table:\n  - ["0", "1"]',
                                      f'distortion_table:\n  - ["0", "{bad}"]')
            assert text != MODEL_TEXT
            with pytest.raises(ModelFileError, match="distortion_table"):
                parse_model_text(text)

    def test_syntax_error_has_location(self):
        with pytest.raises(ModelFileError, match="line"):
            parse_model_text("alphabets: [unclosed\n  x: [")

    def test_missing_key(self):
        with pytest.raises(ModelFileError, match="missing key"):
            parse_model_text("alphabets:\n  x: ['0']\n")

    def test_multi_block(self):
        text = MODEL_TEXT + """
multi:
  - p_xtilde_given_x:
      - ["0.94", "0.06"]
      - ["0.06", "0.94"]
    p_yz_given_x:
      - ["0.6375", "0.2125", "0.0375", "0.1125"]
      - ["0.1125", "0.0375", "0.2125", "0.6375"]
    function_table:
      - ["0", "1"]
      - ["1", "0"]
    distortion_table:
      - ["0", "1"]
      - ["1", "0"]
  - p_xtilde_given_x:
      - ["0.9", "0.1"]
      - ["0.1", "0.9"]
    p_yz_given_x:
      - ["0.6375", "0.2125", "0.0375", "0.1125"]
      - ["0.1125", "0.0375", "0.2125", "0.6375"]
    function_table:
      - ["0", "0"]
      - ["1", "1"]
    distortion_table:
      - ["0", "1"]
      - ["1", "0"]
"""
        parsed = parse_model_text(text)
        assert parsed.multi is not None
        assert parsed.multi.j == 2
        assert parsed.multi.arms[1].p_xt_given_x.rows[0, 1] == pytest.approx(0.1)


ONE_ARM_BLOCK = """
multi:
  - alphabets: {over}
    p_xtilde_given_x:
      - ["0.94", "0.06"]
      - ["0.06", "0.94"]
    p_yz_given_x:
      - ["0.6375", "0.2125", "0.0375", "0.1125"]
      - ["0.1125", "0.0375", "0.2125", "0.6375"]
    function_table:
      - ["0", "1"]
      - ["1", "0"]
    distortion_table:
      - ["0", "1"]
      - ["1", "0"]
"""


class TestModelFileOnDisk:
    def write(self, tmp_path, data):
        path = tmp_path / "model.yaml"
        if isinstance(data, str):
            path.write_text(data, encoding="utf-8")
        else:
            path.write_bytes(data)
        return path

    def test_reads_cleanly(self, tmp_path):
        text = MODEL_TEXT + ONE_ARM_BLOCK.format(over='{xtilde: ["a", "b"]}')
        parsed = parse_model_file(self.write(tmp_path, text))
        assert parsed.model.p_x["0"] == 0.5
        assert parsed.f.table[0, 1] == 1
        assert parsed.multi.j == 1
        assert parsed.multi.arms[0].p_xt_given_x.output.labels == ("a", "b")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = self.write(tmp_path, MODEL_TEXT.encode("utf-8") + b"# \xff\n")
        with pytest.raises(ModelFileError, match="cannot read"):
            parse_model_file(path)

    def test_multi_alphabets_must_be_a_mapping(self, tmp_path):
        # a string used to raise TypeError and a list used to be ignored
        for over in ("xtilde", "[1]"):
            path = self.write(tmp_path, MODEL_TEXT + ONE_ARM_BLOCK.format(over=over))
            with pytest.raises(ModelFileError, match=r"multi\[0\]\.alphabets"):
                parse_model_file(path)


VALID_TEXTS = (MODEL_TEXT, MODEL_TEXT + ONE_ARM_BLOCK.format(over="{}"),
               MODEL_TEXT + ONE_ARM_BLOCK.format(over='{xtilde: ["a", "b"], z: ["p", "q"]}'))
# YAML syntax, line structure, numbers, and characters either loader rejects
# (a control character, a byte-order mark, a lone surrogate)
MUTATION_CHARS = list("[]{}:-,\"'#&*!|>?%@` \n\t.0123456789eE+") + ["\x01", "\ufeff", "\ud800",
                                                                      "\u2028", "\x85", "\xe9"]


def plain(obj):
    """A parsed model as nested tuples, each array as its dtype, shape and bytes."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, tuple(plain(getattr(obj, f.name))
                                         for f in dataclasses.fields(obj))
    if isinstance(obj, tuple):
        return tuple(plain(v) for v in obj)
    return obj


def parsed_or_error(text):
    """`parse_model_text`'s model as `plain` data, or the message of the
    ModelFileError it raised; any other exception propagates."""
    try:
        return plain(parse_model_text(text))
    except ModelFileError as exc:
        return str(exc)


class TestModelFileLoaders:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(VALID_TEXTS),
           st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 4),
                              st.text(st.sampled_from(MUTATION_CHARS), max_size=3)),
                    max_size=3))
    # inputs the two scanners were seen to read differently: a NEL or a line
    # break before a byte-order mark, a byte-order mark mid-text, a flow
    # mapping's `z:[`, and a tab in a block key (`a\tlphabets`)
    @example(VALID_TEXTS[0], [(0, 0, "\ufeff"), (0, 0, "\x85")])
    @example(VALID_TEXTS[0], [(0, 0, "\n\ufeff")])
    @example(VALID_TEXTS[2], [(1116, 0, "\ufeff")])
    @example(VALID_TEXTS[2], [(16723, 1, "")])
    @example(VALID_TEXTS[1], [(26584, 0, "\t")])
    def test_libyaml_and_python_loaders_agree(self, text, edits):
        # each edit deletes up to 4 characters at a position and inserts a few
        for at, cut, insert in edits:
            at %= len(text) + 1
            text = text[:at] + insert + text[at + cut:]
        with mock.patch.object(yaml, "CSafeLoader", yaml.SafeLoader):
            python = parsed_or_error(text)
        fast = parsed_or_error(text)
        if not (isinstance(python, str) and isinstance(fast, str)):
            assert fast == python  # else both raised, with each parser's own message

    def test_quoted_scalars_comments_and_block_scalars_pass_the_check(self):
        # a ':' in a quoted label, a tab in a comment, and a '[' inside a block
        # plain scalar, which opens no flow collection before its ':'
        text = (VALID_TEXTS[2].replace('["a", "b"]', '["a:b", "b"]')
                + "# a\tcomment\nnote: a[b c:d\n")
        with mock.patch.object(yaml, "CSafeLoader", yaml.SafeLoader):
            python = parsed_or_error(text)
        assert not isinstance(python, str) and parsed_or_error(text) == python
        assert parse_model_text(text).multi.arms[0].p_xt_given_x.output.labels == ("a:b", "b")

    def test_valid_texts_parse_alike_with_either_loader(self):
        for text in VALID_TEXTS:
            with mock.patch.object(yaml, "CSafeLoader", yaml.SafeLoader):
                python = parsed_or_error(text)
            assert not isinstance(python, str) and parsed_or_error(text) == python

    def test_lone_surrogate_is_a_model_file_error(self):
        # libyaml encodes the text as UTF-8 first, which a lone surrogate fails
        with pytest.raises(ModelFileError, match="malformed"):
            parse_model_text(MODEL_TEXT.replace('"0.5", "0.5"', '"0.5\ud800", "0.5"'))

    @staticmethod
    def record_loaders(monkeypatch) -> list:
        """The Loader of every later `yaml.load` call, in order."""
        loaders = []
        load = yaml.load
        monkeypatch.setattr(yaml, "load", lambda text, Loader: loaders.append(Loader)
                            or load(text, Loader=Loader))
        return loaders

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_parses_when_present(self, monkeypatch):
        loaders = self.record_loaders(monkeypatch)
        parse_model_text(MODEL_TEXT)
        assert loaders == [yaml.CSafeLoader]

    def test_pure_python_loader_is_the_fallback(self, monkeypatch):
        # PyYAML built without libyaml has no CSafeLoader
        expected = parsed_or_error(VALID_TEXTS[2])
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        loaders = self.record_loaders(monkeypatch)
        assert parsed_or_error(VALID_TEXTS[2]) == expected
        with pytest.raises(ModelFileError, match="line"):
            parse_model_text("alphabets: [unclosed\n  x: [")
        assert loaders == [yaml.SafeLoader] * 2
