"""Remote-source measurement models, function and distortion tables, model files.

A source model is a hidden i.i.d. source together with two measurement
channels: one feeding the transmitting terminal and one broadcast channel
feeding the fusion center and the eavesdropper jointly, so noise at the two
receiving terminals may be correlated. Model files declare the broadcast
channel as a single conditional over the product output alphabet for the
same reason.

A model keeps two memos, set in `__post_init__` and so empty after
`dataclasses.replace`: `_h`, the entropies over its own axes that every
system of unit time-sharing weight shares (`sources`), and `_memo`
(`_memoized`), what its frozen tables alone decide once the alphabets,
specs and mode are named: source structures, the canonical corners and
their exact coordinates, each arm's joint. Nothing is built until it is
first asked for. `FunctionSpec` and `DistortionSpec` compare by identity,
so they key those entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .probability import (
    Alphabet,
    CondDist,
    Dist,
    JointDist,
    ProbabilityError,
    ProductAlphabet,
    _check_cells,
    _entropy_rows,
    product_alphabet,
)

ADMISSIBILITY_TOL = 1e-9
DEGRADEDNESS_TOL = 1e-9
ROW_SUM_TOL = 1e-9


class ModelError(ValueError):
    """Inconsistent model structure."""


class ModelFileError(ModelError):
    """Malformed or semantically invalid model file."""


@dataclass(frozen=True, eq=False)
class SourceModel:
    """Hidden source plus the two measurement channels of a single computation."""

    p_x: Dist
    p_xt_given_x: CondDist
    p_yz_given_x: CondDist

    def __post_init__(self) -> None:
        if self.p_xt_given_x.input != self.p_x.alphabet:
            raise ModelError("encoder measurement channel must be fed by the source alphabet")
        if self.p_yz_given_x.input != self.p_x.alphabet:
            raise ModelError("decoder/eavesdropper channel must be fed by the source alphabet")
        out = self.p_yz_given_x.output
        if not isinstance(out, ProductAlphabet) or len(out.parts) != 2:
            raise ModelError("broadcast output must be a two-part product alphabet (y, z)")
        object.__setattr__(self, "_h", {})  # model-only entropies (`sources`)
        object.__setattr__(self, "_memo", {})  # model-only structures and corners (`_memoized`)

    @property
    def x_alphabet(self) -> Alphabet:
        return self.p_x.alphabet

    @property
    def xt_alphabet(self) -> Alphabet:
        return self.p_xt_given_x.output

    @property
    def y_alphabet(self) -> Alphabet:
        return self.p_yz_given_x.output.parts[0]

    @property
    def z_alphabet(self) -> Alphabet:
        return self.p_yz_given_x.output.parts[1]


def _symbol_table(table, error: type[Exception], what: str) -> np.ndarray:
    """`table` as int64 symbol indices; a non-finite or non-integral entry
    raises `error` before the cast could truncate it or warn."""
    raw = np.asarray(table)
    if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
        raise error(f"{what} entries must be integral symbol indices")
    return np.asarray(raw, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class FunctionSpec:
    """Total per-letter function table on (encoder observation, decoder observation).
    Compared and hashed by identity, so a spec keys a model's memo (`_memoized`)."""

    xt_alphabet: Alphabet
    y_alphabet: Alphabet
    output: Alphabet
    table: np.ndarray  # symbol indices, shape (|xt|, |y|)

    def __post_init__(self) -> None:
        table = _symbol_table(self.table, ModelError, "function table")
        if table.shape != (self.xt_alphabet.size, self.y_alphabet.size):
            raise ModelError(f"function table shape {table.shape} does not cover the domain")
        if table.min() < 0 or table.max() >= self.output.size:
            raise ModelError("function table contains symbols outside the output alphabet")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        # each cell's output symbol one-hot, (|xt|, |y|, |f|), as `_function_joint` reads it
        object.__setattr__(self, "_onehot", np.eye(self.output.size)[table])

    @classmethod
    def from_labels(cls, xt_alphabet: Alphabet, y_alphabet: Alphabet,
                    output: Alphabet, rows: list[list[str]]) -> "FunctionSpec":
        table = np.array([[output.index(v) for v in row] for row in rows])
        return cls(xt_alphabet, y_alphabet, output, table)


@dataclass(frozen=True, eq=False)
class DistortionSpec:
    """Per-letter distortion d(f, fhat) >= 0, finite, with zero diagonal.
    Compared and hashed by identity, as `FunctionSpec` is."""

    alphabet: Alphabet
    table: np.ndarray  # shape (|f|, |f|)

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.float64)
        n = self.alphabet.size
        if table.shape != (n, n):
            raise ModelError(f"distortion table shape {table.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(table)):
            raise ModelError("distortion values must be finite")
        if np.any(table < 0):
            raise ModelError("distortion values must be nonnegative")
        if np.any(np.diag(table) != 0):
            raise ModelError("distortion of a symbol against itself must be 0")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @classmethod
    def hamming(cls, alphabet: Alphabet) -> "DistortionSpec":
        return cls(alphabet, 1.0 - np.eye(alphabet.size))


@dataclass(frozen=True, eq=False)
class MultiArm:
    """One encoder-decoder pair of a multi-function network."""

    p_xt_given_x: CondDist
    p_yz_given_x: CondDist
    f: FunctionSpec
    d: DistortionSpec


@dataclass(frozen=True, eq=False)
class MultiModel:
    """Shared hidden source measured by J encoder-decoder pairs."""

    p_x: Dist
    arms: tuple[MultiArm, ...]

    def __post_init__(self) -> None:
        if len(self.arms) < 1:
            raise ModelError("a multi-function model needs at least one arm")
        for arm in self.arms:
            SourceModel(self.p_x, arm.p_xt_given_x, arm.p_yz_given_x)  # validates
        object.__setattr__(self, "_h", {})  # model-only entropies (`sources`)
        object.__setattr__(self, "_memo", {})  # model-only structures and references (`_memoized`)

    @property
    def j(self) -> int:
        return len(self.arms)

    def arm_model(self, j: int) -> SourceModel:
        arm = self.arms[j]
        return SourceModel(self.p_x, arm.p_xt_given_x, arm.p_yz_given_x)


def _memoized(m: SourceModel | MultiModel, key: tuple, build):
    """Entry `key` of model m's `_memo`, `build()` the first time it is asked
    for; exact, as an entry depends on m's frozen tables and its key alone."""
    memo = m._memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


def build_joint(m: SourceModel) -> JointDist:
    """The induced joint over (xt, x, y, z): source times the two channels;
    trusted, as a product of the model's validated tables."""
    axes = (m.xt_alphabet, m.x_alphabet, m.y_alphabet, m.z_alphabet)
    _check_cells(axes, "joint")
    p_yz = m.p_yz_given_x.rows.reshape(m.x_alphabet.size, m.y_alphabet.size, -1)
    return JointDist._derived(axes, np.einsum("x,xa,xyz->axyz", m.p_x.probs,
                                              m.p_xt_given_x.rows, p_yz))


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex of a vector, or of
    each row of a stack of vectors; a row projects as the lone vector would."""
    w = v.reshape(-1, v.shape[-1])
    u = np.sort(w, axis=-1)[:, ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    # rho: the last position that passes (the first always does)
    ok = u - css / np.arange(1, w.shape[1] + 1) > 0
    rho = w.shape[1] - 1 - np.argmax(ok[:, ::-1], axis=-1)
    theta = css[np.arange(len(w)), rho] / (rho + 1.0)
    return np.maximum(v - theta.reshape(v.shape[:-1] + (1,)), 0.0)


def _renorm(v: np.ndarray) -> np.ndarray:
    """Each row (last axis) over its sum, which is positive: a search's rows are
    random draws (positive) or simplex projections (nonnegative, summing to 1)."""
    return v / v.sum(axis=-1, keepdims=True)


def is_physically_degraded_eve(m: SourceModel) -> bool:
    """True when the eavesdropper channel factors through the decoder channel.

    Searches for a stochastic matrix taking y to z whose cascade with the
    y-marginal channel reproduces the declared broadcast channel: per-y
    least squares, projection onto the simplex, then a max-abs residual
    check against DEGRADEDNESS_TOL. Verifies user inputs rather than assuming
    the modeling hypothesis.
    """
    ny, nz = m.y_alphabet.size, m.z_alphabet.size
    pyz = m.p_yz_given_x.rows.reshape(m.x_alphabet.size, ny, nz)
    py = pyz.sum(axis=2)  # (x, y)
    z_given_y = np.zeros((ny, nz))
    for y in range(ny):
        denom = float(np.sum(py[:, y] ** 2))
        if denom < 1e-30:
            z_given_y[y] = 1.0 / nz  # y unreachable; any row works
            continue
        w = pyz[:, y, :].T @ py[:, y] / denom
        z_given_y[y] = _project_simplex(w)
    residual = np.max(np.abs(pyz - py[:, :, None] * z_given_y[None, :, :]))
    return bool(residual <= DEGRADEDNESS_TOL)


def _function_joint(p: np.ndarray, f: FunctionSpec) -> np.ndarray:
    """Stacked p(g, y, f), F = f(xt, y), from stacked p(g, xt, y) of shape
    (B, |G|, |xt|, |y|)."""
    return np.einsum("bgay,ayf->bgyf", p, f._onehot)


def _function_residual(p: np.ndarray, f: FunctionSpec) -> np.ndarray:
    """H(F | G, Y) in bits, F = f(xt, y), of each row of a stacked table
    p(..., xt, y); G is every axis between the first and xt, flattened."""
    p = p.reshape(len(p), -1, *p.shape[-2:])
    return _entropy_rows(_function_joint(p, f)) - _entropy_rows(p.sum(axis=2))


def _g_tables(p_uxty: np.ndarray, f: FunctionSpec, d: DistortionSpec) -> np.ndarray:
    """`regions.optimal_g`'s rule on each row of a stacked p(u, xt, y): tables
    (B, |u|, |y|)."""
    p = _function_joint(p_uxty, f)  # (b, u, y, f)
    risk = p @ d.table  # risk[b, u, y, fhat] = sum_f p(u, y, f) d(f, fhat)
    global_best = np.argmax(p.sum(axis=(1, 2)), axis=-1)
    return np.where(p.sum(axis=3) > 0.0, np.argmin(risk, axis=3), global_best[:, None, None])


def _mean_distortion(p_uxty: np.ndarray, f: FunctionSpec, g: np.ndarray,
                     d: DistortionSpec) -> np.ndarray:
    """E d(f(xt, y), g(u, y)) of each row of a stacked p(u, xt, y) and
    reconstruction tables g of shape (B, |u|, |y|)."""
    val = d.table[f.table[None, None], g[:, :, None, :]]
    return np.sum(p_uxty * val, axis=(1, 2, 3))


def _check_fit(f: FunctionSpec, d: DistortionSpec | None, error: type[Exception]) -> None:
    """Raise `error` unless a distortion spec, when given, is over f's output symbols."""
    if d is not None and d.alphabet.size != f.output.size:
        raise error(f"a distortion over {d.alphabet.size} symbols does not fit a function "
                    f"with {f.output.size} output symbols")


def _lossless_bounds(m: SourceModel, f: FunctionSpec) -> dict[str, float]:
    """H(F|Y) and I(F;X|Y), read off p(x, x~, y): lower bounds of r_w and r_dec.
    A lossless corner whose residual H(F|U,Q,Y) is e has r_w = I(U,Q;X~|Y) >=
    I(U,Q;F|Y) = H(F|Y) - e and r_dec = I(U,Q;X|Y) >= I(F;X|Y) - e."""
    p = build_joint(m).table.sum(axis=3).transpose(1, 0, 2)[None]
    h_f_y = float(_function_residual(p.sum(axis=1), f)[0])
    return {"r_w": h_f_y, "r_dec": h_f_y - float(_function_residual(p, f)[0])}


def admissibility_gap(m: SourceModel, p_u_given_xt: CondDist, f: FunctionSpec) -> float:
    """H(F | U, Y) in bits; zero means (U, Y) determine f. p(u, xt, y) is read
    off the model's joint (`build_joint`) in one contraction."""
    if p_u_given_xt.input != m.xt_alphabet:
        raise ModelError("auxiliary channel must be fed by the encoder observation")
    p = np.einsum("axyz,au->uay", build_joint(m).table, p_u_given_xt.rows)
    return float(_function_residual(p[None], f)[0])


# ---------------------------------------------------------------------------
# Model files: YAML key/value with nested lists. Probabilities appear as
# decimal strings; each stochastic row must sum to 1 within 1e-9 and is then
# normalized to machine precision before the strict 1e-12 validation runs.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedModel:
    model: SourceModel
    f: FunctionSpec
    d: DistortionSpec
    multi: MultiModel | None


def _as_floats(rows, key: str) -> np.ndarray:
    try:
        arr = np.array([[float(v) for v in row] for row in rows], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"{key}: expected rows of decimal numbers ({exc})") from None
    return arr


def _stochastic(rows, key: str, n_in: int, n_out: int) -> np.ndarray:
    arr = _as_floats(rows, key)
    if arr.shape != (n_in, n_out):
        raise ModelFileError(f"{key}: shape {arr.shape}, expected {(n_in, n_out)}")
    # Both tests are written so that NaN fails them.
    if not np.all(arr >= 0):
        raise ModelFileError(f"{key}: negative or NaN probability")
    sums = arr.sum(axis=1)
    bad = np.nonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))[0]
    if bad.size:
        raise ModelFileError(
            f"{key}: row {int(bad[0])} sums to {sums[bad[0]]!r}, not 1 within {ROW_SUM_TOL}")
    return arr / sums[:, None]


def _alphabet(spec, name: str) -> Alphabet:
    if not isinstance(spec, list) or not spec:
        raise ModelFileError(f"alphabets.{name}: expected a nonempty list of labels")
    try:
        return Alphabet(name, tuple(str(s) for s in spec))
    except ProbabilityError as exc:
        raise ModelFileError(f"alphabets.{name}: {exc}") from None


def _arm_tables(block: dict, key_prefix: str, x: Alphabet, xt: Alphabet,
                y: Alphabet, z: Alphabet, fa: Alphabet):
    try:  # labels "a|b" and "a" of y with "c" and "b|c" of z both join to "a|b|c"
        yz = product_alphabet(f"{y.name}{z.name}", y, z)
    except ProbabilityError as exc:
        raise ModelFileError(f"{key_prefix}alphabets.y, z: {exc}") from None
    p_xt = CondDist(x, xt, _stochastic(block["p_xtilde_given_x"],
                                       f"{key_prefix}p_xtilde_given_x", x.size, xt.size))
    p_yz = CondDist(x, yz, _stochastic(block["p_yz_given_x"],
                                       f"{key_prefix}p_yz_given_x", x.size, yz.size))
    frows = block["function_table"]
    if not isinstance(frows, list) or len(frows) != xt.size:
        raise ModelFileError(f"{key_prefix}function_table: expected {xt.size} rows")
    try:
        f = FunctionSpec.from_labels(xt, y, fa, frows)
    except Exception as exc:
        raise ModelFileError(f"{key_prefix}function_table: {exc}") from None
    darr = _as_floats(block["distortion_table"], f"{key_prefix}distortion_table")
    try:
        d = DistortionSpec(fa, darr)
    except ModelError as exc:
        raise ModelFileError(f"{key_prefix}distortion_table: {exc}") from None
    return p_xt, p_yz, f, d


_REQUIRED_KEYS = ("alphabets", "p_x", "p_xtilde_given_x", "p_yz_given_x",
                  "function_table", "distortion_table")


def parse_model_text(text: str, source: str = "<string>") -> ParsedModel:
    try:  # libyaml's parser when PyYAML was built with it, the same safe constructor
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml cannot encode a lone surrogate
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ModelFileError(f"{source}: malformed model file{where}: {exc}") from None
    if not isinstance(data, dict):
        raise ModelFileError(f"{source}: model file must be a key/value mapping")
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise ModelFileError(f"{source}: missing key {key!r}")
    alph = data["alphabets"]
    if not isinstance(alph, dict):
        raise ModelFileError(f"{source}: alphabets must be a mapping")
    for key in ("x", "xtilde", "y", "z", "f"):
        if key not in alph:
            raise ModelFileError(f"{source}: alphabets must declare {key!r}")
    x = _alphabet(alph["x"], "x")
    xt = _alphabet(alph["xtilde"], "xtilde")
    y = _alphabet(alph["y"], "y")
    z = _alphabet(alph["z"], "z")
    fa = _alphabet(alph["f"], "f")

    px_rows = [data["p_x"]]
    p_x = Dist(x, _stochastic(px_rows, "p_x", 1, x.size)[0])
    p_xt, p_yz, f, d = _arm_tables(data, "", x, xt, y, z, fa)
    model = SourceModel(p_x, p_xt, p_yz)

    multi = None
    if "multi" in data and data["multi"] is not None:
        blocks = data["multi"]
        if not isinstance(blocks, list) or not blocks:
            raise ModelFileError(f"{source}: multi must be a nonempty list of arm blocks")
        arms = []
        for k, block in enumerate(blocks):
            if not isinstance(block, dict):
                raise ModelFileError(f"{source}: multi[{k}] must be a mapping")
            sub = dict(block)
            over = sub.get("alphabets", {})
            if not isinstance(over, dict):
                raise ModelFileError(f"{source}: multi[{k}].alphabets must be a mapping")
            xt_k = _alphabet(over["xtilde"], "xtilde") if "xtilde" in over else xt
            y_k = _alphabet(over["y"], "y") if "y" in over else y
            z_k = _alphabet(over["z"], "z") if "z" in over else z
            fa_k = _alphabet(over["f"], "f") if "f" in over else fa
            for key in ("p_xtilde_given_x", "p_yz_given_x", "function_table", "distortion_table"):
                if key not in sub:
                    raise ModelFileError(f"{source}: multi[{k}] missing key {key!r}")
            p_xt_k, p_yz_k, f_k, d_k = _arm_tables(sub, f"multi[{k}].", x, xt_k, y_k, z_k, fa_k)
            arms.append(MultiArm(p_xt_k, p_yz_k, f_k, d_k))
        multi = MultiModel(p_x, tuple(arms))

    return ParsedModel(model, f, d, multi)


def parse_model_file(path: str | Path) -> ParsedModel:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from None
    return parse_model_text(text, source=str(path))
