"""Sources: the stacked marginals of B auxiliary systems that every rate
evaluator reads, and their entropies and CMIs.

A source names its axes. Each carries `arm_names`, every arm's (xt, u, v,
y, z), and the names `q` of the time-sharing axis and `x` of the source
axis; the readers in `regions` and `multifunction` take every name from the
source they read. A source memoizes each entropy it reads. An entropy over
the model's axes alone (x, and each arm's xt, y and z) is the same for every
system of p(q) = (1.0,), in any batch, so the model's entropy memo
(`SourceModel._h`, `MultiModel._h`) holds it for a source whose systems all
have that weight; any other source keeps it in the memo of the structure
copy it was restacked from (`_ProductForm.structure`), which the batches of
one search share and no other call does.

`_ProductForm` is the package's one builder of auxiliary joints. It keeps
the mixture joints of B systems on one model as per-arm factors; its
marginals, and its one system's full joint (`dense`), are trusted
contractions of validated tables, each within TABLE_CELL_CAP. Its caller
names each arm's axes: a single function by the model's and the system's
alphabets, J arms by `multifunction._axis_names`. The source renames the
alphabets to those names and reads the channel tables as they are. A source
is built as structure alone (the model's tables and every axis), and
`restacked` gives it systems: a search restacks one structure for every
batch it scores, and `take` restacks a subset of a source's systems with
what was computed of them. A model keeps the structure of each alphabet set
it is asked for (`_ProductForm.structure`), and every later call restacks
it. How a marginal is contracted depends only on the structure and the axes
asked for, so each such layout is planned once (`_layout`) and kept in the
plans the structure and its restacks share (`_Source._plans`). A read is one
einsum, or, for a marginal keeping axes of two arms or more with at least
`WIDE_CELLS` cells per system, the same products and sums taken arm by arm
(`_arm_by_arm`), with the same bits. The CMIs a reader asks for in one call
(`_Source.cmis`) are planned there too: their distinct entropies, each read
once.
`_Dense` serves a dense `JointDist` the same way, under names its caller gives.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence

import numpy as np

from .models import _memoized
from .probability import (
    TABLE_CELL_CAP,
    Alphabet,
    CondDist,
    Dist,
    JointDist,
    ProbabilityError,
    _check_cells,
    _entropy_rows,
)

# einsum's labels for the integers 0, 1, ... of its sublist form
_LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
# A marginal keeping axes of two arms or more, with at least this many cells
# per system, is read arm by arm (`_arm_by_arm`): the einsum's inner loop runs
# over one operand's last axis, often of size 2. Measured per read (one system,
# numpy 2.4, 2-core x86-64), J = 4 binary arms, |Q| = 1: einsum 16/18/25/257 us
# at 256/512/1024/4096 cells, arm by arm 18/19/22/47 us; at |Q| = 2 arm by arm
# is ahead from ~256 cells.
WIDE_CELLS = 1024


class _Source:
    """Stacked marginals of B systems and their CMIs, each entropy read once.

    A subclass sets its canonical `axes`, its names `arm_names`, `q` and `x`
    and its batch B, and gives `rows(names)`: the (B, ...) stacked marginal
    over `names`, in the order given. Entropies of axis sets within
    `_model_axes` live in `_model_h` (`_ProductForm.restacked` picks it), the
    rest in this source's own memo. `_plans` keeps what depends on the axes
    alone: each `cmis` plan, keyed by its triples, and each `rows` layout,
    keyed by its names.
    """

    _model_axes: frozenset = frozenset()
    batch = 1

    def __init__(self, axes: tuple[Alphabet, ...], arm_names: list[tuple[str, ...]], q: str,
                 x: str) -> None:
        self.axes, self.arm_names, self.q, self.x = axes, arm_names, q, x
        self._pos = {alph.name: i for i, alph in enumerate(axes)}
        if len(self._pos) != len(axes):
            raise ProbabilityError(f"duplicate axis names in joint: {[a.name for a in axes]}")
        self._h: dict = {}
        self._model_h: dict = {}
        self._plans: dict = {}

    def entropy(self, names: tuple[str, ...], table: np.ndarray | None = None) -> np.ndarray:
        """H(names) of each system, once per source (per `_model_h` on model
        axes alone), from `table`, the marginal in any axis order, when given."""
        key = frozenset(names)
        return self._memo_h(key, tuple(sorted(key, key=self._pos.get)),
                            key <= self._model_axes, table)

    def _memo_h(self, key: frozenset, names: tuple[str, ...], model: bool,
                table: np.ndarray | None = None) -> np.ndarray:
        memo = self._model_h if model else self._h
        h = memo.get(key)
        if h is None:
            h = _entropy_rows(self.rows(names) if table is None else table)
            memo[key] = h = h[:1] if model else h  # (1,) broadcasts over any later batch
        return h

    def uxy(self, k: int = 0) -> np.ndarray:
        """Stacked p(u, xt, y) of arm k, what a reconstruction and its distortion read."""
        xt, u, _, y, _ = self.arm_names[k]
        return self.rows((u, xt, y))

    def cmis(self, triples: tuple) -> list[np.ndarray]:
        """I(A;B|C) of each system for each (A, B, C) of `triples` (names or
        tuples of names, C possibly ()), as H(A,C) + H(B,C) - H(A,B,C) - H(C).
        Its plan, kept in `_plans`, lists each distinct entropy set once, as
        (key, names in canonical order, whether model-only), and each CMI's
        indices into them, -1 for an empty C."""
        plan = self._plans.get(triples)
        if plan is None:
            at, terms = {}, []  # entropy set -> its index, in order of first use
            for abc in triples:
                a, b, c = ((s,) if isinstance(s, str) else tuple(s) for s in abc)
                terms.append(tuple(at.setdefault(frozenset(n), len(at)) if n else -1
                                   for n in (a + c, b + c, a + b + c, c)))
            plan = self._plans[triples] = ([(key, tuple(sorted(key, key=self._pos.get)),
                                             key <= self._model_axes) for key in at], terms)
        sets, terms = plan
        h = [self._memo_h(*entry) for entry in sets] + [0.0]  # h[-1]: H() of an empty C
        return [h[ac] + h[bc] - h[abc] - h[c] for ac, bc, abc, c in terms]


class _ProductForm(_Source):
    """The mixture joints of B systems on one model, kept as per-arm factors.

    p(q, x, ...) = p(q) p(x) prod_j f_j[q, x, xt_j, u_j, v_j, y_j, z_j] with
    f_j = p(xt_j | x) p(u_j | xt_j, q) p(v_j | u_j, q) p(y_j, z_j | x), the
    channels stacked over the B systems. A marginal multiplies out only the
    axes asked for, summing each chain x -> xt -> u -> v as it goes (`_chain`),
    so no arm's whole factor is formed. TABLE_CELL_CAP bounds each arm's
    stacked factor, which bounds every table built, and each marginal read.
    A source is built as structure alone, and `restacked` gives it systems.
    """

    def __init__(self, p_x: Dist, q: Alphabet,
                 arms: Sequence[tuple[CondDist, Alphabet, Alphabet, CondDist]],
                 names: Sequence[tuple[str, ...]], unit_h: dict) -> None:
        """A source of no system; an arm is (p(xt|x), U, V, p(yz|x)), validated,
        and names[k] names arm k's (xt, u, v, y, z) axes. `unit_h` is the
        model's memo of model-only entropies, which `restacked` gives a source
        whose systems all have p(q) = (1.0,)."""
        self._p_x = p_x.probs
        self._arms = []  # (local axes (xt, u, v, y, z), p(xt|x))
        self._parts = {}  # arm k's p(y,z|x) sums and chain products (`_chain`) by kept axes
        for k, ((p_xt, u, v, p_yz), arm) in enumerate(zip(arms, names, strict=True)):
            local = tuple(alph.renamed(name) for alph, name in
                          zip((p_xt.output, u, v, *p_yz.output.parts), arm, strict=True))
            self._arms.append((local, p_xt.rows))
            yz = p_yz.rows.reshape(p_x.alphabet.size, local[3].size, local[4].size)
            self._parts.update({(k, (3, 4)): yz, (k, (3,)): yz.sum(2), (k, (4,)): yz.sum(1)})
        per_arm = [tuple(local[i] for local, _ in self._arms) for i in range(5)]
        super().__init__((q,) + per_arm[2] + per_arm[1] + per_arm[0] + (p_x.alphabet,)
                         + per_arm[3] + per_arm[4], [tuple(arm) for arm in names],
                         q.name, p_x.alphabet.name)
        self._unit_h, self._mixed_h = unit_h, self._model_h
        self._model_axes = frozenset(alph.name for i in (0, 3, 4) for alph in per_arm[i]
                                     ) | {self.x}
        # all `rows` needs to plan a marginal (`_layout`)
        self._structure = ((self.q, q.size), (self.x, p_x.alphabet.size),
                           tuple(tuple((a.name, a.size) for a in local) for local, _ in self._arms))
        # one system's largest arm factor, which `restacked` checks per batch
        self._factor = max(q.size * p_x.alphabet.size * math.prod(a.size for a in local)
                           for local, _ in self._arms)

    @classmethod
    def of(cls, m, p_q: Dist, arms: Sequence[tuple[CondDist, Sequence, CondDist]],
           names: Sequence[tuple[str, ...]]) -> "_ProductForm":
        """The one system (B = 1) on model m (a `SourceModel` or `MultiModel`)
        of arms (p(xt|x), one `AuxPair` per weight symbol, p(yz|x)), m's
        channels, arm k's axes named names[k], restacked from m's structure
        (`structure`). Every evaluator's one feed rule: an arm's U channels
        read its observation's alphabet as given."""
        for (p_xt, per_q, _), (xt, *_) in zip(arms, names):  # every weight symbol shares these
            if per_q[0].p_u_given_xt.input != p_xt.output:
                raise ProbabilityError(f"auxiliary channel is not fed by the observation {xt!r}")
        form = cls.structure(m, p_q.alphabet, [(p_xt, per_q[0].u_alphabet, per_q[0].v_alphabet,
                                                p_yz) for p_xt, per_q, p_yz in arms], names)
        return form.restacked(p_q.probs[None], [
            (np.stack([p.p_u_given_xt.rows for p in per_q])[None],
             np.stack([p.p_v_given_u.rows for p in per_q])[None]) for _, per_q, _ in arms])

    @classmethod
    def structure(cls, m, q: Alphabet,
                  arms: Sequence[tuple[CondDist, Alphabet, Alphabet, CondDist]],
                  names: Sequence[tuple[str, ...]]) -> "_ProductForm":
        """`cls(m.p_x, q, arms, names, m._h)`, arms of m's channels, built once
        per model and alphabet set (`models._memoized`): it depends on m's
        frozen tables and those alone. Each call gets a copy with a memo of its
        own for the model-only entropies at weights other than (1.0,), and
        `restacked` writes no chain product or entropy to a structure, so no
        system's is kept on the model."""
        key = ("structure", q, tuple([(u, v) for _, u, v, _ in arms]), tuple([tuple(n) for n in names]))
        out = copy.copy(_memoized(m, key, lambda: cls(m.p_x, q, arms, names, m._h)))
        out._model_h = out._mixed_h = {}
        return out

    def dense(self) -> JointDist:
        """The joint of its one system over every axis, in `axes` order: dense
        and trusted; TableTooLarge past TABLE_CELL_CAP, as any marginal."""
        return JointDist._derived(self.axes, self.rows(tuple(a.name for a in self.axes))[0])

    def rows(self, names: tuple[str, ...]) -> np.ndarray:
        layout = self._plans.get(names)
        if layout is None:
            layout = self._plans[names] = _layout(self._structure, names)
        cells, subscripts, parts, wide = layout
        if cells * self.batch > TABLE_CELL_CAP:
            _check_cells([self.axes[self._pos[n]] for n in names], "marginal", self.batch)
        operands = [self._p_q, self._p_x]
        for k, kept in parts:
            if (k, kept) not in self._parts:  # a chain product; the p(y,z|x) sums are there
                self._parts[k, kept] = _chain(kept, self._arms[k][1], *self._links[k])
            operands.append(self._parts[k, kept])
        if wide is not None and wide[0] * self.batch <= TABLE_CELL_CAP:
            return _arm_by_arm(operands, parts, *wide[1:])
        return np.einsum(subscripts, *operands)

    def restacked(self, p_q: np.ndarray, links: Sequence[tuple[np.ndarray, np.ndarray]],
                  parts: dict | None = None, h: dict | None = None) -> "_ProductForm":
        """This source's structure holding the systems of p(q) (B, |q|) and of
        each arm's (p(u|xt,q), p(v|u,q)) stacked over them, with the `parts`
        and entropies `h` known of them. The p(y,z|x) sums are shared, and so
        are the model-only entropies: the model's when every system has
        p(q) = (1.0,), else the structure's own."""
        out = copy.copy(self)
        out._p_q, out._links, out.batch = p_q, links, len(p_q)
        unit = p_q.shape[1] == 1 and bool((p_q == 1.0).all())
        out._model_h = self._unit_h if unit else self._mixed_h
        if self._factor * out.batch > TABLE_CELL_CAP:
            for local, _ in self._arms:
                _check_cells((self.axes[0], self.axes[self._pos[self.x]]) + local, "arm factor",
                             out.batch)
        out._parts = {key: part for key, part in self._parts.items() if key[1][0] >= 3}
        out._parts.update(parts or {})
        out._h = {} if h is None else h
        return out

    def take(self, rows: np.ndarray) -> "_ProductForm":
        """The systems `rows` (indices) as a source of their own, keeping the
        chain products and entropies computed so far, sliced to those rows."""
        # chain products lead with the batch axis, but p(x, xt) alone is the
        # same for every system
        return self.restacked(
            self._p_q[rows], [(p_u[rows], p_v[rows]) for p_u, p_v in self._links],
            {key: part if key[1] == (0,) else part[rows]
             for key, part in self._parts.items() if key[1][0] < 3},
            {key: h[rows] for key, h in self._h.items()})


def _layout(structure: tuple, names: tuple[str, ...]) -> tuple:
    """How `_ProductForm.rows` reads the marginal over `names` off sources of
    one `structure`: one system's cells, the einsum subscripts of p(q), p(x)
    and the (arm, kept axes) parts, those parts' keys, and for a wide
    marginal (`WIDE_CELLS`) the arm-by-arm recipe `_arm_by_arm` reads, led
    by its product's cells per system, else None. An arm's axes summed out
    whole, or the tail of either branch, sum to 1 and are left out."""
    (q, nq), (x, nx), arms = structure
    size = dict([(q, nq), (x, nx), *(axis for arm in arms for axis in arm)])
    cells = math.prod(size[n] for n in names)
    # labels: the output axes first, then the batch, q and x
    label = {n: _LABELS[i] for i, n in enumerate(names)}
    b = _LABELS[len(names)]
    lq, lx = label.get(q, _LABELS[len(names) + 1]), label.get(x, _LABELS[len(names) + 2])
    terms, parts, kept = [b + lq, lx], [], []
    for k, local in enumerate(arms):
        keep = [i for i, (n, _) in enumerate(local) if n in label]
        for part, lead in ((tuple(i for i in keep if i < 3), b + lq + lx),
                           (tuple(i for i in keep if i >= 3), lx)):
            if part:
                parts.append((k, part))
                terms.append(lead + "".join(label[local[i][0]] for i in part))
                kept[:0] = [local[i][0] for i in part]  # each part's axes go outermost
    wide = None  # one cell stays on the einsum, whose one-cell loop sums in another order
    if cells >= WIDE_CELLS and cells > 1 and len({k for k, _ in parts}) > 1:
        summed = (q not in label) + 2 * (x not in label)  # 1: q alone, 2: x alone, 3: both
        arm_cells = math.prod(size[n] for n in kept)
        fold = (nq * nx, arm_cells) if summed == 3 else (nq, nx, arm_cells)
        kept[:0] = [n for n in (q, x) if n in label]
        wide = (nq * nx * arm_cells, fold, (None, 1, 2, 1)[summed],
                tuple(size[n] for n in kept), (0,) + tuple(1 + kept.index(n) for n in names))
    return (cells, ",".join(terms) + "->" + b + "".join(label[n] for n in names), tuple(parts),
            wide)


def _arm_by_arm(operands: list, parts: tuple, fold: tuple, axis: int | None, shape: tuple,
                perm: tuple) -> np.ndarray:
    """The einsum of `_layout` over its operands, p(q), p(x) and the parts,
    as a (b, q, x, kept cells) product and a sum: each part multiplies in, in
    the einsum's operand order, with its axes outermost, and q and x, where
    summed, add up q-major over one leading axis. That is the einsum's order
    of products and of sums, so every cell is bit for bit the einsum's."""
    p_q, p_x, *tables = operands
    out = (p_q[:, :, None] * p_x)[..., None]  # (b, q, x, kept cells so far)
    for (_, kept), table in zip(parts, tables):
        lead = table.shape[:3] if kept[0] < 3 else table.shape[:1]  # a chain part's (b, q, x)
        out = (out[..., None, :] * table.reshape(lead + (-1, 1))).reshape(out.shape[:3] + (-1,))
    out = out.reshape((len(out),) + fold)
    if axis is not None:
        out = np.add.reduce(out, axis=axis)
    return out.reshape((len(out),) + shape).transpose(perm)


def _chain(keep: tuple, p_xt: np.ndarray, p_u: np.ndarray, p_v: np.ndarray) -> np.ndarray:
    """p(x, kept axes | q) of each system's chain x -> xt -> u -> v, shape
    (b, q, x, kept sizes); `keep` indexes (xt, u, v) in order. The chain runs
    to its last kept axis; a link's matmul sums the axis it leaves behind."""
    out = p_xt[None, None]  # (b, q, x and the kept axes so far, flattened, current axis)
    for axis, link in zip((1, 2), (p_u, p_v)[:keep[-1]]):
        if axis - 1 in keep:
            out = out[..., None] * link[:, :, None]
            out = out.reshape(out.shape[:2] + (-1, out.shape[-1]))
        else:
            out = out @ link
    return out.reshape(out.shape[:2] + (len(p_xt), *((p_xt, p_u, p_v)[i].shape[-1] for i in keep)))


class _Dense(_Source):
    """A dense `JointDist`, such as one supplied to the outer bound, as a source
    of one system whose axes its caller names."""

    def __init__(self, joint: JointDist, arm_names: list[tuple[str, ...]], q: str,
                 x: str) -> None:
        super().__init__(joint.axes, arm_names, q, x)
        self.joint = joint

    def rows(self, names: tuple[str, ...]) -> np.ndarray:
        return self.joint.marginal(names).reorder(names).table[None]
