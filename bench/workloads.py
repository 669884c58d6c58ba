"""Set-up and operation lists of the three workloads, with their correctness checks.

`sfcomp` is reached only through module attributes looked up at call time
(`regions.membership(...)`), so the tracer's rebinding sees every call.

An operation fails when it raises, when a witness does not verify through the
public corner evaluators, when it answers found on a provably outside target,
when a boundary point breaks its bound or beats the Wyner-Ziv oracle, or when
an exact value differs from its reference. Failures come in two kinds. A
*miss* delivers no answer to the question asked: an exception, a not-found on
an inside target, or a boundary point that breaks its own bound (the search
found no feasible point and returned its best infeasible one). A *wrong*
answer asserts something provably false: a found on an outside target, a
witness that does not verify, a point below the rate-distortion curve, a
failing chain check on a product-form system, or an exact value off its
reference. Both count as failed; only wrong answers make the run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from sfcomp import models, multifunction, probability, regions

from oracles import SHIPPED, WynerZivDSBS, dsbs_crossover

EXACT_TOL = 1e-12  # J=1 reduction and inner == outer on product-form systems
BOUND_TOL = 1e-9  # the search's own feasibility tolerance (MEMBERSHIP_TOL)
ORACLE_TOL = 1e-9  # no achievable point may sit below the rate-distortion curve

@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str, wrong: bool = True) -> None:
        """Count one operation; a failure is a wrong answer unless `wrong` is False."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += wrong
            self.failures.append(("wrong: " if wrong else "miss: ") + what)

    def miss(self, what: str) -> None:
        self.check(False, what, wrong=False)


def _alphabet(name: str, n: int) -> probability.Alphabet:
    return probability.Alphabet(name, tuple(str(i) for i in range(n)))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT_TOL


# -- search-lossless ---------------------------------------------------------

def build_search_lossless(spec: dict):
    parsed = models.parse_model_text(spec["yaml"][0])
    targets = [(regions.RateTuple(**t["coords"]), t["inside"], t["reuse"])
               for t in spec["targets"]]
    return parsed.model, parsed.f, targets, regions.SearchBudget(**spec["budget"])


def run_search_lossless(prep, tracer=None) -> PassResult:
    m, f, targets, budget = prep
    res = PassResult()
    found = inside = 0
    witness = None
    for i, (target, is_inside, reuse) in enumerate(targets):
        if tracer is not None:
            tracer.op += 1
        b = replace(budget, candidates=(witness,)) if reuse and witness else budget
        what = f"target {i} ({'inside' if is_inside else 'outside'}, " \
               f"{len(b.candidates)} candidates)"
        inside += is_inside
        try:
            ans = regions.membership(m, f, target, "lossless", b)
            if not is_inside:
                res.check(not ans.found, f"{what}: found on a provably outside target")
                continue
            if not ans.found:
                res.miss(f"{what}: inside by construction, not found")
                continue
            found += 1
            witness = ans.witness
            rates = regions.eval_lossless_corner(m, ans.witness, f)
            ok = rates.dominates(target) and all(
                _close(rates.coords()[k], v) for k, v in ans.achieved.coords().items())
            res.check(ok, f"{what}: witness does not verify")
        except Exception as exc:  # an operation that raises counts as failed
            res.miss(f"{what}: {type(exc).__name__}: {exc}")
    res.quality["found_frac"] = found / inside if inside else 0.0
    return res


# -- trace-lossy -------------------------------------------------------------

def build_trace_lossy(spec: dict):
    parsed = models.parse_model_text(spec["yaml"][0])
    sweep = regions.BoundarySweep("d", tuple(spec["grid"]), "r_w")
    wz = WynerZivDSBS(dsbs_crossover(SHIPPED["p"], SHIPPED["q_dec"]))
    return parsed.model, parsed.f, parsed.d, sweep, regions.SearchBudget(**spec["budget"]), wz


def run_trace_lossy(prep, tracer=None) -> PassResult:
    m, f, d, sweep, budget, wz = prep
    res = PassResult()
    if tracer is not None:
        tracer.op += 1
    try:
        points = regions.trace_boundary(m, f, sweep, "lossy", budget, d=d)
    except Exception as exc:  # an operation that raises counts as failed
        for bound in sweep.grid:
            res.miss(f"d <= {bound:.4f}: {type(exc).__name__}: {exc}")
        return res
    gaps = []
    for bound, pt in zip(sweep.grid, points):
        what = f"d <= {bound:.4f}: returned (d, r_w) = ({pt.d:.4f}, {pt.r_w:.4f})"
        if pt.d > bound + BOUND_TOL:
            res.miss(f"{what} breaks its bound")
        elif pt.r_w < wz.rate(pt.d) - ORACLE_TOL:
            res.check(False, f"{what} beats the Wyner-Ziv curve {wz.rate(pt.d):.6f}")
        else:
            res.check(True, what)
            gaps.append(pt.r_w - wz.rate(bound))
    if len(points) != len(sweep.grid):
        res.check(False, f"{len(points)} points for a grid of {len(sweep.grid)}")
    if gaps:
        res.quality["oracle_gap_bits"] = max(gaps)
    return res


# -- multi-dense -------------------------------------------------------------

def build_multi_dense(spec: dict):
    u_alpha, v_alpha = _alphabet("u", 2), _alphabet("v", 2)
    q = probability.uniform(_alphabet("q", 1))
    ladder = []
    for text in spec["yaml"]:
        parsed = models.parse_model_text(text)
        mm = parsed.multi
        pairs, g_list = [], []
        for j, arm in enumerate(mm.arms):
            a = spec["aux"][j]
            pairs.append(regions.AuxPair(
                probability.CondDist(arm.p_xt_given_x.output, u_alpha, np.array(a["u_rows"])),
                probability.CondDist(u_alpha, v_alpha, np.array(a["v_rows"]))))
            g_list.append(regions.ReconstructionFn(
                u_alpha, arm.p_yz_given_x.output.parts[0], arm.f.output, np.array(a["g"])))
        system = multifunction.MultiAuxSystem(q, tuple((p,) for p in pairs))
        single = regions.AuxSystem(q, (pairs[0],))
        ladder.append((parsed, mm, system, tuple(g_list), single))
    return ladder


def _mf_fields(r) -> tuple[float, ...]:
    return (r.r_s, *r.r_w, r.sum_w, *r.r_dec, r.r_eve, *(r.d or ()))


def run_multi_dense(prep, tracer=None) -> PassResult:
    res = PassResult()
    for parsed, mm, system, g_list, single in prep:
        what = f"J={mm.j}"
        if tracer is not None:
            tracer.op += 1
        inner = None
        try:
            inner = multifunction.eval_inner_mf(mm, system, "lossy", g_list)
            ok = True
            if mm.j == 1:
                ref = regions.eval_lossy_corner(parsed.model, single, parsed.f, g_list[0], parsed.d)
                mine = multifunction.single_arm_tuple(inner)
                ok = all(_close(mine.coords()[k], v) for k, v in ref.coords().items())
            res.check(ok, f"{what} inner: differs from the single-function corner")
        except Exception as exc:  # an operation that raises counts as failed
            res.miss(f"{what} inner: {type(exc).__name__}: {exc}")
        if tracer is not None:
            tracer.op += 1
        try:
            # eval_outer_mf raises ChainViolation on the first failing
            # multi_chain_report check, so a returned report has passed them all.
            outer, _ = multifunction.eval_outer_mf(mm, system, "lossy", g_list)
            same = inner is None or all(
                _close(a, b) for a, b in zip(_mf_fields(outer), _mf_fields(inner)))
            res.check(same, f"{what} outer: differs from inner")
        except multifunction.ChainViolation as exc:
            res.check(False, f"{what} outer: chain check fails on a product-form system: {exc}")
        except Exception as exc:  # an operation that raises counts as failed
            res.miss(f"{what} outer: {type(exc).__name__}: {exc}")
    return res


BUILD = {
    "search-lossless": build_search_lossless,
    "trace-lossy": build_trace_lossy,
    "multi-dense": build_multi_dense,
}
RUN = {
    "search-lossless": run_search_lossless,
    "trace-lossy": run_trace_lossy,
    "multi-dense": run_multi_dense,
}
