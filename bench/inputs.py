"""Seeded inputs for the three workloads: model YAML text, targets, grids, budgets.

Stdlib only, so a set-up timing can generate its inputs before importing
numpy or `sfcomp`. The same (workload, seed) always gives the same inputs.
"""

from __future__ import annotations

import random

from oracles import SHIPPED, WynerZivDSBS, dsbs_crossover, identity_corner, lossless_floor

# Budgets are fixed per workload; the seed moves targets, grids and channels.
# They are sized for run length: a pass of a few seconds, so a run holds
# several passes to average over. Coordinate descent stops early only
# after 18 sweeps without improvement (0.25 halved down to min_step 1e-6);
# at 10 and 30 sweeps that never or rarely happens, so the evaluation count
# barely moves with the seed.
LOSSLESS_SIZES = {"u_size": 4, "v_size": 3, "q_size": 2}
LOSSLESS_BUDGET = {"restarts": 1, "iters": 10}
LOSSLESS_OUTSIDE = 1
LOSSLESS_INSIDE = 2  # per outside target: one plain, one offered the last witness
LOSSY_SIZES = {"u_size": 2, "v_size": 1, "q_size": 2}
LOSSY_BUDGET = {"restarts": 1, "iters": 30}
MULTI_J_MAX = 4

XOR = [["0", "1"], ["1", "0"]]
XT_PROJECTION = [["0", "0"], ["1", "1"]]
HAMMING = [["0", "1"], ["1", "0"]]


def _bsc(e: float) -> list[list[float]]:
    return [[1.0 - e, e], [e, 1.0 - e]]


def _cascade_yz(q_dec: float, q_eve: float) -> list[list[float]]:
    """Rows P(y, z | x) over the product labels (y, z) in C order."""
    py, pz = _bsc(q_dec), _bsc(q_eve)
    return [[py[x][y] * pz[y][z] for y in range(2) for z in range(2)] for x in range(2)]


def _rows(rows) -> str:
    return "".join("  - [" + ", ".join(f'"{v!r}"' if isinstance(v, float) else f'"{v}"'
                                       for v in row) + "]\n" for row in rows)


def _arm_block(p: float, q_dec: float, q_eve: float, f_rows, indent: str) -> str:
    body = (f"p_xtilde_given_x:\n{_rows(_bsc(p))}"
            f"p_yz_given_x:\n{_rows(_cascade_yz(q_dec, q_eve))}"
            f"function_table:\n{_rows(f_rows)}"
            f"distortion_table:\n{_rows(HAMMING)}")
    return "".join(indent + line + "\n" for line in body.splitlines())


def cascade_yaml(arm: dict, f_rows, multi: list[dict] | None = None) -> str:
    """Model file of a binary cascade; `multi` adds one arm block per entry."""
    text = ("alphabets:\n"
            '  x: ["0", "1"]\n  xtilde: ["0", "1"]\n  y: ["0", "1"]\n'
            '  z: ["0", "1"]\n  f: ["0", "1"]\n'
            'p_x: ["0.5", "0.5"]\n'
            + _arm_block(arm["p"], arm["q_dec"], arm["q_eve"], f_rows, ""))
    if multi:
        text += "multi:\n"
        for a in multi:
            block = _arm_block(a["p"], a["q_dec"], a["q_eve"], f_rows, "    ")
            text += "  - " + block[4:]
    return text


def _dirichlet_row(rng: random.Random, n: int) -> list[float]:
    w = [rng.gammavariate(1.0, 1.0) for _ in range(n)]
    s = sum(w)
    return [v / s for v in w]


def search_lossless(seed: int) -> dict:
    """Outside targets sit under the r_w floor; inside ones over the minimal corner."""
    rng = random.Random(seed)
    floor = lossless_floor(SHIPPED["p"], SHIPPED["q_dec"])
    corner = identity_corner(SHIPPED["p"], SHIPPED["q_dec"])
    targets = []
    for _ in range(LOSSLESS_OUTSIDE):
        t = {k: v + rng.uniform(0.05, 0.3) for k, v in corner.items()}
        t["r_w"] = floor - rng.uniform(0.02, 0.2)
        targets.append({"coords": t, "inside": False, "reuse": False})
        for n in range(LOSSLESS_INSIDE):
            t = {k: v + rng.uniform(0.005, 0.1) for k, v in corner.items()}
            targets.append({"coords": t, "inside": True, "reuse": n % 2 == 1})
    return {
        "yaml": [cascade_yaml(SHIPPED, XOR)],
        "targets": targets,
        "budget": dict(LOSSLESS_BUDGET, **LOSSLESS_SIZES, seed=rng.getrandbits(32)),
    }


def trace_lossy(seed: int) -> dict:
    """Grid of distortion bounds with one point below d_c and two above it."""
    rng = random.Random(seed)
    wz = WynerZivDSBS(dsbs_crossover(SHIPPED["p"], SHIPPED["q_dec"]))
    grid = [rng.uniform(0.02, 0.9 * wz.d_c), rng.uniform(0.07, 0.10), rng.uniform(0.12, 0.16)]
    return {
        "yaml": [cascade_yaml(SHIPPED, XT_PROJECTION)],
        "grid": grid,
        "budget": dict(LOSSY_BUDGET, **LOSSY_SIZES, seed=rng.getrandbits(32)),
    }


def multi_dense(seed: int) -> dict:
    """J = 1..4 ladder over one list of cascade arms, with random lossy auxiliaries."""
    rng = random.Random(seed)
    arms = [{"p": rng.uniform(0.03, 0.12), "q_dec": rng.uniform(0.08, 0.2),
             "q_eve": rng.uniform(0.1, 0.3)} for _ in range(MULTI_J_MAX)]
    aux = [{"u_rows": [_dirichlet_row(rng, 2) for _ in range(2)],
            "v_rows": [_dirichlet_row(rng, 2) for _ in range(2)],
            "g": [[rng.randrange(2) for _ in range(2)] for _ in range(2)]}
           for _ in range(MULTI_J_MAX)]
    return {
        "yaml": [cascade_yaml(arms[0], XOR, arms[:j]) for j in range(1, MULTI_J_MAX + 1)],
        "aux": aux,
    }


GENERATORS = {
    "search-lossless": search_lossless,
    "trace-lossy": trace_lossy,
    "multi-dense": multi_dense,
}


def make(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)
