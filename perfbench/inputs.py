"""Workload inputs, made from the seed alone.

Seed 0 gives the fixed inputs every figure in the repository refers to.
Any other seed draws admissible inputs of the same shape: the same grid,
horizon, cell and config counts, families and certificate branches. The
saturating alpha keeps k/tau = 1/2 exactly, so the step size, and with it the
step and snapshot counts, are the same for every seed.
"""

from __future__ import annotations

import itertools
import random
from copy import deepcopy

# README reference config (T = 10, used at N = 200, sample_every = 10)
REFERENCE = {
    "damping": {"a": 1.0, "b": 1.0, "rho": 1.0},
    "beta": {"variant": "exponential", "beta0": 1.0, "mu": 0.1},
    "alpha": {"variant": "saturating", "k": 0.5, "tau": 1.0},
    "init": {"variant": "sine", "m": 1, "amp_u0": 1.0, "amp_u1": 0.0},
    "horizon": 10.0,
}
MANUFACTURED = {"amp": 1.0, "rate": 1.0, "mode": 1}
SWEEP_AXES = {"mu": [0.0, 0.1, 0.5, 2.0], "rho": [1.0, 3.0]}


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _near(rng: random.Random, x: float, rel: float) -> float:
    return _draw(rng, (1.0 - rel) * x, (1.0 + rel) * x)


def _saturating(rng: random.Random) -> dict:
    k = _draw(rng, 0.3, 0.7)
    return {"variant": "saturating", "k": k, "tau": 2.0 * k}


def reference_config(seed: int) -> dict:
    if seed == 0:
        return deepcopy(REFERENCE)
    rng = random.Random(f"reference-{seed}")
    return {
        "damping": {"a": _draw(rng, 0.8, 1.5), "b": _draw(rng, 0.5, 2.0), "rho": _draw(rng, 0.5, 2.0)},
        "beta": {"variant": "exponential", "beta0": _draw(rng, 0.5, 2.0), "mu": _draw(rng, 0.0, 0.2)},
        "alpha": _saturating(rng),
        "init": {
            "variant": "sine",
            "m": rng.choice([1, 2]),
            "amp_u0": _draw(rng, 0.5, 1.5),
            "amp_u1": _draw(rng, -0.5, 0.5),
        },
        "horizon": 10.0,
    }


def convergence_config(seed: int) -> dict:
    """Reference config on T = 2 with a manufactured solution (mode 1)."""
    if seed == 0:
        cfg = deepcopy(REFERENCE)
        cfg["manufactured"] = dict(MANUFACTURED)
    else:
        rng = random.Random(f"convergence-{seed}")
        cfg = reference_config(seed)
        # rho >= 1 keeps |u|^rho u smooth enough for second-order convergence
        cfg["damping"]["rho"] = _draw(rng, 1.0, 2.0)
        cfg["manufactured"] = {"amp": _draw(rng, 0.5, 1.5), "rate": _draw(rng, 0.5, 1.5), "mode": 1}
    cfg["horizon"] = 2.0
    return cfg


def sweep_config(seed: int) -> dict:
    """Reference base on T = 4 over mu x rho: 8 cells, exactly one empty window.

    With a = b = 1 the window top is 0.6389; the cell with the largest mu and
    the smaller rho has lambda_lo = mu/(rho+1) >= 0.92 above it, every other
    cell stays below 0.55. Other seeds move every drawn value by at most 5%,
    because wider draws changed the CPU time of a sweep by up to 4%.
    """
    base, axes = deepcopy(REFERENCE), deepcopy(SWEEP_AXES)
    if seed != 0:
        rng = random.Random(f"sweep-{seed}")
        k = _near(rng, 0.5, 0.05)
        base["beta"]["beta0"] = _near(rng, 1.0, 0.05)
        base["alpha"] = {"variant": "saturating", "k": k, "tau": 2.0 * k}
        base["init"]["amp_u0"] = _near(rng, 1.0, 0.05)
        axes = {
            "mu": [0.0] + [_near(rng, mu, 0.05) for mu in SWEEP_AXES["mu"][1:]],
            "rho": [_near(rng, rho, 0.05) for rho in SWEEP_AXES["rho"]],
        }
    base["horizon"] = 4.0
    return {"base": base, "axes": axes}


def sweep_cells(sweep: dict) -> list[dict]:
    """Cell configs in the CLI's order (axes sorted by name, last one fastest)."""
    names = sorted(sweep["axes"])
    cells = []
    for combo in itertools.product(*(sweep["axes"][n] for n in names)):
        cfg = deepcopy(sweep["base"])
        for name, value in zip(names, combo):
            if name == "mu":
                cfg["beta"]["mu"] = value
            else:
                cfg["damping"][name] = value
        cells.append(cfg)
    return cells


def screen_configs(seed: int) -> list[dict]:
    """168 certify inputs: a x b x rho x 7 beta x 3 alpha.

    b = 0 takes the Poincare branch, b > 0 the standard one; the three
    polynomials (linear, quadratic, cubic) take the golden-section path of
    lambda_lo. Seed 0 gives 127 certificates and 41 empty windows.

    The work of a certify call depends on where lambda_hi falls in the scan
    over [0, a] and on whether the window is empty, so other seeds move a, b
    and k by at most 1% and draw each growth rate of beta inside an interval
    that keeps lambda_lo = sup beta'/((rho+1) beta) between the same two
    window tops: every seed but 0 gives 126 certificates and 42 empty windows.
    """
    if seed == 0:
        levels = {
            "a": [0.5, 2.0],
            "b": [0.0, 1.0],
            "rho": [1.0, 3.0],
            "mu": [0.0, 0.3, 1.0],
            "beta0": 1.0,
            "poly": [[1.0, 0.1], [1.0, 0.0, 0.1], [1.0, 0.0, 0.0, 1.0]],
            "c": 1.0,
            "saturating": {"variant": "saturating", "k": 0.5, "tau": 1.0},
            "affine_k": 0.2,
        }
    else:
        rng = random.Random(f"screen-{seed}")

        def near(x):
            return _near(rng, x, 0.01)

        k = near(0.5)
        levels = {
            "a": [near(0.5), near(2.0)],
            "b": [0.0, near(1.0)],
            "rho": [_draw(rng, 0.9, 1.1), _draw(rng, 2.8, 3.2)],
            "mu": [0.0, _draw(rng, 0.23, 0.245), _draw(rng, 0.9, 1.05)],
            "beta0": _draw(rng, 0.5, 2.0),
            "poly": [
                [1.0, _draw(rng, 0.06, 0.08)],
                [1.0, 0.0, _draw(rng, 0.18, 0.25)],
                [1.0, 0.0, 0.0, _draw(rng, 0.8, 1.2)],
            ],
            "c": _draw(rng, 0.5, 2.0),
            "saturating": {"variant": "saturating", "k": k, "tau": 2.0 * k},
            "affine_k": near(0.2),
        }
    betas = (
        [{"variant": "exponential", "beta0": levels["beta0"], "mu": mu} for mu in levels["mu"]]
        + [{"variant": "polynomial", "coeffs": p} for p in levels["poly"]]
        + [{"variant": "constant", "c": levels["c"]}]
    )
    alphas = [
        levels["saturating"],
        {"variant": "affine", "k": levels["affine_k"]},
        {"variant": "constant"},
    ]
    return [
        {
            "damping": {"a": a, "b": b, "rho": rho},
            "beta": deepcopy(beta),
            "alpha": deepcopy(alpha),
            "init": deepcopy(REFERENCE["init"]),
            "horizon": 10.0,
        }
        for a, b, rho, beta, alpha in itertools.product(
            levels["a"], levels["b"], levels["rho"], betas, alphas
        )
    ]

