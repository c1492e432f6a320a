"""Per-layer microbenchmarks: seeded inputs, a warm-up, then the fastest
of several timed rounds, each round the mean time per call over its
inputs. A round is short, so the fastest is one that no slow moment of
the host touched."""

from __future__ import annotations

import random
from time import perf_counter
from typing import Callable

ROUNDS = 7


def _per_call(fn: Callable, inputs: list) -> float:
    for x in inputs[:2]:
        fn(x)
    rounds = []
    for _ in range(ROUNDS):
        start = perf_counter()
        for x in inputs:
            fn(x)
        rounds.append((perf_counter() - start) / len(inputs))
    return min(rounds)


def run(zc, seed: int) -> tuple[dict[str, float], list[str]]:
    """Return ({metric: value}, [metrics whose target no longer exists])."""
    rng = random.Random(seed)
    family = [zc.schwartz.make_test_function(k) for k in (0, 1, 2)]

    def uniform(lo: float, hi: float, n: int) -> list[float]:
        return [rng.uniform(lo, hi) for _ in range(n)]

    def pairs(lo: float, hi: float, n: int) -> list[tuple]:
        return [(family[i % 3], rng.uniform(lo, hi)) for i in range(n)]

    def unpack(**kw):
        return lambda f: (lambda a: f(*a, **kw))

    # metric -> (target function, adapter from it to a one-argument call,
    # inputs, scale to the metric's unit)
    benches = {
        "specfun.zeta_em_us": ("specfun.zeta_critical", None, uniform(1.0, 100.0, 100), 1e6),
        # t >= 100 takes the Riemann-Siegel branch at the default threshold
        "specfun.zeta_rs_us": ("specfun.zeta_critical", None, uniform(100.0, 260.0, 20), 1e6),
        "specfun.riemann_siegel_Z_us": (
            "specfun.riemann_siegel_Z", None, uniform(1.0, 100.0, 100), 1e6),
        "specfun.log_gamma_us": (
            "specfun.log_gamma", None, [0.25 + 0.5j * t for t in uniform(1.0, 260.0, 200)], 1e6),
        "specfun.zeta_jet_us": (
            "specfun.zeta_jet", lambda f: (lambda t: f(t, 4)), uniform(10.0, 60.0, 10), 1e6),
        "schwartz.mellin_psi_closed_us": (
            "schwartz.mellin_psi", unpack(), pairs(-60.0, 60.0, 200), 1e6),
        "schwartz.mellin_psi_quad_us": (
            "schwartz.mellin_psi", unpack(method="quadrature"), pairs(-8.0, 8.0, 12), 1e6),
        "operators.fourier_direct_N32_ms": (
            "operators.fourier_direct", unpack(N=32), pairs(0.8, 1.4, 3), 1e3),
        "operators.fourier_closed_N32_ms": (
            "operators.fourier_closed", unpack(N=32), pairs(0.8, 1.4, 3), 1e3),
    }
    values: dict[str, float] = {}
    missing: list[str] = []
    for name, (target, adapt, inputs, scale) in benches.items():
        module, _, attr = target.partition(".")
        fn = getattr(getattr(zc, module), attr, None)
        if fn is None:
            missing.append(name)
            continue
        values[name] = _per_call(adapt(fn) if adapt else fn, inputs) * scale
    return values, missing
