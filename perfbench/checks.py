"""Output checks applied to every benchmark run.

Each function returns a list of problems (empty when the output is correct),
so the harness can count failures instead of stopping at the first one.
"""

from __future__ import annotations

import math

POSTERIOR_SUM_TOL = 1e-9
# The violation-rate check rejects a run only when its violation count is
# this unlikely under the frozen bar; a plain rate comparison on the few
# dozen episodes of one run would fire on ordinary sampling noise.
VIOLATION_ALPHA = 1e-4
# plan_step_ms_p95 is reported only with at least this many samples above it.
MIN_ABOVE_P95 = 10


def episode_problems(log, epsilon: float) -> list[str]:
    """Chance constraint on every feasible step and normalised posteriors."""
    problems = []
    threshold = 1.0 - epsilon
    for rec in log.records:
        total = math.fsum(rec.posteriors)
        if abs(total - 1.0) > POSTERIOR_SUM_TOL:
            problems.append(f"seed {log.seed} t={rec.t}: posterior sums to {total!r}")
        if rec.feasible and rec.constraint_probability < threshold:
            problems.append(
                f"seed {log.seed} t={rec.t}: feasible plan with constraint "
                f"probability {rec.constraint_probability!r} < {threshold!r}"
            )
    return problems


def binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0

    def log_pmf(i: int) -> float:
        return (math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                + i * math.log(p) + (n - i) * math.log1p(-p))

    return math.fsum(math.exp(log_pmf(i)) for i in range(k, n + 1))


def violation_problems(violations: int, episodes: int, bar: float) -> list[str]:
    """Violation count consistent with a true rate at or below ``bar``."""
    tail = binomial_tail(violations, episodes, bar)
    if tail < VIOLATION_ALPHA:
        return [
            f"{violations}/{episodes} episodes violated the safe set; "
            f"P(>= {violations} | rate {bar}) = {tail:.2e} < {VIOLATION_ALPHA}"
        ]
    return []


def p95_sample_problems(above: int) -> list[str]:
    """Enough planning steps above p95 for the percentile to mean something."""
    if above < MIN_ABOVE_P95:
        return [f"only {above} planning steps above p95, fewer than {MIN_ABOVE_P95}"]
    return []


def replay_problems(first: bytes, replay: bytes) -> list[str]:
    """The same (config, level, seed) must give a byte-identical CSV."""
    if first != replay:
        return ["replaying the first episode gave a different episode CSV"]
    return []


def cache_problems(before: dict, after: dict, what: str) -> list[str]:
    """A warm start must read the cache and leave its files untouched."""
    if not before:
        return [f"{what}: cache directory is empty"]
    if before != after:
        return [f"{what}: cache files changed, so the start-up rebuilt the hierarchy"]
    return []


def hash_problems(built: str, reloaded: str) -> list[str]:
    if built != reloaded:
        return [f"content hash {reloaded} on reload differs from build {built}"]
    return []
