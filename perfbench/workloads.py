"""Seeded inputs for the benchmark workloads.

Every workload is a stream of rounds.  A round holds one input from each
stratum of the workload, and a run stops only at a round boundary, so the
traffic mix of a run does not depend on where the time limit falls.  Inputs
are distinct within a run.  The warm-up set comes from a stream of its own
and shares no input with the timed stream, because a CLI user starts every
process with cold caches.

An op is ``(argv, meta)``: ``argv`` is what ``eqcrit.cli.main`` receives and
``meta`` is what the output checker needs to know about how it was built.
Nothing here imports eqcrit.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

Op = tuple[list[str], dict]
Round = list[Op]

FIELDS = ("qq", "q-sqrt3", "q-omega", "q-zeta12")
TOKENS = ("inf", "rho", "rho-bar", "omega", "omega2", "m2omega", "m2omega2",
          "omega-rho", "omega2-rho", "omega-rho-bar", "omega2-rho-bar")

PAIR_T_HEIGHT = 1000
LIFT_POINT_HEIGHT = 10
LIFT_VALUE_HEIGHT = 15000
WEYL_T_RANGE = range(-60, 61)
# One prime per band and round, in increasing order, so that the allocation
# pattern, and with it the peak RSS, is the same on every seed.  There is an
# odd number of bands, so the median op falls inside the middle band, and the
# top band is narrow, so the largest prime of a run is close to 3000.
WEYL_PRIME_BANDS = ((1000, 1150), (1350, 1500), (1800, 1900), (2300, 2450),
                    (2950, 3002))


def height(r: Fraction) -> int:
    return max(abs(r.numerator), r.denominator)


def random_rational(rng: random.Random, bound: int) -> Fraction:
    """A rational whose numerator and denominator are at most ``bound``."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def theta(points: list[Fraction]) -> list[Fraction]:
    """Critical values of x^4 - (4/3) e1 x^3 + 2 e2 x^2 - 4 e3 x, the
    normalized quartic whose derivative is 4 (x - x1)(x - x2)(x - x3)."""
    x1, x2, x3 = points
    e1, e2, e3 = x1 + x2 + x3, x1 * x2 + x1 * x3 + x2 * x3, x1 * x2 * x3

    def f(x):
        return x ** 4 - Fraction(4, 3) * e1 * x ** 3 + 2 * e2 * x ** 2 - 4 * e3 * x

    return [f(x) for x in points]


@functools.lru_cache(maxsize=None)
def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi, by trial division."""
    return [n for n in range(max(lo, 2), hi)
            if all(n % d for d in range(2, int(n ** 0.5) + 1))]


# -- one op of each kind ---------------------------------------------------


def _pair_op(t: Fraction, field: str) -> Op:
    argv = ["pair", f"--t={t}"]
    if field != "qq":
        argv += ["--field", field]
    return argv, {"t": str(t), "field": field, "token": False}


def _rational_t(rng: random.Random) -> Fraction:
    while True:
        t = random_rational(rng, PAIR_T_HEIGHT)
        if t not in (0, 1, -2):
            return t


def _lift_op(rng: random.Random, built: str) -> Op:
    while True:
        if built == "theta":
            points = [random_rational(rng, LIFT_POINT_HEIGHT) for _ in range(3)]
            if len(set(points)) < 3:
                continue
            ys = theta(points)
        else:
            ys = [random_rational(rng, LIFT_VALUE_HEIGHT) for _ in range(3)]
        if len(set(ys)) == 3:
            break
    argv = ["lift"] + [f"--y{i}={y}" for i, y in enumerate(ys, 1)]
    return argv, {"built": built, "y": [str(y) for y in ys]}


def _weyl_op(rng: random.Random, band: tuple[int, int]) -> Op:
    p = rng.choice(primes_between(*band))
    t = rng.choice([t for t in WEYL_T_RANGE if t not in (0, 1, -2)])
    a = rng.randint(1, p - 1)
    return (["weyl", "--t", str(t), "--p", str(p), "--a", str(a)],
            {"t": t, "p": p, "a": a})


# -- rounds ------------------------------------------------------------------

SYMBOLIC = [(token, field) for field in FIELDS for token in TOKENS]


def _pairs_round(rng: random.Random, index: int, warm: bool) -> Round:
    ops = [_pair_op(_rational_t(rng), field) for field in FIELDS]
    # The symbolic combinations are few, so each appears once per run, in
    # every other round from the first on, which spreads them over about the
    # first 90 rounds; the warm-up uses rational t only.
    if not warm and index % 2 == 0 and index // 2 < len(SYMBOLIC):
        token, field = SYMBOLIC[index // 2]
        argv = ["pair", "--t", token, "--field", field]
        ops.append((argv, {"t": token, "field": field, "token": True}))
    rng.shuffle(ops)
    return ops


def _lift_round(rng: random.Random, index: int, warm: bool) -> Round:
    # One theta-built triple to three random ones: the two kinds differ in
    # cost by a factor of about three, and with one of each the median op
    # would fall in the gap between them and jump from run to run.
    ops = [_lift_op(rng, "theta")] + [_lift_op(rng, "random") for _ in range(3)]
    rng.shuffle(ops)
    return ops


def _weyl_round(rng: random.Random, index: int, warm: bool) -> Round:
    # The warm-up op comes from the cheapest band, to keep set-up short.
    bands = WEYL_PRIME_BANDS[:1] if warm else WEYL_PRIME_BANDS
    return [_weyl_op(rng, band) for band in bands]


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, int, bool], Round]
    warm_rounds: int
    pool_rounds: int        # rounds generated during set-up
    # Fixed, so that runs stay comparable: the highest of 50, 90, 95 and 99
    # that leaves ten ops beyond it, with room to spare, in a run at the seed
    # commit.
    tail_percentile: float

    def streams(self, seed: int) -> tuple[list[Op], Iterator[Round]]:
        """The warm-up ops and the timed rounds for one seed."""
        warm_rng = random.Random(f"{self.name}:{seed}:warm")
        timed_rng = random.Random(f"{self.name}:{seed}:timed")
        warm = [op for i in range(self.warm_rounds)
                for op in self.make_round(warm_rng, i, True)]
        seen = {tuple(argv) for argv, _ in warm}

        def timed() -> Iterator[Round]:
            for i in itertools.count():
                rnd = [op for op in self.make_round(timed_rng, i, False)
                       if tuple(op[0]) not in seen]
                seen.update(tuple(argv) for argv, _ in rnd)
                if rnd:
                    yield rnd

        return warm, timed()


WORKLOADS = {w.name: w for w in (
    Workload("pairs", _pairs_round, warm_rounds=1, pool_rounds=800,
             tail_percentile=95),
    Workload("lift-qq", _lift_round, warm_rounds=1, pool_rounds=600,
             tail_percentile=95),
    Workload("weyl-p2", _weyl_round, warm_rounds=1, pool_rounds=40,
             tail_percentile=50),
)}


def input_summary(name: str, ops: list[Op]) -> dict:
    """The size of the traffic a run sent, so that a change to it shows."""
    metas = [meta for _, meta in ops]
    if not metas:
        return {}
    if name == "pairs":
        heights = sorted(height(Fraction(m["t"])) for m in metas if not m["token"])
        fields = {f: sum(m["field"] == f for m in metas) for f in FIELDS}
        return {"t_height_max": heights[-1] if heights else None,
                "t_height_median": heights[len(heights) // 2] if heights else None,
                "symbolic_ops": sum(m["token"] for m in metas),
                "ops_per_field": fields}
    if name == "lift-qq":
        bits = sorted(max(height(Fraction(y)) for y in m["y"]).bit_length()
                      for m in metas)
        return {"y_height_bits_median": bits[len(bits) // 2],
                "y_height_bits_max": bits[-1],
                "theta_built": sum(m["built"] == "theta" for m in metas),
                "random": sum(m["built"] == "random" for m in metas),
                "critical_point_height_max": LIFT_POINT_HEIGHT,
                "random_value_height_max": LIFT_VALUE_HEIGHT}
    ps = [m["p"] for m in metas]
    ts = [m["t"] for m in metas]
    return {"p_min": min(ps), "p_max": max(ps), "t_min": min(ts), "t_max": max(ts)}
