"""Weyl sums mod p^2 for equicritical integral pairs: the direct O(p^2)
sum, the critical-point reduced formula, and the paired check that the two
scaled family members produce identical sums."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DegenerateLeadingCoefficient, NotCoprime, NotPrime,
                     PoleAtT, VerificationError)
from .family import f_t, g_t

MAX_PRIME = 10_000


def is_prime(p: int) -> bool:
    """Trial division; desk-scale inputs only."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def check_prime(p: int) -> None:
    if p > MAX_PRIME:
        raise ValueError(f"p = {p} exceeds the desk-scale bound {MAX_PRIME}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


@dataclass(frozen=True)
class FpPoly:
    """Integer polynomial reduced mod q (q = p or p^2).

    The coefficient tuple keeps its declared length so that a leading
    coefficient that vanished in the reduction stays detectable.
    """

    p: int
    q: int
    coeffs: tuple[int, ...]

    @classmethod
    def reduce(cls, coeffs, p: int, power: int = 1) -> "FpPoly":
        q = p ** power
        return cls(p, q, tuple(int(c) % q for c in coeffs))

    @property
    def degree(self) -> int | None:
        """Actual degree after reduction (None for the zero polynomial)."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return None

    def degenerate_leading(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] % self.p == 0

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.q
        return acc

    def derivative(self) -> "FpPoly":
        return FpPoly(self.p, self.q,
                      tuple(c * i % self.q
                            for i, c in enumerate(self.coeffs) if i >= 1))


def _fp_roots_with_multiplicity(f: FpPoly) -> list[tuple[int, int]]:
    """Roots of f in F_p with multiplicity, by exhaustive scan plus
    repeated synthetic division (q must be p)."""
    p = f.p
    out = []
    for v in range(p):
        if f(v) != 0:
            continue
        mult = 0
        cs = list(f.coeffs)
        while len(cs) >= 2:
            # synthetic division of cs by (x - v) mod p
            quot = [0] * (len(cs) - 1)
            acc = 0
            for i in range(len(cs) - 1, 0, -1):
                acc = (acc * v + cs[i]) % p
                quot[i - 1] = acc
            if (acc * v + cs[0]) % p != 0:
                break
            mult += 1
            cs = quot
        out.append((v, mult))
    return out


# x values per block of the direct sum: each block's terms are summed as
# one array, so the block length fixes the summation order and with it the
# bits of the result.
_BLOCK = 1 << 16
# x values per pass inside a block: the int64 working arrays of one slice
# (64 KB each) stay in the CPU cache between the passes of Horner's rule.
_SLICE = 1 << 13


def weyl_direct(f: FpPoly, a: int, p: int) -> complex:
    """(1/p) sum over x mod p^2 of e(a f(x)/p^2); O(p^2) terms, evaluated
    in blocks of fixed size.

    Every term is computed from f's coefficients, independently of the
    critical-point reduction that it cross-checks.  Each residue
    r = a f(x) mod p^2 splits exactly as r = hi p + lo with hi, lo < p, so
    e(r/p^2) = e(hi/p) e(lo/p^2) comes from two tables of p entries.

    Working memory is fixed whatever p is: three int64 arrays of one slice
    (x, the Horner value r, and a scratch array) and one complex array of
    one block for the phases, all allocated once.  The slices of a block
    fill its phase array and the block is then summed whole, so the sum
    adds the same terms in the same order as a block evaluated in one pass.
    """
    import numpy as np  # here, so that importing eqcrit does not load numpy

    check_prime(p)
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"gcd({a}, {p}) != 1")
    q = p * p
    if f.q != q:
        raise ValueError("polynomial must be reduced mod p^2")
    # Horner on a f(x) mod q in int64: operands stay below q < 2^27
    # (MAX_PRIME^2), so products stay below 2^54.  Every value is
    # nonnegative, so r - (r // q) q is r mod q; floor division by a scalar
    # is a multiply-and-shift in numpy, where % is a hardware division.
    coeffs = [a * c % q for c in reversed(f.coeffs)] or [0]
    k = np.arange(p)
    e_hi = np.exp((2j * np.pi / p) * k)
    e_lo = np.exp((2j * np.pi / q) * k)
    width = min(_SLICE, q)
    offsets = np.arange(width, dtype=np.int64)
    x_buf, r_buf, tmp_buf = (np.empty(width, dtype=np.int64) for _ in range(3))
    phases = np.empty(min(_BLOCK, q), dtype=np.complex128)
    total = 0j
    for start in range(0, q, _BLOCK):
        stop = min(start + _BLOCK, q)
        for x0 in range(start, stop, width):
            n = min(width, stop - x0)
            x, r, tmp = x_buf[:n], r_buf[:n], tmp_buf[:n]
            np.add(offsets[:n], x0, out=x)
            r.fill(coeffs[0])
            for c in coeffs[1:]:
                r *= x
                r += c
                np.floor_divide(r, q, out=tmp)
                tmp *= q
                r -= tmp
            # r = hi p + lo; x is spent, so lo takes its buffer
            hi = np.floor_divide(r, p, out=tmp)
            lo = np.multiply(hi, p, out=x)
            np.subtract(r, lo, out=lo)
            # bounds-checked gathers: hi and lo are below p by construction
            np.multiply(e_hi[hi], e_lo[lo],
                        out=phases[x0 - start:x0 - start + n])
        total += complex(phases[:stop - start].sum())
    return total / p


def critical_residues(f: FpPoly, a: int, p: int) -> list[int]:
    """a f(u) mod p^2 for each u in [0, p) with f'(u) = 0 mod p, in
    increasing u.

    Splitting x = u + pv gives f(u + pv) = f(u) + pv f'(u) mod p^2 for every
    u, so the direct sum collapses to sum of e(r/p^2) over these residues r
    whenever gcd(a, p) = 1.  Equal residue multisets for two polynomials
    therefore prove their mod-p^2 Weyl sums equal, exactly.
    """
    check_prime(p)
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"gcd({a}, {p}) != 1")
    q = p * p
    if f.q != q:
        raise ValueError("polynomial must be reduced mod p^2")
    if not f.coeffs or f.degenerate_leading():
        raise DegenerateLeadingCoefficient("leading coefficient vanishes mod p")
    fp = f.derivative()
    return [a * f(u) % q for u in range(p) if fp(u) % p == 0]


def _phase_sum(residues: list[int], q: int) -> complex:
    """Sum of e(r/q) over the residues, in their order."""
    total = 0j
    for r in residues:
        total += cmath.exp(2j * cmath.pi * r / q)
    return total


def weyl_reduced(f: FpPoly, a: int, p: int) -> complex:
    """The critical-point reduction of the mod-p^2 Weyl sum:
    sum of e(a f(v)/p^2) over v in F_p with f'(v) = 0 mod p, in O(p) terms
    (see critical_residues)."""
    return _phase_sum(critical_residues(f, a, p), p * p)


def crit_values_mod_p(f: FpPoly, p: int) -> tuple[list[int], int, int]:
    """({f(v) : f'(v) = 0}, with the root multiplicity of f', as a sorted
    list), the number of derivative roots found with multiplicity, and
    deg f'."""
    check_prime(p)
    if f.q != p:
        raise ValueError("polynomial must be reduced mod p")
    if not f.coeffs or f.degenerate_leading():
        raise DegenerateLeadingCoefficient("leading coefficient vanishes mod p")
    fp = f.derivative()
    values = []
    found = 0
    for v, mult in _fp_roots_with_multiplicity(fp):
        values.extend([f(v)] * mult)
        found += mult
    deg = fp.degree if fp.degree is not None else 0
    return sorted(values), found, deg


@dataclass
class WeylReport:
    """Paired Weyl-sum verification at (t, p, a)."""

    p: int
    a: int
    t: int
    direct_f: complex
    direct_g: complex
    reduced_f: complex
    reduced_g: complex
    crit_found_f: int
    crit_found_g: int
    crit_expected: int
    exact_multiset_equal: bool
    exact_p2_multiset_equal: bool
    guards: dict
    tolerance: float

    @property
    def pair_difference(self) -> float:
        return abs(self.direct_f - self.direct_g)

    @property
    def within_tolerance(self) -> bool:
        return (self.pair_difference < self.tolerance
                and abs(self.direct_f - self.reduced_f) < self.tolerance
                and abs(self.direct_g - self.reduced_g) < self.tolerance)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p, "a": self.a, "t": self.t,
            "W_f": [self.direct_f.real, self.direct_f.imag],
            "W_g": [self.direct_g.real, self.direct_g.imag],
            "reduced_f": [self.reduced_f.real, self.reduced_f.imag],
            "reduced_g": [self.reduced_g.real, self.reduced_g.imag],
            "exact_multiset_equal": self.exact_multiset_equal,
            "exact_p2_multiset_equal": self.exact_p2_multiset_equal,
            "crit_rational": [self.crit_found_f, self.crit_found_g],
            "guards": self.guards,
            "pair_difference": self.pair_difference,
            "within_tolerance": self.within_tolerance,
        }


def default_tolerance(p: int) -> float:
    # error accumulation over p^2 complex exponentials
    return 1e-9 if p <= 500 else 1e-7


def scaled_integral_pair(t: int) -> tuple[list[int], list[int]]:
    """F = 3(t+2)^4 f_t and G = 3(t+2)^4 g_t as integer coefficient lists."""
    if t in (1, -2):
        raise PoleAtT(f"t = {t} is outside the integral family")
    scale = Fraction(3 * (t + 2) ** 4)
    out = []
    for poly in (f_t(Fraction(t)), g_t(Fraction(t))):
        coeffs = []
        for c in poly.coeffs:
            v = c.as_rational() * scale
            if v.denominator != 1:
                raise ArithmeticError("scaled family member is not integral")
            coeffs.append(int(v))
        out.append(coeffs)
    return out[0], out[1]


def fd_pair_check(t: int, p: int, a: int,
                  tolerance: float | None = None) -> WeylReport:
    """Build the integral pair F = 3(t+2)^4 f_t, G = 3(t+2)^4 g_t, reduce
    mod p and p^2, compute all four Weyl values, and check the exact value
    multisets {a F(v) mod p : F'(v) = 0} and {a F(u) mod p^2 : F'(u) = 0
    mod p} against G's; equality of the second proves W_F = W_G exactly,
    and the check fails closed: VerificationError when they differ.  The
    float comparisons (within_tolerance) are reported as a cross-check.

    Preconditions: p > 3 prime, gcd(a, p) = 1, p does not divide t(t-1)
    (the stated condition) nor 3(t+2) (leading-coefficient guard; a
    strengthening recorded in the guards map when it is the binding one).
    """
    check_prime(p)
    if p <= 3:
        raise NotPrime("need p > 3")
    if math.gcd(a, p) != 1:
        raise NotCoprime(f"gcd({a}, {p}) != 1")
    if t in (1, -2):
        raise PoleAtT(f"t = {t} is outside the integral family")
    stated_ok = t % p != 0 and (t - 1) % p != 0
    guard_ok = (3 * (t + 2)) % p != 0
    if not stated_ok:
        raise DegenerateLeadingCoefficient(
            f"p = {p} divides t(t-1); the reduced pair degenerates")
    if not guard_ok:
        raise DegenerateLeadingCoefficient(
            f"p = {p} divides 3(t+2): leading coefficient of the scaled "
            "first member vanishes (strengthened guard beyond the stated "
            "condition)")
    F, G = scaled_integral_pair(t)
    tol = default_tolerance(p) if tolerance is None else tolerance
    Fq, Gq = FpPoly.reduce(F, p, 2), FpPoly.reduce(G, p, 2)
    Fp_, Gp_ = FpPoly.reduce(F, p, 1), FpPoly.reduce(G, p, 1)
    residues_f = critical_residues(Fq, a, p)
    residues_g = critical_residues(Gq, a, p)
    # the exact certificate of W_F = W_G; the float sums only cross-check it
    if sorted(residues_f) != sorted(residues_g):
        raise VerificationError(
            f"critical residues mod p^2 of the pair differ at t = {t}, "
            f"p = {p}, a = {a}")
    direct_f = weyl_direct(Fq, a, p)
    direct_g = weyl_direct(Gq, a, p)
    vals_f, found_f, expected = crit_values_mod_p(Fp_, p)
    vals_g, found_g, _ = crit_values_mod_p(Gp_, p)
    mf = sorted(a * v % p for v in vals_f)
    mg = sorted(a * v % p for v in vals_g)
    return WeylReport(
        p=p, a=a, t=t,
        direct_f=direct_f, direct_g=direct_g,
        reduced_f=_phase_sum(residues_f, p * p),
        reduced_g=_phase_sum(residues_g, p * p),
        crit_found_f=found_f, crit_found_g=found_g, crit_expected=expected,
        exact_multiset_equal=(mf == mg),
        exact_p2_multiset_equal=True,
        guards={"condition_p_ndiv_t(t-1)": stated_ok,
                "guard_p_ndiv_3(t+2)": guard_ok},
        tolerance=tol)
