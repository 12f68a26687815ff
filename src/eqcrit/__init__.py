"""Exact arithmetic for critical values of quartics over Q and small number
fields: the critical-value polynomial, the explicit modular model of the
quartic Hurwitz space, the classified family of inequivalent equicritical
pairs, and the induced Weyl-sum identities mod p^2."""

from .critical import (CVPoly, EquivalenceVerdict, affine_equivalent,
                       apply_affine, cvpoly, equicritical, is_morse,
                       poly_from_critical_points, post_compose, theta)
from .family import (EquicriticalPair, PairCase, f_t, g_t, gamma, j1, j2, jt,
                     pair, pipeline_pair, sweep, x1, x2)
from .fields import (PRESETS, Q_OMEGA, Q_SQRT3, Q_ZETA12, QQ, AlgElem,
                     FieldSpec)
from .moduli import (INF, ClassifyResult, Fiber, ProjValue, ShortWeierstrass,
                     beta4, cj_membership, classify_critical_values,
                     critical_fiber, cubic_with_roots, curve_with_j,
                     fiber_beta4, j_of_cubic, jcv_of_curve, lifts_from_cvpoly,
                     pi3, psi4, twist_scale, weierstrass_integral)
from .poly import (Poly, poly_gcd, rational_roots, resultant,
                   resultant_bivariate, squarefree_part)
from .weyl import (FpPoly, WeylReport, crit_values_mod_p, fd_pair_check,
                   weyl_direct, weyl_reduced)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
