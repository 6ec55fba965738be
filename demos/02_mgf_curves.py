"""
Score moment-generating functions on their natural domains
==========================================================

Each palindrome found in a scan contributes a score: 1 for the count score
(pcs), half-length over the minimum for the length score (pls), or the
negative log-probability of the pattern for the base-pair weighted score
(bws). The scan p-value machinery needs the moment-generating function K(t)
of a single score and its cumulant derivatives. This script tabulates them
over each score's domain; the output is plot-ready TSV.
"""

import numpy as np

from palinscan import ScoreModel, bohv1_model, cumulants, score_mgf

HALF_LENGTH = 6
POINTS = 12

model = bohv1_model()

# -- where each MGF lives ----------------------------------------------------
# pcs scores are constant 1, so K(t) = e^t everywhere. pls and bws have a
# finite domain boundary where the defining geometric series stops converging.
for kind in ("pcs", "pls", "bws"):
    sm = ScoreModel(kind, model, HALF_LENGTH)
    print(f"{kind}: domain upper end t_max = {sm.t_max:.6g}")

# -- tabulate K, phi = log K, and the first two phi derivatives --------------
print("\nkind\tt\tmgf\tphi\tphi_prime\tphi_double_prime")
for kind in ("pls", "bws"):
    sm = ScoreModel(kind, model, HALF_LENGTH)
    grid = np.linspace(0.0, 0.90 * sm.t_max, POINTS)
    for t in grid:
        t = float(t)
        phi, phi_prime, phi_double_prime = cumulants(sm, t)
        print(f"{kind}\t{t:.6g}\t{score_mgf(sm, t):.6g}\t{phi:.6g}"
              f"\t{phi_prime:.6g}\t{phi_double_prime:.6g}")

# phi_prime(0) is the mean score of one palindrome; its growth along t is
# what the exponential tilt exploits to reach rare thresholds. Near t_max
# both the MGF and its derivatives blow up.
