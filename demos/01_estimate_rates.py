"""
Estimating palindrome rates three ways
======================================

Generate a synthetic genome from the built-in BoHV-1-like reference model,
then recover the null palindrome rate with the three estimators the library
provides: the empirical average rate, the iid formula, and the first-order
Markov formula. The iid formula is the Markov formula on iid_model(pi), the
model whose every transition row is the fitted composition. On a clean
(hot-spot-free) sequence all three should land near the generator's true
rate.
"""

import numpy as np

from palinscan import (
    average_rate,
    bohv1_model,
    estimate_model,
    find_palindromes,
    generate_sequence,
    iid_model,
    markov_rate,
)

HALF_LENGTH = 6          # count palindromes of total length >= 12
LENGTH = 135_301         # matches the BoHV-1 genome size

# -- simulate a background sequence from the reference model ---------------
model = bohv1_model()
rng = np.random.default_rng(0)
seq = generate_sequence(model, LENGTH, rng)
print(f"simulated {seq.length} bp from the reference model")

# -- refit a model from the sequence alone ----------------------------------
fitted = estimate_model(seq)
print("\nfitted letter frequencies (A, C, G, T):")
print("  " + "  ".join(f"{p:.4f}" for p in fitted.pi))
print("fitted transition matrix:")
for row in fitted.trans:
    print("  " + "  ".join(f"{p:.4f}" for p in row))

# -- the three rate estimates -----------------------------------------------
events = find_palindromes(seq, HALF_LENGTH)
lam_avg = average_rate(events)      # count / length, at the table's threshold
lam_iid = markov_rate(iid_model(fitted.pi), HALF_LENGTH)  # independent bases
lam_markov = markov_rate(fitted, HALF_LENGTH)
true_rate = markov_rate(model, HALF_LENGTH).value

print(f"\nfound {len(events)} palindromes with half-length >= {HALF_LENGTH}")
print(f"{'estimator':<22}{'rate / bp':>14}{'vs true':>10}")
for name, est in (("average (count/len)", lam_avg),
                  ("iid formula", lam_iid),
                  ("Markov formula", lam_markov)):
    print(f"{name:<22}{est.value:>14.6g}{est.value / true_rate:>10.3f}")
print(f"{'true (generator)':<22}{true_rate:>14.6g}{1.0:>10.3f}")

# The iid estimate ignores neighbour dependence and typically undershoots;
# the Markov estimate tracks the generator closely.
