"""
Scanning a sequence and pricing its maximum
===========================================

Slide a 1000-bp window along a simulated genome, sum the palindrome length
scores inside each window, and ask how surprising the best window is under
the null model. The p-value comes from an exponential-tilt approximation
with an overshoot correction computed from the score MGF; we also invert it
to get the alpha = 0.05 detection threshold.
"""

import numpy as np

from palinscan import (
    ScoreModel,
    bohv1_model,
    find_palindromes,
    generate_sequence,
    markov_rate,
    p_value,
    score_events,
    threshold_for_alpha,
    window_scores,
)

HALF_LENGTH = 6
WINDOW = 1000
LENGTH = 135_301
KIND = "pls"

model = bohv1_model()
rng = np.random.default_rng(7)

# -- simulate, detect, score, window ----------------------------------------
# One ScoreModel fixes the score kind, null model and threshold; it scores
# the events here and gives the MGF behind the p-value below.
sm = ScoreModel(KIND, model, HALF_LENGTH)
seq = generate_sequence(model, LENGTH, rng)
events = find_palindromes(seq, HALF_LENGTH)
series = window_scores(events.centers, score_events(events, sm), WINDOW, LENGTH)
best, peak = series.peak()
print(f"{len(events)} palindromes; best window starts at {best} "
      f"with total score {peak:.4f}")

# -- p-value of the observed maximum ----------------------------------------
lam0 = markov_rate(model, HALF_LENGTH).value
report = p_value(peak, WINDOW, LENGTH, lam0, sm)
print(f"\ntilted rate lambda1 = {report.tilt.lambda1:.6g} "
      f"(null {lam0:.6g}), tilt theta1 = {report.tilt.theta1:.4f}")
print(f"overshoot nu = {report.nu:.4f} (from the score MGF, no sampling error)")
print(f"P(max window score >= {peak:.4f}) ~= {report.p:.4f}")

# -- the threshold a scan would need at alpha = 0.05 -------------------------
b_alpha = threshold_for_alpha(0.05, WINDOW, LENGTH, lam0, sm)
verdict = "exceeds" if peak >= b_alpha else "stays below"
print(f"\nalpha=0.05 threshold: {b_alpha:.4f}; the observed maximum "
      f"{verdict} it")

# On a null sequence the maximum should stay below the threshold about 95%
# of the time; rerun with other seeds to watch the exceedances accumulate.
