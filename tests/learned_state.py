"""What a run taught an estimator, as plain values two runs can compare.

The differential tests require a fast-lane run and its scalar twin to
leave an estimator in the same learned state.  ``==`` on the estimators'
own records is too lenient for that: it takes an int alpha for a float
one.  :func:`learned_state` compares each learned number by ``repr``
(type and every bit) and each regression array by its bytes.
"""

import struct

from repro.core.last_instance import LastInstance
from repro.core.regression import RegressionEstimator
from repro.core.successive import SuccessiveApproximation


def learned_state(est):
    """The learned state of a successive, last-instance or regression
    estimator; in-flight bookkeeping (probe tickets, failure floors) is
    left out."""
    if isinstance(est, SuccessiveApproximation):
        return [
            (key, repr((g.estimate, g.alpha, g.request, g.last_safe,
                        g.successes, g.failures)))
            for key, g in est._groups.items()
        ]
    if isinstance(est, LastInstance):
        return [
            (key, repr((list(g.recent_usage), g.escalated)))
            for key, g in est._groups.items()
        ]
    if isinstance(est, RegressionEstimator):
        state = est._state
        if state is None:
            return None
        return (state.weights.tobytes(), state.p_matrix.tobytes(),
                struct.pack("<d", state.residual_std), state.n_samples,
                struct.pack("<d", state.residual_sq_sum))
    raise TypeError(f"no learned-state reader for {type(est).__name__}")
