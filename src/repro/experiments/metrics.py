"""Error metrics of Experiment 3 (Figure 7).

The paper evaluates the accuracy of the transient rates with two relative
errors, both in percent:

* **error at sources** -- per session, ``e = 100 * (a - x) / x`` where ``a`` is
  the rate currently assigned by the protocol and ``x`` the max-min fair rate
  of the final session configuration.  Positive errors mean over-estimation
  (risk of overload), negative errors mean under-estimation (unused capacity);
* **error in network links** -- per *bottleneck* link, the relative error
  between the sum of assigned rates of the sessions crossing it and the sum of
  their max-min fair rates, ``e = 100 * (sa - sx) / sx``.  This measures the
  stress the protocol puts on the links that matter.
"""

from repro.fairness.bottleneck import analyze_bottlenecks
from repro.simulator.statistics import summarize


def relative_errors(assigned, reference):
    """Per-session percentage errors ``100 * (assigned - reference) / reference``,
    over the sessions of ``reference``.

    Sessions with a zero reference rate are skipped (they carry no
    information about accuracy).
    """
    errors = []
    for session_id in reference.session_ids():
        expected = float(reference.rate(session_id))
        if expected <= 0.0:
            continue
        actual = float(assigned.get(session_id, 0.0))
        errors.append(100.0 * (actual - expected) / expected)
    return errors


def error_summary(errors):
    """The aggregate plotted in Figure 7: mean, median, 10th and 90th percentiles."""
    return summarize(errors)


def bottleneck_link_errors(sessions, assigned, reference):
    """Per-bottleneck-link percentage errors of the aggregate assigned rate.

    Bottleneck links are identified on the *reference* (max-min fair)
    allocation; for each such link the error compares the total assigned rate
    of the crossing sessions against their total max-min rate.
    """
    sessions = list(sessions)
    analysis = analyze_bottlenecks(sessions, reference)
    errors = []
    for link in analysis.saturated_links():
        endpoints = link.endpoints
        # The analysis already indexed the crossing sessions per link; sorted
        # so the float sums below are order-stable across processes.
        crossing = sorted(
            analysis.restricted.get(endpoints, ())
        ) + sorted(analysis.unrestricted.get(endpoints, ()))
        expected = sum(float(reference.get(session_id, 0.0)) for session_id in crossing)
        if expected <= 0.0:
            continue
        actual = sum(float(assigned.get(session_id, 0.0)) for session_id in crossing)
        errors.append(100.0 * (actual - expected) / expected)
    return errors


def convergence_time(error_series, tolerance_percent=1.0):
    """The first sample time after which the worst error stays within tolerance.

    ``error_series`` is a list of ``(time, SummaryStatistics)``.  Returns
    ``None`` when the series never settles inside the tolerance band.
    """
    converged_at = None
    for time, stats in error_series:
        worst = max(abs(stats.minimum), abs(stats.maximum))
        if worst <= tolerance_percent:
            if converged_at is None:
                converged_at = time
        else:
            converged_at = None
    return converged_at
