"""Named evaluation scenarios: network size x delay model.

The paper evaluates B-Neck on three transit-stub topologies (Small, Medium,
Big) in two delay flavours (LAN: 1 microsecond everywhere; WAN: 1-10 ms between
routers).  :func:`build_network` generates one from a size, a delay model and
a seed: the one way a run names its transit-stub network.
"""

from repro.network.transit_stub import (
    BIG_PARAMETERS,
    LAN,
    MEDIUM_PARAMETERS,
    PAPER_BIG_PARAMETERS,
    PAPER_MEDIUM_PARAMETERS,
    SMALL_PARAMETERS,
    WAN,
    generate_transit_stub,
)

NETWORK_SIZES = {
    "small": SMALL_PARAMETERS,
    "medium": MEDIUM_PARAMETERS,
    "big": BIG_PARAMETERS,
    # The paper's full-scale Medium/Big parameter sets, for users willing to
    # wait: pure-Python runs at this scale take tens of seconds to minutes
    # (benchmarks/test_bench_paper_scale.py runs them in the slow tier).
    "paper-medium": PAPER_MEDIUM_PARAMETERS,
    "paper-big": PAPER_BIG_PARAMETERS,
}

DELAY_SCENARIOS = (LAN, WAN)


def build_network(size="small", delay_model=LAN, seed=0):
    """Generate the transit-stub network of a named size and delay model.

    The network is named ``"size-delay"`` (``"small-lan"``), the label of
    the run it carries.
    """
    if size not in NETWORK_SIZES:
        raise ValueError(
            "unknown network size %r (expected one of %s)" % (size, sorted(NETWORK_SIZES))
        )
    if delay_model not in DELAY_SCENARIOS:
        raise ValueError("unknown delay model %r" % (delay_model,))
    return generate_transit_stub(
        NETWORK_SIZES[size],
        scenario=delay_model,
        seed=seed,
        name="%s-%s" % (size, delay_model),
    )
