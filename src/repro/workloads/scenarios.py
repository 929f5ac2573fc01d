"""Named evaluation scenarios: network size x delay model.

The paper evaluates B-Neck on three transit-stub topologies (Small, Medium,
Big) in two delay flavours (LAN: 1 microsecond everywhere; WAN: 1-10 ms between
routers).  A :class:`NetworkScenario` bundles those choices with a seed so the
experiment harnesses can enumerate them declaratively.
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


class NetworkScenario(object):
    """A named evaluation setting: topology size, delay model and seed."""

    def __init__(self, size="small", delay_model=LAN, seed=0):
        if size not in NETWORK_SIZES:
            raise ValueError(
                "unknown network size %r (expected one of %s)" % (size, sorted(NETWORK_SIZES))
            )
        if delay_model not in DELAY_SCENARIOS:
            raise ValueError("unknown delay model %r" % (delay_model,))
        self.size = size
        self.delay_model = delay_model
        self.seed = seed

    @property
    def label(self):
        return "%s-%s" % (self.size, self.delay_model)

    def parameters(self):
        return NETWORK_SIZES[self.size]

    def build(self):
        """Generate the transit-stub network of this scenario."""
        return generate_transit_stub(
            self.parameters(),
            scenario=self.delay_model,
            seed=self.seed,
            name=self.label,
        )

    def __repr__(self):
        return "NetworkScenario(size=%r, delay_model=%r, seed=%d)" % (
            self.size,
            self.delay_model,
            self.seed,
        )


def build_network(size="small", delay_model=LAN, seed=0):
    """Shorthand for ``NetworkScenario(size, delay_model, seed).build()``."""
    return NetworkScenario(size, delay_model, seed).build()
