"""The traced run's per-layer split of the program's time.

With ``--trace 1`` the benchmark runs its rounds under :mod:`cProfile` and
folds every function's self time into the layer of the module that defines
it.  Time spent in built-in functions (``heapq``, ``sorted``, ``dict``
methods ...) is charged to the layer of the Python function that called
them, so each layer's figure is the time its own code kept the processor
busy.  Call counts are folded the same way and give each layer's work as a
count.  cProfile adds a cost to every Python call, so the split is a
proportion to compare between commits, not a wall-clock figure.
"""

import os
import pstats

# Layer -> the modules (paths under ``src/repro``) that make it up.
LAYERS = {
    "event_loop": ("simulator/simulation.py", "simulator/event_queue.py",
                   "simulator/clock.py", "simulator/process.py"),
    "router_link": ("core/router_link.py",),
    "link_state": ("core/state.py",),
    "endpoints": ("core/source_node.py", "core/destination_node.py"),
    "protocol": ("core/protocol.py", "core/api.py", "core/notifications.py",
                 "core/quiescence.py", "core/actions.py"),
    "packets": ("core/packets.py", "simulator/tracing.py"),
    "algebra": ("fairness/algebra.py", "fairness/allocation.py"),
    "oracle": ("core/validation.py", "core/centralized.py",
               "fairness/waterfilling.py", "fairness/bottleneck.py",
               "fairness/verification.py"),
    "routing": ("network/routing.py",),
    "network": ("network/graph.py", "network/session.py",
                "network/topology.py", "network/transit_stub.py"),
}
OTHER = "other"

_MODULE_LAYER = {
    os.path.join("repro", *module.split("/")): layer
    for layer, modules in LAYERS.items()
    for module in modules
}


def layer_of(filename):
    """The layer of a profiled function, from the file defining it."""
    for suffix, layer in _MODULE_LAYER.items():
        if filename.endswith(suffix):
            return layer
    return OTHER


def split_by_layer(profile):
    """Fold a finished :class:`cProfile.Profile` into per-layer totals.

    Returns ``{layer: (self seconds, calls)}`` for every layer in
    :data:`LAYERS` plus ``"other"``.
    """
    totals = {layer: [0.0, 0] for layer in list(LAYERS) + [OTHER]}
    stats = pstats.Stats(profile).stats
    for (filename, _, _), (_, calls, self_time, _, callers) in stats.items():
        if filename != "~":
            entry = totals[layer_of(filename)]
            entry[0] += self_time
            entry[1] += calls
            continue
        # A built-in: charge each caller's share to the caller's layer.
        for (caller_file, _, _), (caller_calls, _, caller_time, _) in callers.items():
            entry = totals[layer_of(caller_file)]
            entry[0] += caller_time
            entry[1] += caller_calls
    return {layer: (seconds, calls) for layer, (seconds, calls) in totals.items()}
