"""Exceptions raised by the simulation substrate."""


class SimulationError(Exception):
    """Base class for all simulator errors."""


class SimulationLimitExceeded(SimulationError):
    """Raised when a configured safety limit (events or time) is exceeded.

    The distributed B-Neck protocol is quiescent, so a correct run in a steady
    state always drains the event heap.  Hitting this limit in a test is a
    strong signal of a livelock or of a protocol bug, which is why it is an
    error rather than a silent truncation.
    """

    def __init__(self, message, events_processed=None, current_time=None):
        super().__init__(message)
        self.events_processed = events_processed
        self.current_time = current_time
