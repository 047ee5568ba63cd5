"""Discrete-event simulation substrate for the Slice reproduction."""

from .engine import AllOf, AnyOf, Event, Interrupt, Process, Simulator, Timeout
from .rand import RandomStreams
from .resources import Link, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Link",
    "Process",
    "RandomStreams",
    "Resource",
    "Simulator",
    "Store",
    "Timeout",
]
