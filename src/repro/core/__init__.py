"""The paper's primary contribution: the JET framework and its baselines."""

from repro.core.interfaces import LoadBalancer, Name
from repro.core.jet import JETLoadBalancer
from repro.core.full_ct import FullCTLoadBalancer
from repro.core.stateless import StatelessLoadBalancer
from repro.core.load_aware import BoundedLoadJET, PowerOfTwoJET
from repro.core.lb_pool import LBPool
from repro.core.safety import SafetyClass, SafetyReport, classify_event, classify_for_horizon
from repro.core.factories import make_ch, make_full_ct, make_jet

__all__ = [
    "LoadBalancer",
    "Name",
    "JETLoadBalancer",
    "FullCTLoadBalancer",
    "StatelessLoadBalancer",
    "PowerOfTwoJET",
    "BoundedLoadJET",
    "LBPool",
    "SafetyClass",
    "SafetyReport",
    "classify_event",
    "classify_for_horizon",
    "make_ch",
    "make_jet",
    "make_full_ct",
]
