"""Bandwidth units.

All link capacities and session rates in the library are expressed in bits per
second.  The paper configures 100 Mbps host/stub links, 200 Mbps stub-to-stub
links and 500 Mbps transit links.
"""

BPS = 1.0
KBPS = 1e3
MBPS = 1e6
GBPS = 1e9
