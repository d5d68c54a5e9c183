"""IP address space management for the simulated internet.

Organisations receive prefixes from a central allocator; individual hosts
get stable addresses inside those prefixes (stable = a deterministic
function of the owning name, so re-building a world yields identical
addressing).
"""

from __future__ import annotations

import ipaddress
import zlib
from typing import List, Union

IPNetwork = Union[ipaddress.IPv4Network, ipaddress.IPv6Network]


def stable_hash(text: str) -> int:
    """A deterministic 32-bit hash (CRC32) of *text*.

    Python's builtin ``hash`` is salted per process; this one is stable
    across runs, which keeps world construction reproducible.
    """
    return zlib.crc32(text.encode("ascii")) & 0xFFFFFFFF


class PrefixAllocator:
    """Hands out consecutive subnets from IPv4 and IPv6 supernets."""

    def __init__(
        self,
        pool_v4: str = "10.0.0.0/8",
        pool_v6: str = "fd00::/20",
    ):
        self._pool_v4 = ipaddress.IPv4Network(pool_v4)
        self._pool_v6 = ipaddress.IPv6Network(pool_v6)
        self._next_v4 = int(self._pool_v4.network_address)
        self._next_v6 = int(self._pool_v6.network_address)
        self.allocated: List[IPNetwork] = []

    def allocate(self, prefixlen: int) -> ipaddress.IPv4Network:
        """Allocate the next free IPv4 subnet of the given length."""
        if prefixlen < self._pool_v4.prefixlen or prefixlen > 30:
            raise ValueError(f"cannot allocate a /{prefixlen} from the pool")
        size = 2 ** (32 - prefixlen)
        # Align the cursor to the subnet size.
        if self._next_v4 % size:
            self._next_v4 += size - (self._next_v4 % size)
        network = ipaddress.IPv4Network((self._next_v4, prefixlen))
        if not network.subnet_of(self._pool_v4):
            raise RuntimeError("IPv4 pool exhausted")
        self._next_v4 += size
        self.allocated.append(network)
        return network

    def allocate_v6(self, prefixlen: int = 48) -> ipaddress.IPv6Network:
        """Allocate the next free IPv6 subnet of the given length."""
        if prefixlen < self._pool_v6.prefixlen or prefixlen > 126:
            raise ValueError(f"cannot allocate a /{prefixlen} from the pool")
        size = 2 ** (128 - prefixlen)
        if self._next_v6 % size:
            self._next_v6 += size - (self._next_v6 % size)
        network = ipaddress.IPv6Network((self._next_v6, prefixlen))
        if not network.subnet_of(self._pool_v6):
            raise RuntimeError("IPv6 pool exhausted")
        self._next_v6 += size
        self.allocated.append(network)
        return network


def address_in(network: IPNetwork, key: str) -> str:
    """A stable host address inside *network* derived from *key*.

    Network and broadcast addresses are avoided for IPv4.
    """
    host_count = network.num_addresses
    if network.version == 4 and host_count > 2:
        offset = 1 + stable_hash(key) % (host_count - 2)
    else:
        offset = stable_hash(key) % host_count
    return str(network.network_address + offset)
